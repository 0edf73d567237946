"""End-to-end tests of the JSON/HTTP front end."""

from __future__ import annotations

import json
import time

import pytest

from repro.dataset.io import render_csv, render_jsonl


@pytest.fixture()
def faculty_fingerprints(service_client, faculty_population, faculty_auxiliary_table):
    """Register the faculty private + auxiliary tables over HTTP."""
    status, _, body = service_client.post_raw(
        "/datasets?label=faculty", render_csv(faculty_population.private).encode(), "text/csv"
    )
    assert status == 201
    private = json.loads(body)["fingerprint"]
    status, _, body = service_client.post_raw(
        "/datasets", render_jsonl(faculty_auxiliary_table).encode(), "application/jsonl"
    )
    assert status == 201
    auxiliary = json.loads(body)["fingerprint"]
    return private, auxiliary


class TestHealthAndStats:
    def test_healthz(self, service_client):
        status, document = service_client.get("/healthz")
        assert (status, document) == (200, {"status": "ok"})

    def test_stats_and_unknown_path(self, service_client):
        status, document = service_client.get("/stats")
        assert status == 200
        assert document["datasets"] == 0
        status, document = service_client.get("/no/such/path")
        assert status == 404
        assert "error" in document


class TestDatasetEndpoints:
    def test_streamed_csv_registration_in_small_chunks(
        self, service_client, faculty_population, monkeypatch
    ):
        # Force the upload reader through many tiny socket chunks.
        import repro.service.http as service_http

        monkeypatch.setattr(service_http, "UPLOAD_CHUNK_BYTES", 17)
        payload = render_csv(faculty_population.private).encode()
        status, _, body = service_client.post_raw("/datasets", payload, "text/csv")
        assert status == 201
        info = json.loads(body)
        assert info["fingerprint"] == faculty_population.private.fingerprint
        assert info["rows"] == faculty_population.private.num_rows

    def test_reupload_returns_200_not_created(self, service_client, simple_table):
        payload = render_csv(simple_table).encode()
        first, _, _ = service_client.post_raw("/datasets", payload, "text/csv")
        second, _, body = service_client.post_raw("/datasets", payload, "text/csv")
        assert (first, second) == (201, 200)
        assert json.loads(body)["created"] is False

    def test_jsonl_via_query_parameter(self, service_client, simple_table):
        payload = render_jsonl(simple_table).encode()
        status, _, body = service_client.post_raw(
            "/datasets?format=jsonl", payload, "text/plain"
        )
        assert status == 201
        assert json.loads(body)["fingerprint"] == simple_table.fingerprint

    def test_delete_unregisters_a_dataset(self, service_client, simple_table):
        import urllib.request

        payload = render_csv(simple_table).encode()
        _, _, body = service_client.post_raw("/datasets", payload, "text/csv")
        fingerprint = json.loads(body)["fingerprint"]
        request = urllib.request.Request(
            f"{service_client.base}/datasets/{fingerprint}", method="DELETE"
        )
        status, _, reply = service_client._open(request)
        assert status == 200
        assert json.loads(reply)["removed"] is True
        status, listing = service_client.get("/datasets")
        assert listing["datasets"] == []
        status, _, _ = service_client._open(request)  # second delete -> 404
        assert status == 404

    def test_dataset_listing_and_lookup(self, service_client, simple_table):
        payload = render_csv(simple_table).encode()
        _, _, body = service_client.post_raw("/datasets?label=demo", payload, "text/csv")
        fingerprint = json.loads(body)["fingerprint"]
        status, listing = service_client.get("/datasets")
        assert status == 200
        assert [d["fingerprint"] for d in listing["datasets"]] == [fingerprint]
        status, info = service_client.get(f"/datasets/{fingerprint}")
        assert status == 200
        assert info["label"] == "demo"
        status, _ = service_client.get("/datasets/unknown")
        assert status == 404

    def test_malformed_uploads(self, service_client):
        status, _, body = service_client.post_raw("/datasets", b"", "text/csv")
        assert status == 400
        status, _, body = service_client.post_raw(
            "/datasets", b"only-one-line\n", "text/csv"
        )
        assert status == 400
        assert "header" in json.loads(body)["error"]

    def test_rejected_upload_closes_the_connection(self, service_client, simple_table):
        """An error mid-body must not leave a desynced keep-alive connection."""
        import http.client

        bad = "a,b\nidentifier:text\n" + "1,2\n" * 50  # header mismatch + body
        connection = http.client.HTTPConnection(
            "127.0.0.1", service_client.server.port, timeout=30
        )
        try:
            connection.request(
                "POST", "/datasets", body=bad.encode(), headers={"Content-Type": "text/csv"}
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers.get("Connection") == "close"
            response.read()
        finally:
            connection.close()
        # the server is still healthy for new connections
        status, document = service_client.get("/healthz")
        assert (status, document) == (200, {"status": "ok"})

    def test_non_utf8_upload_is_rejected_not_mangled(self, service_client):
        body = "name\nidentifier:text\nJos\xe9\n".encode("latin-1")
        status, _, reply = service_client.post_raw("/datasets", body, "text/csv")
        assert status == 400
        assert "UTF-8" in json.loads(reply)["error"]
        _, listing = service_client.get("/datasets")
        assert listing["datasets"] == []

    def test_truncated_upload_is_rejected_not_registered(
        self, service_client, simple_table
    ):
        """A body shorter than Content-Length must not register a half-dataset."""
        import http.client

        payload = render_csv(simple_table).encode()
        connection = http.client.HTTPConnection(
            "127.0.0.1", service_client.server.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/datasets")
            connection.putheader("Content-Type", "text/csv")
            connection.putheader("Content-Length", str(len(payload) + 500))
            connection.endheaders()
            connection.send(payload)  # 500 promised bytes never arrive
            connection.close()  # half-close; the server sees EOF mid-body
        finally:
            connection.close()
        status, listing = service_client.get("/datasets")
        assert status == 200
        assert listing["datasets"] == [], "truncated upload must not be registered"


class TestRequestBodyLimits:
    def _raw_post(self, port: int, path: str, content_length: str, body: bytes = b""):
        """POST with an arbitrary Content-Length header -> (status, reply dict)."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Type", "text/csv")
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            if body:
                connection.send(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("bad_length", ["banana", "-5", "1e3", "0x10"])
    def test_malformed_content_length_is_a_400(self, service_client, bad_length):
        """A bad Content-Length is a client error, not an uncaught ValueError."""
        port = service_client.server.port
        for path in ("/datasets", "/release"):
            status, reply = self._raw_post(port, path, bad_length)
            assert status == 400
            assert "Content-Length" in reply["error"]
        # the server is still healthy afterwards
        status, document = service_client.get("/healthz")
        assert (status, document) == (200, {"status": "ok"})

    def test_oversize_body_gets_413(self, service):
        """Bodies beyond the configured limit are refused before being read."""
        from repro.service import build_server

        server = build_server(port=0, service=service, max_body_bytes=64).serve_in_background()
        try:
            payload = b"name\nidentifier:text\n" + b"x\n" * 100
            status, reply = self._raw_post(
                server.port, "/datasets", str(len(payload)), payload
            )
            assert status == 413
            assert "exceeds" in reply["error"]
            # JSON endpoints enforce the same limit
            body = json.dumps({"dataset": "x" * 200, "k": 3}).encode()
            status, reply = self._raw_post(server.port, "/release", str(len(body)), body)
            assert status == 413
            # a within-limit request still works on the same server
            status, _ = self._raw_post(server.port, "/datasets", "0")
            assert status == 400  # empty body -> normal validation error
        finally:
            server.close(wait_jobs=False)

    def test_invalid_body_limit_rejected(self, service):
        from repro.exceptions import ServiceError
        from repro.service import build_server

        with pytest.raises(ServiceError):
            build_server(port=0, service=service, max_body_bytes=0)

    @pytest.mark.parametrize("disconnect", [BrokenPipeError, ConnectionResetError])
    def test_reply_to_disconnected_client_is_dropped(self, disconnect):
        """A client that hangs up mid-reply must not raise out of ``_send``."""
        from types import SimpleNamespace

        from repro.service.http import _Handler

        class _DeadSocketFile:
            def write(self, data):
                raise disconnect("client went away")

        handler = _Handler.__new__(_Handler)
        handler.server = SimpleNamespace(verbose=False)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.command = "GET"
        handler.close_connection = False
        handler.wfile = _DeadSocketFile()
        handler._send(200, b"{}", "application/json")  # must not raise
        assert handler.close_connection is True


class TestReleaseEndpoint:
    def test_csv_reply_and_cache_hit(self, service_client, faculty_fingerprints):
        private, _ = faculty_fingerprints
        status, headers, first = service_client.post_json(
            "/release", {"dataset": private, "k": 3}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        status, _, second = service_client.post_json(
            "/release", {"dataset": private, "k": 3}
        )
        assert first == second
        stats = service_client.server.service.stats()
        # Two entries: the release artifact and its cached CSV bytes.
        assert stats["cache"]["computations"] == 2
        assert stats["cache"]["memory_hits"] >= 1

    def test_json_reply(self, service_client, faculty_fingerprints):
        private, _ = faculty_fingerprints
        status, _, body = service_client.post_json(
            "/release", {"dataset": private, "k": 3, "format": "json"}
        )
        assert status == 200
        document = json.loads(body)
        assert document["minimum_class_size"] >= 3
        assert len(document["rows_data"]) == 40
        assert all("name" in row for row in document["rows_data"])

    def test_error_mapping(self, service_client, faculty_fingerprints):
        private, _ = faculty_fingerprints
        status, _, _ = service_client.post_json("/release", {"dataset": "nope", "k": 3})
        assert status == 404
        status, _, _ = service_client.post_json(
            "/release", {"dataset": private, "k": 10_000}
        )
        assert status == 400  # infeasible k -> AnonymizationError -> 400
        status, _, _ = service_client.post_json("/release", {"dataset": private})
        assert status == 400  # missing k
        status, _, body = service_client.post_raw(
            "/release", b"not json", "application/json"
        )
        assert status == 400

    def test_non_finite_quasi_identifier_is_a_prompt_400(self, service_client, simple_table):
        # CSV upload accepts "inf"; MDAV used to spin forever on such a column.
        broken = simple_table.replace_column("age", [25, 31, float("inf"), 44, 52, 58])
        status, _, body = service_client.post_raw(
            "/datasets", render_csv(broken).encode(), "text/csv"
        )
        assert status == 201
        fingerprint = json.loads(body)["fingerprint"]
        started = time.monotonic()
        status, _, body = service_client.post_json("/release", {"dataset": fingerprint, "k": 2})
        assert status == 400
        assert "'age'" in json.loads(body)["error"]
        assert time.monotonic() - started < 10.0


class TestAttackEndpoint:
    def test_attack_over_http(self, service_client, faculty_fingerprints, faculty_population):
        private, auxiliary = faculty_fingerprints
        status, _, body = service_client.post_json(
            "/attack", {"dataset": private, "auxiliary": auxiliary, "k": 3}
        )
        assert status == 200
        document = json.loads(body)
        low, high = faculty_population.assumed_salary_range
        assert len(document["estimates"]) == 40
        assert all(low <= value <= high for value in document["estimates"])
        assert document["match_rate"] == 1.0


class TestFredEndpoint:
    def test_fred_job_lifecycle(self, service_client, faculty_fingerprints):
        private, auxiliary = faculty_fingerprints
        status, _, body = service_client.post_json(
            "/fred",
            {"dataset": private, "auxiliary": auxiliary, "kmin": 2, "kmax": 3},
        )
        assert status == 202
        ticket = json.loads(body)
        job = ticket["job"]
        assert ticket["poll"] == f"/jobs/{job}"

        deadline = time.monotonic() + 120
        while True:
            status, snapshot = service_client.get(f"/jobs/{job}")
            assert status == 200
            if snapshot["status"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, "job did not finish in time"
            time.sleep(0.05)
        assert snapshot["status"] == "done"
        assert snapshot["result"]["optimal_level"] in (2, 3)

    def test_unknown_job_is_404(self, service_client):
        status, _ = service_client.get("/jobs/job-404")
        assert status == 404

    def test_malformed_numeric_fields_are_400_not_500(
        self, service_client, faculty_fingerprints
    ):
        private, auxiliary = faculty_fingerprints
        for bad_body in (
            {"dataset": private, "auxiliary": auxiliary, "kmin": "abc"},
            {"dataset": private, "auxiliary": auxiliary, "protection_weight": "x"},
        ):
            status, _, body = service_client.post_json("/fred", bad_body)
            assert status == 400, json.loads(body)


class TestStreamedReleases:
    @pytest.fixture()
    def streaming_server(self, service, faculty_population):
        """A server whose stream threshold is tiny, so any release chunks."""
        from repro.service import build_server

        service.register(faculty_population.private)
        server = build_server(
            port=0, service=service, stream_threshold_bytes=64
        ).serve_in_background()
        yield server
        server.close()

    @staticmethod
    def _release_body(fingerprint: str) -> bytes:
        return json.dumps({"dataset": fingerprint, "k": 3}).encode("utf-8")

    def _post_chunked(self, port: int, body: bytes):
        """POST /release over HTTP/1.1 -> (headers, reassembled body bytes)."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request(
                "POST",
                "/release",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            return dict(response.headers), response.read()
        finally:
            connection.close()

    def _post_buffered(self, port: int, body: bytes):
        """POST /release as HTTP/1.0 over a raw socket -> (header text, body).

        An HTTP/1.0 client cannot parse chunked framing, so the server must
        fall back to a buffered Content-Length reply for the same resource.
        """
        import socket

        head = (
            "POST /release HTTP/1.0\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(head + body)
            raw = b"".join(iter(lambda: sock.recv(65536), b""))
        header_blob, _, payload = raw.partition(b"\r\n\r\n")
        return header_blob.decode("latin-1"), payload

    def test_chunked_and_buffered_bodies_are_identical(
        self, streaming_server, faculty_population
    ):
        fingerprint = faculty_population.private.fingerprint
        body = self._release_body(fingerprint)
        headers, chunked = self._post_chunked(streaming_server.port, body)
        assert headers.get("Transfer-Encoding") == "chunked"
        assert "Content-Length" not in headers
        assert "X-Repro-Worker" in headers

        header_text, buffered = self._post_buffered(streaming_server.port, body)
        assert "Transfer-Encoding" not in header_text
        assert f"Content-Length: {len(buffered)}" in header_text
        assert buffered == chunked
        expected = streaming_server.service.release_csv(fingerprint, 3)
        assert chunked == bytes(expected)

    def test_small_bodies_stay_buffered(self, streaming_server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", streaming_server.port, timeout=60
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") is None
            assert response.getheader("Content-Length") is not None
            assert json.loads(response.read()) == {"status": "ok"}
        finally:
            connection.close()

    @pytest.mark.parametrize("disconnect", [BrokenPipeError, ConnectionResetError])
    def test_client_disconnect_mid_chunk_is_dropped(self, disconnect):
        """A client hanging up between chunks must not raise out of the send."""
        from types import SimpleNamespace

        from repro.service.http import STREAM_CHUNK_BYTES, _Handler

        class _DyingSocketFile:
            """Accepts a few writes, then fails like a closed socket."""

            def __init__(self, writes_before_failure: int) -> None:
                self.remaining = writes_before_failure
                self.written = []

            def write(self, data) -> None:
                if self.remaining <= 0:
                    raise disconnect("client went away")
                self.remaining -= 1
                self.written.append(bytes(data))

        handler = _Handler.__new__(_Handler)
        handler.server = SimpleNamespace(verbose=False, stream_threshold_bytes=16)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /release HTTP/1.1"
        handler.command = "POST"
        handler.close_connection = False
        # Headers flush + first chunk (size line, segment, CRLF) succeed; the
        # connection dies while the second chunk is going out.
        handler.wfile = _DyingSocketFile(writes_before_failure=5)
        payload = b"x" * (STREAM_CHUNK_BYTES * 2 + STREAM_CHUNK_BYTES // 2)
        handler._send_payload(200, payload, "text/csv")  # must not raise
        assert handler.close_connection is True
        assert len(handler.wfile.written) == 5, "the failure happened mid-stream"

class TestKeepAliveCap:
    """``max_keepalive_requests``: long-lived connections must re-balance."""

    @pytest.fixture()
    def capped_server(self):
        from repro.service import AnonymizationService, build_server

        service = AnonymizationService(cache_capacity=8)
        server = build_server(
            port=0, service=service, max_keepalive_requests=2
        ).serve_in_background()
        yield server
        server.close()

    def test_connection_closes_at_the_cap(self, capped_server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", capped_server.port, timeout=30
        )
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200
            assert first.getheader("Connection") != "close"
            first.read()

            connection.request("GET", "/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert second.getheader("Connection") == "close"
            second.read()
        finally:
            connection.close()

    def test_each_fresh_connection_gets_a_fresh_budget(self, capped_server):
        import http.client

        for _ in range(3):
            connection = http.client.HTTPConnection(
                "127.0.0.1", capped_server.port, timeout=30
            )
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                response.read()
            finally:
                connection.close()

    def test_cap_must_be_positive(self):
        from repro.exceptions import ServiceError
        from repro.service import AnonymizationService, build_server

        service = AnonymizationService(cache_capacity=8)
        try:
            with pytest.raises(ServiceError, match="max_keepalive_requests"):
                build_server(port=0, service=service, max_keepalive_requests=0)
        finally:
            service.close()


class TestAppendEndpoint:
    def test_sync_append_chains_and_invalidates(
        self, service_client, faculty_fingerprints, faculty_population
    ):
        private, _ = faculty_fingerprints
        service_client.post_json("/release", {"dataset": private, "k": 3})
        delta = faculty_population.private.take([0, 1])
        status, _, body = service_client.post_raw(
            f"/append/{private}", render_csv(delta).encode(), "text/csv"
        )
        assert status == 200
        info = json.loads(body)
        assert info["superseded"] == private
        assert info["appended_rows"] == 2
        assert info["rows"] == faculty_population.private.num_rows + 2
        assert info["invalidated_entries"] >= 1
        expected = faculty_population.private.append(delta).fingerprint
        assert info["fingerprint"] == expected
        # The old fingerprint is gone; the new one serves.
        status, reply = service_client.get(f"/datasets/{private}")
        assert status == 404
        status, reply = service_client.get(f"/datasets/{expected}")
        assert status == 200
        assert reply["rows"] == info["rows"]

    def test_jsonl_append_via_content_type(self, service_client, simple_table):
        _, _, body = service_client.post_raw(
            "/datasets", render_csv(simple_table).encode(), "text/csv"
        )
        fingerprint = json.loads(body)["fingerprint"]
        delta = simple_table.take([2])
        status, _, body = service_client.post_raw(
            f"/append/{fingerprint}",
            render_jsonl(delta).encode(),
            "application/jsonl",
        )
        assert status == 200
        assert json.loads(body)["fingerprint"] == simple_table.append(delta).fingerprint

    def test_async_append_returns_a_job_ticket(
        self, service_client, simple_table
    ):
        _, _, body = service_client.post_raw(
            "/datasets", render_csv(simple_table).encode(), "text/csv"
        )
        fingerprint = json.loads(body)["fingerprint"]
        delta = simple_table.take([3, 4])
        status, _, body = service_client.post_raw(
            f"/append/{fingerprint}?mode=async", render_csv(delta).encode(), "text/csv"
        )
        assert status == 202
        ticket = json.loads(body)
        job = ticket["job"]
        assert ticket["poll"] == f"/jobs/{job}"
        deadline = time.monotonic() + 120
        while True:
            status, snapshot = service_client.get(f"/jobs/{job}")
            assert status == 200
            if snapshot["status"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, "append job did not finish"
            time.sleep(0.05)
        assert snapshot["status"] == "done"
        assert snapshot["kind"] == "append"
        assert snapshot["result"]["fingerprint"] == simple_table.append(delta).fingerprint

    def test_append_error_mapping(self, service_client, simple_table):
        _, _, body = service_client.post_raw(
            "/datasets", render_csv(simple_table).encode(), "text/csv"
        )
        fingerprint = json.loads(body)["fingerprint"]
        payload = render_csv(simple_table.take([0])).encode()
        # Unknown dataset -> 404
        status, _, _ = service_client.post_raw("/append/nope", payload, "text/csv")
        assert status == 404
        # Empty body -> 400
        status, _, body = service_client.post_raw(
            f"/append/{fingerprint}", b"", "text/csv"
        )
        assert status == 400
        assert "non-empty" in json.loads(body)["error"]
        # Unknown mode -> 400
        status, _, _ = service_client.post_raw(
            f"/append/{fingerprint}?mode=later", payload, "text/csv"
        )
        assert status == 400
        # Schema mismatch -> 400, dataset untouched
        status, _, _ = service_client.post_raw(
            f"/append/{fingerprint}", b"name\nidentifier:text\nAda\n", "text/csv"
        )
        assert status == 400
        status, info = service_client.get(f"/datasets/{fingerprint}")
        assert status == 200
        assert info["rows"] == simple_table.num_rows
