"""End-to-end tests of the JSON/HTTP front end."""

from __future__ import annotations

import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.io import read_csv, render_csv
from repro.exceptions import ServiceError
from repro.service.http import _iter_body_lines

# Upload bodies mixing multi-byte UTF-8, "\r\n", bare "\r" and characters
# that ``str.splitlines`` also breaks on (\u2028, \x85, \x0b, \x1c): only
# "\n", "\r\n" and "\r" may end a line, as in ``open(newline="")``.
_body_texts = st.tuples(
    st.lists(
        st.one_of(
            st.text(alphabet='ab,"', max_size=4),
            st.sampled_from(
                ["\n", "\r\n", "\r", "\u2028", "\x85", "\x0b", "\x1c", "é", "€", "𝄞"]
            ),
        ),
        max_size=40,
    ).map("".join),
    st.sampled_from(["", "\n"]),  # with and without a final newline
).map("".join)


@pytest.fixture()
def faculty_fingerprints(service_client, faculty_population, faculty_auxiliary_table):
    """Register the faculty private + auxiliary tables over HTTP."""
    status, _, body = service_client.post_raw(
        "/datasets?label=faculty", render_csv(faculty_population.private).encode(), "text/csv"
    )
    assert status == 201
    private = json.loads(body)["fingerprint"]
    status, _, body = service_client.post_raw(
        "/datasets", render_csv(faculty_auxiliary_table).encode(), "text/csv"
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

    @pytest.mark.parametrize(
        "query, option",
        [("format=jsonl", "'csv'"), ("mode=async", "'sync'")],
    )
    def test_unsupported_upload_option_is_400(
        self, service_client, simple_table, query, option
    ):
        payload = render_csv(simple_table).encode()
        status, _, body = service_client.post_raw(f"/datasets?{query}", payload, "text/csv")
        assert status == 400
        assert f"the only option is {option}" in json.loads(body)["error"]
        _, listing = service_client.get("/datasets")
        assert listing["datasets"] == []
        # The one supported value is accepted.
        supported = query.split("=")[0] + "=" + option.strip("'")
        status, _, _ = service_client.post_raw(f"/datasets?{supported}", payload, "text/csv")
        assert status == 201

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

    def test_field_over_the_csv_size_limit_is_a_400(self, service_client):
        body = f'name,age\nidentifier:text,quasi_identifier:numeric\n"{"x" * 200_000}",1\n'
        status, _, reply = service_client.post_raw("/datasets", body.encode(), "text/csv")
        assert status == 400
        assert "malformed CSV at line 3" in json.loads(reply)["error"]
        assert service_client.get("/healthz") == (200, {"status": "ok"})

    def test_bare_carriage_return_lines_register_like_read_csv(
        self, service_client, tmp_path
    ):
        document = (
            "name,age\ridentifier:text,quasi_identifier:numeric\rAda,36\rBob,41\r"
        ).encode()
        path = tmp_path / "classic-mac.csv"
        path.write_bytes(document)
        expected = read_csv(path)
        status, _, body = service_client.post_raw("/datasets", document, "text/csv")
        assert status == 201, body
        info = json.loads(body)
        assert info["rows"] == expected.num_rows == 2
        assert info["fingerprint"] == expected.fingerprint

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

    @pytest.mark.parametrize(
        "field, value",
        [("sensitive_low", "abc"), ("sensitive_high", float("inf"))],
    )
    def test_bad_sensitive_bound_is_a_named_400(
        self, service_client, faculty_fingerprints, field, value
    ):
        private, auxiliary = faculty_fingerprints
        status, _, body = service_client.post_json(
            "/attack", {"dataset": private, "auxiliary": auxiliary, "k": 3, field: value}
        )
        assert status == 400
        assert f"{field} must be a finite number" in json.loads(body)["error"]


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("protection_weight", float("nan")),  # sent as the JSON literal NaN
            ("utility_weight", float("inf")),
            pytest.param("utility_weight", 10**400, id="utility_weight-past-float"),
            ("protection_threshold", "high"),
        ],
    )
    def test_bad_fred_number_is_400_before_any_job(
        self, service_client, faculty_fingerprints, field, value
    ):
        private, auxiliary = faculty_fingerprints
        status, _, body = service_client.post_json(
            "/fred", {"dataset": private, "auxiliary": auxiliary, field: value}
        )
        assert status == 400
        assert field in json.loads(body)["error"]
        _, listing = service_client.get("/jobs")
        assert listing["jobs"] == []


class TestReleaseReplies:
    """``/release`` CSV replies are Content-Length framed on every protocol."""

    @staticmethod
    def _release_body(fingerprint: str, k: int = 3) -> bytes:
        return json.dumps({"dataset": fingerprint, "k": k}).encode("utf-8")

    @staticmethod
    def _post_http11(port: int, body: bytes):
        """POST /release over HTTP/1.1 -> (headers, body bytes)."""
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

    @staticmethod
    def _post_http10(port: int, body: bytes):
        """POST /release as HTTP/1.0 over a raw socket -> (header text, body)."""
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

    def test_http11_and_http10_replies_carry_content_length(
        self, service_client, faculty_population
    ):
        service = service_client.server.service
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        body = self._release_body(fingerprint)
        headers, http11 = self._post_http11(service_client.server.port, body)
        header_text, http10 = self._post_http10(service_client.server.port, body)

        expected = bytes(service.release_csv(fingerprint, 3))
        assert "Transfer-Encoding" not in headers
        assert headers["Content-Length"] == str(len(expected))
        assert "Transfer-Encoding" not in header_text
        assert f"Content-Length: {len(expected)}" in header_text
        assert http11 == http10 == expected

    def test_spill_loaded_memoryview_reply(self, tmp_path, faculty_population):
        """A release CSV mapped back from the spill tier is sent as is."""
        from repro.service import AnonymizationService, build_server

        service = AnonymizationService(cache_capacity=1, cache_dir=tmp_path)
        server = build_server(port=0, service=service).serve_in_background()
        try:
            fingerprint = service.register(faculty_population.private)["fingerprint"]
            _, computed = self._post_http11(server.port, self._release_body(fingerprint))
            # With one memory slot, the k = 4 release pushes k = 3 out of
            # memory; its CSV now comes back from the spill container.
            self._post_http11(server.port, self._release_body(fingerprint, k=4))
            disk_hits = service.stats()["cache"]["disk_hits"]
            headers, spilled = self._post_http11(server.port, self._release_body(fingerprint))
            assert service.stats()["cache"]["disk_hits"] == disk_hits + 1
            cached = service.release_csv(fingerprint, 3)
            assert isinstance(cached, memoryview)
            assert headers["Content-Length"] == str(len(cached))
            assert "Transfer-Encoding" not in headers
            assert spilled == computed == bytes(cached)
        finally:
            server.close()

    @pytest.mark.parametrize("disconnect", [BrokenPipeError, ConnectionResetError])
    def test_disconnect_mid_write(self, disconnect):
        """A client hanging up after the headers must not raise out of ``_send``."""
        from types import SimpleNamespace

        from repro.service.http import _Handler

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
        handler.server = SimpleNamespace(verbose=False)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /release HTTP/1.1"
        handler.command = "POST"
        handler.close_connection = False
        # The header flush succeeds; the connection dies while the body goes out.
        handler.wfile = _DyingSocketFile(writes_before_failure=1)
        payload = memoryview(b"x" * (1 << 20))
        handler._send(200, payload, "text/csv")  # must not raise
        assert handler.close_connection is True
        assert len(handler.wfile.written) == 1, "the failure happened mid-reply"
        assert b"Content-Length: 1048576" in handler.wfile.written[0]


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

    @pytest.mark.parametrize(
        "query, option",
        [("format=jsonl", "'csv'"), ("mode=async", "'sync'")],
    )
    def test_unsupported_append_option_is_400(
        self, service_client, simple_table, query, option
    ):
        _, _, body = service_client.post_raw(
            "/datasets", render_csv(simple_table).encode(), "text/csv"
        )
        fingerprint = json.loads(body)["fingerprint"]
        status, _, body = service_client.post_raw(
            f"/append/{fingerprint}?{query}",
            render_csv(simple_table.take([2])).encode(),
            "text/csv",
        )
        assert status == 400
        assert f"the only option is {option}" in json.loads(body)["error"]
        status, info = service_client.get(f"/datasets/{fingerprint}")
        assert status == 200
        assert info["rows"] == simple_table.num_rows
        assert service_client.server.service.list_jobs() == []

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


class TestUploadLineSplitting:
    """``_iter_body_lines`` splits lines after "\n", "\r\n" and bare "\r" only."""

    @given(_body_texts, st.integers(min_value=1, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_yields_exactly_the_newline_split(self, text, chunk_bytes):
        body = text.encode("utf-8")
        lines = list(_iter_body_lines(io.BytesIO(body), len(body), chunk_bytes))
        expected = re.findall(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", text)
        assert lines == expected

    @given(
        _body_texts,
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncated_body_raises(self, text, chunk_bytes, missing):
        body = text.encode("utf-8")
        reader = _iter_body_lines(io.BytesIO(body), len(body) + missing, chunk_bytes)
        with pytest.raises(ServiceError, match="truncated"):
            list(reader)

    @given(
        _body_texts,
        st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
        _body_texts,
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_utf8_raises(self, head, invalid, tail, chunk_bytes):
        body = head.encode("utf-8") + invalid + tail.encode("utf-8")
        reader = _iter_body_lines(io.BytesIO(body), len(body), chunk_bytes)
        with pytest.raises(ServiceError, match="UTF-8"):
            list(reader)
