"""Threaded JSON/HTTP front end of the anonymization service.

A deliberately small stdlib server (``http.server.ThreadingHTTPServer``) —
no web framework is available offline, and none is needed for a JSON API of
this size.  Each request runs on its own thread; all shared state lives in
:class:`~repro.service.core.AnonymizationService`, whose cache serializes
duplicate work (single-flight) while letting distinct requests proceed in
parallel.

Endpoints
---------
=======  =======================  ==================================================
Method   Path                     Meaning
=======  =======================  ==================================================
GET      ``/healthz``             liveness probe
GET      ``/stats``               dataset/cache/job counters
GET      ``/datasets``            registered datasets
POST     ``/datasets``            register a dataset (CSV or JSONL body, streamed)
GET      ``/datasets/<fp>``       one dataset's description
DELETE   ``/datasets/<fp>``       unregister a dataset (frees its registry slot)
POST     ``/append/<fp>``         append rows to a dataset (chained fingerprint;
                                  ``?mode=async`` returns ``202`` + job id)
POST     ``/release``             anonymized release (JSON body; CSV or JSON reply)
POST     ``/attack``              fusion-attack estimates against a release
POST     ``/fred``                launch a FRED sweep job (``202`` + job id)
GET      ``/jobs``                list all known jobs (compact, no results)
GET      ``/jobs/<id>``           poll a job
=======  =======================  ==================================================

Upload streaming: ``POST /datasets`` reads the request body in fixed-size
chunks, decodes it incrementally and feeds *lines* to the streaming parsers
in :mod:`repro.dataset.io` — the full body never needs to exist as one
string, so registration handles datasets much larger than any socket buffer.
The body format is taken from the ``Content-Type`` header
(``text/csv`` / ``application/jsonl``) or a ``?format=`` query parameter.

Response streaming: ``/release`` bodies past ``stream_threshold_bytes`` go
out with ``Transfer-Encoding: chunked`` in fixed-size segments, so peak
memory per connection is bounded by one segment even for a multi-hundred-MB
release — the cached CSV is typically a :class:`memoryview` over the spill
mapping, so the bytes flow from the page cache to the socket without ever
being materialized.  A client that disconnects mid-chunk is dropped cleanly.

One process serves every request: the server's state — the dataset
registry, the artifact cache and the job pool — lives in one
:class:`~repro.service.core.AnonymizationService`, so there is nothing to
share or synchronize across processes.

Library errors map to JSON error responses: :class:`ServiceError` subclasses
for unknown datasets/jobs become ``404``, every other
:class:`~repro.exceptions.ReproError` becomes ``400``; unexpected exceptions
become ``500`` without taking the server down.
"""

from __future__ import annotations

import codecs
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator
from urllib.parse import parse_qs, urlparse

from repro.exceptions import (
    PayloadTooLargeError,
    ReproError,
    ServiceError,
    UnknownDatasetError,
    UnknownJobError,
)
from repro.service.core import AnonymizationService

__all__ = [
    "ServiceServer",
    "build_server",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_STREAM_THRESHOLD_BYTES",
]

#: Upload bodies are read from the socket in chunks of this many bytes.
UPLOAD_CHUNK_BYTES = 64 * 1024

#: Default request-body size limit; requests beyond it get a 413 reply.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Response bodies at or above this size stream out chunked by default.
DEFAULT_STREAM_THRESHOLD_BYTES = 1024 * 1024

#: Segment size of a chunked response body.
STREAM_CHUNK_BYTES = 256 * 1024


def _iter_body_lines(rfile, content_length: int, chunk_bytes: int = UPLOAD_CHUNK_BYTES) -> Iterator[str]:
    """Yield decoded text lines from a request body, reading chunk by chunk.

    Lines are yielded with their trailing newline so the CSV machinery can
    reassemble quoted fields that span physical lines; the final partial line
    (no trailing newline) is yielded last.  Bodies that are not valid UTF-8
    are rejected rather than silently mangled — in a content-addressed store
    a corrupted upload would be cached as canonical forever.
    """
    decoder = codecs.getincrementaldecoder("utf-8")(errors="strict")
    # Each decoded chunk is split once on "\n" (not ``str.splitlines``, which
    # also breaks on \r, \x0b, \u2028, ... and would change the lines a
    # quoted CSV field spans); the unfinished last piece is carried over.
    carry: list[str] = []
    remaining = content_length
    try:
        while remaining > 0:
            chunk = rfile.read(min(chunk_bytes, remaining))
            if not chunk:
                raise ServiceError(
                    f"request body truncated: expected {content_length} bytes, "
                    f"received {content_length - remaining}"
                )
            remaining -= len(chunk)
            *complete, tail = decoder.decode(chunk).split("\n")
            if complete:
                carry.append(complete[0])
                complete[0] = "".join(carry)
                carry.clear()
                for line in complete:
                    yield line + "\n"
            carry.append(tail)
        carry.append(decoder.decode(b"", final=True))
    except UnicodeDecodeError as exc:
        raise ServiceError(f"dataset upload is not valid UTF-8: {exc}") from exc
    last = "".join(carry)
    if last:
        yield last


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the shared :class:`AnonymizationService`."""

    protocol_version = "HTTP/1.1"
    server: "ServiceServer"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - logging side effect only
            super().log_message(format, *args)

    def _send(self, status: int, payload: bytes | memoryview, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if self.close_connection:
                # Error paths may leave unread body bytes on the socket; telling
                # the client the connection is done prevents keep-alive desync.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError, ConnectionError):
            # The client hung up mid-reply.  The response cannot be delivered
            # and the socket is dead, so just mark the connection closed; a
            # traceback here would spam the log for a routine disconnect.
            self.close_connection = True

    def _send_payload(
        self, status: int, payload: bytes | memoryview, content_type: str
    ) -> None:
        """Send a body, streaming it chunked when it is large.

        Bodies at or above the server's ``stream_threshold_bytes`` go out
        with ``Transfer-Encoding: chunked`` in ``STREAM_CHUNK_BYTES``
        segments (HTTP/1.1 clients only — a 1.0 client gets the buffered
        reply), bounding peak per-connection memory: the payload is sliced
        as views, never copied wholesale.
        """
        threshold = self.server.stream_threshold_bytes
        if len(payload) < threshold or self.request_version != "HTTP/1.1":
            self._send(status, payload, content_type)
            return
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Transfer-Encoding", "chunked")
            if self.close_connection:
                # The client asked to close after this reply; say so too.
                self.send_header("Connection", "close")
            self.end_headers()
            view = memoryview(payload)
            for start in range(0, len(view), STREAM_CHUNK_BYTES):
                segment = view[start : start + STREAM_CHUNK_BYTES]
                self.wfile.write(f"{len(segment):X}\r\n".encode("ascii"))
                self.wfile.write(segment)
                self.wfile.write(b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError, ConnectionError):
            # Client disconnected mid-chunk: drop the connection quietly —
            # same contract as the buffered path.
            self.close_connection = True

    def _send_json(self, status: int, document: object) -> None:
        self._send(
            status,
            json.dumps(document).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _content_length(self) -> int:
        """The request's Content-Length as a validated, bounded integer.

        Malformed or negative values are client errors (400), not server
        crashes; values beyond the configured body limit are refused up
        front with 413 instead of streaming an unbounded body into memory.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        try:
            length = int(raw)
        except ValueError:
            raise ServiceError(f"invalid Content-Length header: {raw!r}") from None
        if length < 0:
            raise ServiceError(f"invalid Content-Length header: {raw!r}")
        limit = self.server.max_body_bytes
        if length > limit:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the limit of {limit} bytes"
            )
        return length

    def _read_json_body(self) -> dict:
        length = self._content_length()
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body must be a JSON object")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from exc
        if not isinstance(document, dict):
            raise ServiceError("request body must be a JSON object")
        return document

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except (UnknownDatasetError, UnknownJobError) as error:
            self._send_error_safely(404, str(error))
        except PayloadTooLargeError as error:
            self._send_error_safely(413, str(error))
        except ReproError as error:
            self._send_error_safely(400, str(error))
        except (BrokenPipeError, ConnectionError):  # pragma: no cover - client went away
            self.close_connection = True
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_safely(500, f"internal error: {error}")

    def _send_error_safely(self, status: int, message: str) -> None:
        """Send an error reply, tolerating a client that already hung up.

        Error replies always close the connection: a failure mid-upload can
        leave part of the request body unread, and a kept-alive connection
        would misparse those leftover bytes as the next request.
        """
        self.close_connection = True
        try:
            self._send_error_json(status, message)
        except (BrokenPipeError, ConnectionError, OSError):  # pragma: no cover
            pass

    # -- routing ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_delete)

    def _route_delete(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "datasets":
            self._send_json(200, self.server.service.unregister(parts[1]))
        else:
            self._send_error_json(404, f"unknown path: {parsed.path}")

    def _route_get(self) -> None:
        service = self.server.service
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
        elif parts == ["stats"]:
            self._send_json(200, service.stats())
        elif parts == ["datasets"]:
            self._send_json(200, {"datasets": service.list_datasets()})
        elif len(parts) == 2 and parts[0] == "datasets":
            self._send_json(200, service.dataset_info(parts[1]))
        elif parts == ["jobs"]:
            self._send_json(200, {"jobs": service.list_jobs()})
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_json(200, service.job_status(parts[1]))
        else:
            self._send_error_json(404, f"unknown path: {parsed.path}")

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["datasets"]:
            self._post_dataset(parse_qs(parsed.query))
        elif len(parts) == 2 and parts[0] == "append":
            self._post_append(parts[1], parse_qs(parsed.query))
        elif parts == ["release"]:
            self._post_release()
        elif parts == ["attack"]:
            self._post_attack()
        elif parts == ["fred"]:
            self._post_fred()
        else:
            self._send_error_json(404, f"unknown path: {parsed.path}")

    # -- endpoint bodies --------------------------------------------------------

    def _post_dataset(self, query: dict[str, list[str]]) -> None:
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if query.get("format"):
            fmt = query["format"][0]
        elif content_type in ("application/jsonl", "application/x-ndjson"):
            fmt = "jsonl"
        else:
            fmt = "csv"
        label = query.get("label", [""])[0]
        length = self._content_length()
        if length <= 0:
            raise ServiceError("dataset upload requires a non-empty body")
        lines = _iter_body_lines(self.rfile, length)
        info = self.server.service.register_stream(lines, fmt=fmt, label=label)
        self._send_json(201 if info["created"] else 200, info)

    def _post_append(self, fingerprint: str, query: dict[str, list[str]]) -> None:
        """Stream delta rows onto a registered dataset (see ``append_stream``).

        The body is the same streamed CSV/JSONL as ``POST /datasets``; the
        reply carries the new chained fingerprint and the superseded one.
        ``?mode=async`` submits the append to the job pool instead and
        replies ``202`` with a job id — useful when the invalidation sweep
        over a large spill tier should not hold the upload connection open.
        """
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if query.get("format"):
            fmt = query["format"][0]
        elif content_type in ("application/jsonl", "application/x-ndjson"):
            fmt = "jsonl"
        else:
            fmt = "csv"
        label = query.get("label", [None])[0]
        mode = query.get("mode", ["sync"])[0]
        if mode not in ("sync", "async"):
            raise ServiceError(f"unknown append mode {mode!r}; options: ['sync', 'async']")
        length = self._content_length()
        if length <= 0:
            raise ServiceError("append requires a non-empty body")
        lines = _iter_body_lines(self.rfile, length)
        if mode == "async":
            job_id = self.server.service.start_append(
                fingerprint, lines, fmt=fmt, label=label
            )
            self._send_json(202, {"job": job_id, "poll": f"/jobs/{job_id}"})
            return
        info = self.server.service.append_stream(
            fingerprint, lines, fmt=fmt, label=label
        )
        self._send_json(200, info)

    def _post_release(self) -> None:
        body = self._read_json_body()
        dataset = self._required(body, "dataset")
        k = self._required_int(body, "k")
        algorithm = body.get("algorithm", "mdav")
        style = body.get("style", "interval")
        fmt = body.get("format", "csv")
        if fmt == "csv":
            # The cached CSV bytes — possibly a memoryview over the spill
            # mapping — go straight to the socket, chunked when large.
            payload = self.server.service.release_csv(
                dataset, k, algorithm=algorithm, style=style
            )
            self._send_payload(200, payload, "text/csv; charset=utf-8")
            return
        artifact = self.server.service.release(
            dataset, k, algorithm=algorithm, style=style
        )
        if fmt == "info":
            self._send_json(200, artifact.info())
        elif fmt == "json":
            document = artifact.info()
            document["rows_data"] = [
                {name: _json_cell(value) for name, value in row.items()}
                for row in artifact.table.rows()
            ]
            self._send_json(200, document)
        else:
            raise ServiceError(
                f"unknown release format {fmt!r}; options: ['csv', 'info', 'json']"
            )

    def _post_attack(self) -> None:
        body = self._read_json_body()
        result = self.server.service.attack(
            self._required(body, "dataset"),
            self._required(body, "auxiliary"),
            self._required_int(body, "k"),
            algorithm=body.get("algorithm", "mdav"),
            style=body.get("style", "interval"),
            name_column=body.get("name_column", "name"),
            sensitive_name=body.get("sensitive_name", "sensitive_estimate"),
            sensitive_low=body.get("sensitive_low"),
            sensitive_high=body.get("sensitive_high"),
            engine=body.get("engine", "mamdani"),
        )
        self._send_json(200, result)

    def _post_fred(self) -> None:
        body = self._read_json_body()
        job_id = self.server.service.start_fred(
            self._required(body, "dataset"),
            self._required(body, "auxiliary"),
            kmin=self._int_field(body, "kmin", 2),
            kmax=self._int_field(body, "kmax", 16),
            algorithm=body.get("algorithm", "mdav"),
            name_column=body.get("name_column", "name"),
            sensitive_low=body.get("sensitive_low"),
            sensitive_high=body.get("sensitive_high"),
            protection_weight=self._number_field(body, "protection_weight", 0.5),
            utility_weight=self._number_field(body, "utility_weight", 0.5),
            protection_threshold=body.get("protection_threshold"),
            utility_threshold=body.get("utility_threshold"),
        )
        self._send_json(202, {"job": job_id, "poll": f"/jobs/{job_id}"})

    @staticmethod
    def _required(body: dict, field: str) -> str:
        value = body.get(field)
        if not isinstance(value, str) or not value:
            raise ServiceError(f"request body must set {field!r}")
        return value

    @staticmethod
    def _required_int(body: dict, field: str) -> int:
        value = body.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServiceError(f"request body must set integer {field!r}")
        return value

    @staticmethod
    def _int_field(body: dict, field: str, default: int) -> int:
        value = body.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServiceError(f"field {field!r} must be an integer, got {value!r}")
        return value

    @staticmethod
    def _number_field(body: dict, field: str, default: float) -> float:
        value = body.get(field, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServiceError(f"field {field!r} must be a number, got {value!r}")
        return float(value)


def _json_cell(value: object) -> object:
    """Render a release cell for JSON replies (paper-style text for cells)."""
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    return str(value)


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server bound to one :class:`AnonymizationService`.

    One process, a thread per connection.  ``serve_in_background`` starts
    ``serve_forever`` on a daemon thread and returns, which is how tests,
    benchmarks and the CLI's smoke mode drive it; ``close`` performs the
    clean shutdown sequence (stop accepting, drain the HTTP loop, then drain
    in-flight jobs).
    """

    daemon_threads = True
    # http.server's default listen backlog of 5 drops SYNs when more clients
    # connect at once than the queue holds, and the kernel's 1-second SYN
    # retransmit turns a sub-millisecond cached request into a 1s stall.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: AnonymizationService,
        verbose: bool = False,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        stream_threshold_bytes: int = DEFAULT_STREAM_THRESHOLD_BYTES,
    ) -> None:
        if max_body_bytes < 1:
            raise ServiceError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        if stream_threshold_bytes < 1:
            raise ServiceError(
                f"stream_threshold_bytes must be >= 1, got {stream_threshold_bytes}"
            )
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        self.stream_threshold_bytes = stream_threshold_bytes
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.server_address[1]

    def serve_in_background(self) -> "ServiceServer":
        """Run ``serve_forever`` on a daemon thread and return ``self``."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def close(self, wait_jobs: bool = True) -> None:
        """Stop serving, join the loop, drain service jobs."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()
        self.service.close(wait=wait_jobs)


def build_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    service: AnonymizationService | None = None,
    verbose: bool = False,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    stream_threshold_bytes: int = DEFAULT_STREAM_THRESHOLD_BYTES,
) -> ServiceServer:
    """Construct a :class:`ServiceServer` (and a default service if needed)."""
    return ServiceServer(
        (host, port),
        service if service is not None else AnonymizationService(),
        verbose=verbose,
        max_body_bytes=max_body_bytes,
        stream_threshold_bytes=stream_threshold_bytes,
    )
