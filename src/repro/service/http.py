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
POST     ``/datasets``            register a dataset (CSV body, streamed)
GET      ``/datasets/<fp>``       one dataset's description
DELETE   ``/datasets/<fp>``       unregister a dataset (frees its registry slot)
POST     ``/append/<fp>``         append CSV rows to a dataset (chained fingerprint)
POST     ``/release``             anonymized release (JSON body; CSV or JSON reply)
POST     ``/attack``              fusion-attack estimates against a release
POST     ``/fred``                launch a FRED sweep job (``202`` + job id)
GET      ``/jobs``                list all known jobs (compact, no results)
GET      ``/jobs/<id>``           poll a job
=======  =======================  ==================================================

Upload streaming: ``POST /datasets`` and ``POST /append/<fp>`` read the
request body in fixed-size chunks, decode it incrementally and feed *lines*
to :func:`~repro.dataset.io.stream_csv` — the full body never needs to
exist as one string, so registration handles datasets much larger than any
socket buffer.  CSV is the only upload format and appends are synchronous:
a ``?format=`` other than ``csv`` or a ``?mode=`` other than ``sync`` is a
``400`` naming the supported option.

Replies: every body goes out with a ``Content-Length``.  The handler's
``wfile`` is unbuffered (``StreamRequestHandler.wbufsize = 0``), so a body
is written with one ``socket.sendall``; a cached ``/release`` CSV that is a
:class:`memoryview` over the spill mapping therefore flows from the page
cache to the socket without being copied.  A client that disconnects
mid-reply is dropped cleanly.

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

import io
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
]

#: Upload bodies are read from the socket in chunks of this many bytes.
UPLOAD_CHUNK_BYTES = 64 * 1024

#: Default request-body size limit; requests beyond it get a 413 reply.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


class _BoundedBody(io.RawIOBase):
    """The first ``length`` bytes of a request body, read ``chunk_bytes`` at a time.

    A body shorter than its ``Content-Length`` raises :class:`ServiceError`.
    """

    def __init__(self, rfile, length: int, chunk_bytes: int) -> None:
        self._rfile = rfile
        self._length = length
        self._remaining = length
        self._chunk_bytes = chunk_bytes

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._remaining <= 0:
            return 0
        chunk = self._rfile.read(min(len(buffer), self._chunk_bytes, self._remaining))
        if not chunk:
            raise ServiceError(
                f"request body truncated: expected {self._length} bytes, "
                f"received {self._length - self._remaining}"
            )
        buffer[: len(chunk)] = chunk
        self._remaining -= len(chunk)
        return len(chunk)


def _iter_body_lines(rfile, content_length: int, chunk_bytes: int = UPLOAD_CHUNK_BYTES) -> Iterator[str]:
    """Yield decoded text lines from a request body, reading chunk by chunk.

    Lines end where :func:`~repro.dataset.io.read_csv` ends them: the text
    layer runs with ``newline=""``, so ``"\n"``, ``"\r\n"`` and a bare
    ``"\r"`` each end a line and are kept on it, and the CSV machinery can
    reassemble quoted fields that span physical lines.  Bodies that are not
    valid UTF-8 are rejected rather than silently mangled — in a
    content-addressed store a corrupted upload would be cached as canonical
    forever.
    """
    text = io.TextIOWrapper(
        io.BufferedReader(_BoundedBody(rfile, content_length, chunk_bytes), chunk_bytes),
        encoding="utf-8",
        errors="strict",
        newline="",
    )
    try:
        yield from text
    except UnicodeDecodeError as exc:
        raise ServiceError(f"dataset upload is not valid UTF-8: {exc}") from exc


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the shared :class:`AnonymizationService`."""

    protocol_version = "HTTP/1.1"
    server: "ServiceServer"

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - logging side effect only
            super().log_message(format, *args)

    def _send(self, status: int, payload: bytes | memoryview, content_type: str) -> None:
        """Send one reply framed by ``Content-Length``.

        ``wfile`` is unbuffered, so the body is one ``sendall`` of
        ``payload`` as given: a memoryview over a spill mapping is not copied.
        """
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

    def _upload_lines(self, query: dict[str, list[str]], what: str) -> Iterator[str]:
        """The CSV request body as streamed lines, after the option checks."""
        for name, supported in (("format", "csv"), ("mode", "sync")):
            for value in query.get(name, ()):
                if value != supported:
                    raise ServiceError(
                        f"unsupported {name} {value!r}; the only option is {supported!r}"
                    )
        length = self._content_length()
        if length <= 0:
            raise ServiceError(f"{what} requires a non-empty body")
        return _iter_body_lines(self.rfile, length, UPLOAD_CHUNK_BYTES)

    def _post_dataset(self, query: dict[str, list[str]]) -> None:
        label = query.get("label", [""])[0]
        lines = self._upload_lines(query, "dataset upload")
        info = self.server.service.register_stream(lines, label=label)
        self._send_json(201 if info["created"] else 200, info)

    def _post_append(self, fingerprint: str, query: dict[str, list[str]]) -> None:
        """Stream delta rows onto a registered dataset (see ``append_stream``).

        The body is the same streamed CSV as ``POST /datasets``; the reply
        carries the new chained fingerprint and the superseded one.
        """
        label = query.get("label", [None])[0]
        lines = self._upload_lines(query, "append")
        self._send_json(200, self.server.service.append_stream(fingerprint, lines, label=label))

    def _post_release(self) -> None:
        body = self._read_json_body()
        dataset = self._required(body, "dataset")
        k = self._required_int(body, "k")
        algorithm = body.get("algorithm", "mdav")
        style = body.get("style", "interval")
        fmt = body.get("format", "csv")
        if fmt == "csv":
            # The cached CSV bytes — possibly a memoryview over the spill
            # mapping — go to the socket in one sendall, uncopied.
            payload = self.server.service.release_csv(
                dataset, k, algorithm=algorithm, style=style
            )
            self._send(200, payload, "text/csv; charset=utf-8")
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
            protection_weight=body.get("protection_weight", 0.5),
            utility_weight=body.get("utility_weight", 0.5),
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
    ) -> None:
        if max_body_bytes < 1:
            raise ServiceError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
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
) -> ServiceServer:
    """Construct a :class:`ServiceServer` (and a default service if needed)."""
    return ServiceServer(
        (host, port),
        service if service is not None else AnonymizationService(),
        verbose=verbose,
        max_body_bytes=max_body_bytes,
    )
