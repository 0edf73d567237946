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

Multi-process front: ``ServiceServer(workers=N, config=...)`` binds the
listening socket with ``SO_REUSEPORT`` and pre-forks ``N - 1`` worker
processes (spawn start method) that each bind the *same* address — the
kernel load-balances connections across the processes.  Workers share the
spill directory (and the dataset store under it) as the common cache tier;
the in-memory single-flight tier stays per-process, so each artifact is
computed at most once per process and usually exactly once per cluster
(spill writes are atomic renames, making the cross-process race a benign
double-write).  Asynchronous FRED jobs are **cluster-visible**: every
lifecycle transition is published to the shared job store under the spill
directory (:mod:`repro.service.jobstore`), so ``GET /jobs/<id>`` — and the
``GET /jobs`` listing — is answered correctly by *any* worker, regardless of
which one accepted the submit; owner heartbeats turn a dead worker's
in-flight jobs into ``failed`` instead of an eternal ``running``.  The
``X-Repro-Worker: <pid>`` response header is kept for observability only —
no routing decision depends on it.  Because ``SO_REUSEPORT`` balances per
*connection*, a long keep-alive client rides one worker forever;
``max_keepalive_requests`` (``serve --max-keepalive``) caps the requests per
connection so such clients periodically reconnect and re-balance.

Library errors map to JSON error responses: :class:`ServiceError` subclasses
for unknown datasets/jobs become ``404``, every other
:class:`~repro.exceptions.ReproError` becomes ``400``; unexpected exceptions
become ``500`` without taking the server down.
"""

from __future__ import annotations

import codecs
import json
import multiprocessing
import os
import socket
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
from repro.service.core import AnonymizationService, ServiceConfig

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
    pending = ""
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
            pending += decoder.decode(chunk)
            while True:
                newline = pending.find("\n")
                if newline < 0:
                    break
                yield pending[: newline + 1]
                pending = pending[newline + 1 :]
        pending += decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise ServiceError(f"dataset upload is not valid UTF-8: {exc}") from exc
    if pending:
        yield pending


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
            self.send_header("X-Repro-Worker", str(os.getpid()))
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
            self.send_header("X-Repro-Worker", str(os.getpid()))
            if self.close_connection:
                # The keep-alive request cap (or an earlier error) decided
                # this connection ends after the reply; tell the client.
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
        cap = self.server.max_keepalive_requests
        if cap is not None:
            # SO_REUSEPORT balances per *connection*: a keep-alive client
            # would ride the worker that accepted it forever.  Counting
            # requests per connection and closing at the cap makes long-lived
            # clients reconnect periodically and re-balance across workers.
            served = getattr(self, "_requests_on_connection", 0) + 1
            self._requests_on_connection = served
            if served >= cap:
                self.close_connection = True
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


def _worker_main(
    host: str,
    port: int,
    config: ServiceConfig,
    verbose: bool,
    max_body_bytes: int,
    stream_threshold_bytes: int,
    max_keepalive_requests: int | None,
) -> None:  # pragma: no cover - runs in a spawned worker process
    """Entry point of one spawned worker: build a service, share the port."""
    service = AnonymizationService.from_config(config)
    server = ServiceServer(
        (host, port),
        service,
        verbose=verbose,
        max_body_bytes=max_body_bytes,
        stream_threshold_bytes=stream_threshold_bytes,
        max_keepalive_requests=max_keepalive_requests,
        reuse_port=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close(wait=False)


class ServiceServer(ThreadingHTTPServer):
    """The HTTP server bound to one :class:`AnonymizationService`.

    Single-process by default (one process, a thread per connection).  With
    ``workers=N`` (requires a picklable ``config`` whose ``cache_dir`` is
    set) the listening socket is bound with ``SO_REUSEPORT`` and ``N - 1``
    sibling processes are spawned, each binding the same address and running
    its own service over the shared spill directory.

    ``serve_in_background`` starts ``serve_forever`` on a daemon thread and
    returns, which is how tests, benchmarks and the CLI's smoke mode drive
    it; ``close`` performs the clean shutdown sequence (stop accepting,
    terminate workers, drain the HTTP loop, then drain in-flight jobs).
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
        workers: int = 1,
        config: ServiceConfig | None = None,
        reuse_port: bool = False,
        max_keepalive_requests: int | None = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ServiceError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        if stream_threshold_bytes < 1:
            raise ServiceError(
                f"stream_threshold_bytes must be >= 1, got {stream_threshold_bytes}"
            )
        if max_keepalive_requests is not None and max_keepalive_requests < 1:
            raise ServiceError(
                f"max_keepalive_requests must be >= 1, got {max_keepalive_requests}"
            )
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if workers > 1:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise ServiceError(
                    "multi-process serving requires SO_REUSEPORT, which this "
                    "platform does not provide"
                )
            if config is None or config.cache_dir is None:
                raise ServiceError(
                    "multi-process serving requires a ServiceConfig with a "
                    "cache_dir — the spill directory is the workers' shared "
                    "cache tier"
                )
        self._reuse_port = reuse_port or workers > 1
        super().__init__(address, _Handler, bind_and_activate=False)
        try:
            self.server_bind()
            self.server_activate()
        except BaseException:
            self.server_close()
            raise
        self.service = service
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes
        self.stream_threshold_bytes = stream_threshold_bytes
        self.max_keepalive_requests = max_keepalive_requests
        self.workers = workers
        self._config = config
        self._thread: threading.Thread | None = None
        self._children: list[multiprocessing.process.BaseProcess] = []
        self._children_started = False

    def server_bind(self) -> None:
        if self._reuse_port and hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.server_address[1]

    def start_workers(self) -> None:
        """Spawn the ``workers - 1`` sibling processes (idempotent).

        The spawn start method (not fork) keeps the children independent of
        this process's thread and lock state; each child builds its own
        service from the picklable config and binds the already-bound
        address via ``SO_REUSEPORT``.
        """
        if self._children_started or self.workers <= 1:
            return
        self._children_started = True
        context = multiprocessing.get_context("spawn")
        host = self.server_address[0]
        for _ in range(self.workers - 1):
            process = context.Process(
                target=_worker_main,
                args=(
                    host,
                    self.port,
                    self._config,
                    self.verbose,
                    self.max_body_bytes,
                    self.stream_threshold_bytes,
                    self.max_keepalive_requests,
                ),
                daemon=True,
            )
            process.start()
            self._children.append(process)

    def worker_pids(self) -> list[int]:
        """The pids serving this address (this process plus live children)."""
        pids = [os.getpid()]
        pids.extend(p.pid for p in self._children if p.pid is not None and p.is_alive())
        return pids

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self.start_workers()
        super().serve_forever(poll_interval=poll_interval)

    def serve_in_background(self) -> "ServiceServer":
        """Run ``serve_forever`` on a daemon thread and return ``self``."""
        self.start_workers()
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def close(self, wait_jobs: bool = True) -> None:
        """Stop serving, stop workers, join the loop, drain service jobs."""
        for process in self._children:
            if process.is_alive():
                process.terminate()
        for process in self._children:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=5)
        self._children.clear()
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
    workers: int = 1,
    config: ServiceConfig | None = None,
    max_keepalive_requests: int | None = None,
) -> ServiceServer:
    """Construct a :class:`ServiceServer` (and a default service if needed).

    With ``workers > 1``, ``config`` describes the per-worker services; when
    no explicit ``service`` is passed, this process's service is built from
    the same config, so all workers are identical.
    """
    if service is None:
        service = (
            AnonymizationService.from_config(config)
            if config is not None
            else AnonymizationService()
        )
    return ServiceServer(
        (host, port),
        service,
        verbose=verbose,
        max_body_bytes=max_body_bytes,
        stream_threshold_bytes=stream_threshold_bytes,
        workers=workers,
        config=config,
        max_keepalive_requests=max_keepalive_requests,
    )
