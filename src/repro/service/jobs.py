"""Asynchronous job execution for long-running service work (FRED sweeps).

A FRED sweep simulates the fusion attack at every anonymization level and can
run for minutes on a large dataset — far too long to hold an HTTP request
open.  The service therefore runs sweeps as **jobs**: ``POST /fred`` enqueues
the sweep on a shared worker pool and returns a job id immediately; clients
poll ``GET /jobs/<id>`` until the status reaches ``done`` (or ``failed``).

The pool is a plain ``concurrent.futures.ThreadPoolExecutor`` and each job
runs its sweep serially: the service's concurrency comes from these job
threads and the server's request threads, and forking a per-sweep process
pool from a threaded server risks deadlocks.
:meth:`JobManager.shutdown` drains in-flight jobs before returning (and
cancels queued ones when asked not to wait), which is what makes service
shutdown clean under load.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ServiceError, UnknownJobError

__all__ = ["Job", "JobManager", "TERMINAL_STATUSES"]

#: Lifecycle: queued -> running -> done | failed (cancelled only at shutdown).
_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Statuses after which a job never changes again.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One asynchronous unit of work and its observable state.

    Status, result and error are mutated by the worker thread and read by
    HTTP threads; every transition and every :meth:`snapshot` goes through
    ``_mutex`` so a poll can never observe a torn state — in particular,
    never ``status: "done"`` without its ``result``.
    """

    id: str
    description: str
    kind: str = "task"
    status: str = "queued"
    result: object = None
    error: str | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def transition(
        self, status: str, result: object = None, error: str | None = None
    ) -> None:
        """Atomically move to ``status``, installing result/error with it."""
        with self._mutex:
            self.status = status
            if result is not None:
                self.result = result
            if error is not None:
                self.error = error

    def snapshot(self) -> dict[str, object]:
        """A JSON-able view of the job (what ``GET /jobs/<id>`` returns)."""
        with self._mutex:
            status = self.status
            result = self.result
            error = self.error
        view: dict[str, object] = {
            "job": self.id,
            "description": self.description,
            "kind": self.kind,
            "status": status,
        }
        if status == "done":
            view["result"] = result
        if error is not None:
            view["error"] = error
        return view


class JobManager:
    """Submit callables to a bounded worker pool and track their lifecycle.

    Job ids are sequential (``job-1``, ``job-2``, ...) so tests and logs stay
    deterministic.  Results must be JSON-able when the job is served over
    HTTP; the manager itself stores whatever the callable returns.

    Retention is bounded: at most ``max_retained`` *finished* (done / failed /
    cancelled) jobs are kept for polling, oldest evicted first — a long-lived
    service must not accumulate every result payload forever.  Queued and
    running jobs are never evicted.  Polling an evicted job raises
    :class:`~repro.exceptions.UnknownJobError`, exactly like a job that
    never existed.
    """

    def __init__(self, max_workers: int = 2, max_retained: int = 256) -> None:
        if max_workers < 1:
            raise ServiceError(f"job workers must be >= 1, got {max_workers}")
        if max_retained < 1:
            raise ServiceError(f"retained jobs must be >= 1, got {max_retained}")
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._counter = 0
        self._max_retained = max_retained
        self._closed = False

    def submit(
        self, work: Callable[[], object], description: str = "", kind: str = "task"
    ) -> str:
        """Enqueue ``work`` and return its job id.

        ``kind`` labels the job family (the service submits ``"fred"``
        sweeps) in every snapshot, so clients and operators can tell job
        families apart without parsing descriptions.

        The pool submission happens under the manager lock: ``shutdown`` also
        flips ``_closed`` under that lock before shutting the pool down, so a
        submit that passed the closed check always reaches the pool first and
        can never observe a shut-down executor (which would strand the job in
        ``queued`` forever).
        """
        with self._lock:
            if self._closed:
                raise ServiceError("the job manager is shut down")
            self._counter += 1
            job = Job(id=f"job-{self._counter}", description=description, kind=kind)
            self._jobs[job.id] = job
            self._evict_finished_locked()
            try:
                self._pool.submit(self._run, job, work)
            except RuntimeError as error:  # pragma: no cover - defensive
                job.transition("cancelled")
                job._done.set()
                raise ServiceError("the job manager is shut down") from error
        return job.id

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished jobs beyond the retention budget."""
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in TERMINAL_STATUSES
        ]
        for job_id in finished[: max(0, len(finished) - self._max_retained)]:
            del self._jobs[job_id]

    def _run(self, job: Job, work: Callable[[], object]) -> None:
        job.transition("running")
        try:
            result = work()
        except BaseException as error:
            message = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            job.transition("failed", error=message)
        else:
            job.transition("done", result=result)
        finally:
            job._done.set()

    def status(self, job_id: str) -> dict[str, object]:
        """The JSON-able snapshot of job ``job_id``."""
        return self._require(job_id).snapshot()

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, object]:
        """Block until job ``job_id`` finishes (or ``timeout``), then snapshot it."""
        job = self._require(job_id)
        if not job._done.wait(timeout):
            raise ServiceError(f"job {job_id} did not finish within {timeout}s")
        return job.snapshot()

    def jobs(self) -> list[dict[str, object]]:
        """Snapshots of every retained job, oldest first."""
        with self._lock:
            return [job.snapshot() for job in self._jobs.values()]

    def _require(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job: {job_id!r}")
        return job

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; drain in-flight work when ``wait`` is set.

        With ``wait=False`` queued-but-unstarted jobs are cancelled (their
        status becomes ``cancelled``); jobs already running still run to
        completion — Python threads cannot be interrupted safely.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [job for job in self._jobs.values() if job.status == "queued"]
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        if not wait:
            for job in pending:
                if job.status == "queued":
                    job.transition("cancelled")
                    job._done.set()
