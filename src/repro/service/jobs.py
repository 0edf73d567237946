"""Asynchronous job execution for long-running service work (FRED sweeps).

A FRED sweep simulates the fusion attack at every anonymization level and can
run for minutes on a large dataset — far too long to hold an HTTP request
open.  The service therefore runs sweeps as **jobs**: ``POST /fred`` enqueues
the sweep on a shared worker pool and returns a job id immediately; clients
poll ``GET /jobs/<id>`` until the status reaches ``done`` (or ``failed``).

The pool is a plain ``concurrent.futures.ThreadPoolExecutor`` and each job
runs its sweep serially: the service's concurrency comes from these job
threads and from the server's worker processes, and forking a per-sweep
process pool from a threaded server risks deadlocks.
:meth:`JobManager.shutdown` drains in-flight jobs before
returning (and cancels queued ones when asked not to wait), which is what
makes service shutdown clean under load.

Cross-worker visibility: with a :class:`~repro.service.jobstore.JobStore`
attached (the service wires one up whenever it has a spill directory), every
lifecycle transition is also published as a durable record in the shared
``jobs/`` area, job ids are qualified by the owning pid so sibling workers
never collide, and :meth:`JobManager.status` falls back to the shared store
on a local miss — so ``GET /jobs/<id>`` is answered correctly by *any*
worker of a multi-process front, not just the one that accepted the submit.
A heartbeat thread keeps the owner's liveness marker fresh; if the owner
dies mid-job, the store reports the job ``failed`` instead of leaving
clients polling ``running`` forever.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ServiceError, UnknownJobError
from repro.service.jobstore import TERMINAL_STATUSES, JobStore

__all__ = ["Job", "JobManager"]

#: Lifecycle: queued -> running -> done | failed (cancelled only at shutdown).
_STATUSES = ("queued", "running", "done", "failed", "cancelled")


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

    Without a store, job ids are sequential (``job-1``, ``job-2``, ...) so
    tests and logs stay deterministic.  With a shared
    :class:`~repro.service.jobstore.JobStore` attached the ids are qualified
    by the owning pid (``job-<pid>-1``, ...) — sibling worker processes of a
    multi-process front share one id namespace and must not collide — and
    every transition is published to the store so any worker can answer any
    poll.  Results must be JSON-able when the job is served over HTTP; the
    manager itself stores whatever the callable returns.

    Retention is bounded: at most ``max_retained`` *finished* (done / failed /
    cancelled) jobs are kept in memory for polling, oldest evicted first — a
    long-lived service must not accumulate every result payload forever.
    Queued and running jobs are never evicted.  Polling an evicted job falls
    back to the shared store (which has its own, time-based retention);
    a job found in neither place raises
    :class:`~repro.exceptions.UnknownJobError`, exactly like a job that
    never existed.
    """

    def __init__(
        self,
        max_workers: int = 2,
        max_retained: int = 256,
        store: JobStore | None = None,
    ) -> None:
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
        self._store = store
        self._owner = os.getpid()
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        if store is not None:
            store.heartbeat(self._owner)
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-job-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    def _heartbeat_loop(self) -> None:
        assert self._store is not None
        while not self._stop_heartbeat.wait(self._store.heartbeat_seconds):
            self._store.heartbeat(self._owner)

    def _publish(self, job: Job) -> None:
        if self._store is not None:
            self._store.publish(job.snapshot(), self._owner)

    def submit(
        self, work: Callable[[], object], description: str = "", kind: str = "task"
    ) -> str:
        """Enqueue ``work`` and return its job id.

        ``kind`` labels the job family (``"fred"``, ``"append"``, ...) in
        every snapshot and stored record, so clients and operators can tell
        sweep jobs from ingest jobs without parsing descriptions.

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
            if self._store is not None:
                job_id = f"job-{self._owner}-{self._counter}"
            else:
                job_id = f"job-{self._counter}"
            job = Job(id=job_id, description=description, kind=kind)
            self._jobs[job.id] = job
            self._evict_finished_locked()
            try:
                self._pool.submit(self._run, job, work)
            except RuntimeError as error:  # pragma: no cover - defensive
                job.transition("cancelled")
                job._done.set()
                raise ServiceError("the job manager is shut down") from error
        self._publish(job)
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
        self._publish(job)
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
            self._publish(job)
            job._done.set()

    def status(self, job_id: str) -> dict[str, object]:
        """The JSON-able snapshot of job ``job_id`` (local, then shared store)."""
        job = self._get(job_id)
        if job is not None:
            return job.snapshot()
        if self._store is not None:
            snapshot = self._store.load(job_id)
            if snapshot is not None:
                return snapshot
        raise UnknownJobError(f"unknown job: {job_id!r}")

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, object]:
        """Block until job ``job_id`` finishes (or ``timeout``), then snapshot it.

        Jobs owned by another worker (known only through the shared store)
        are polled until their stored record goes terminal — which includes
        the stale-owner verdict, so waiting on a dead worker's job returns
        ``failed`` rather than blocking forever.
        """
        job = self._get(job_id)
        if job is not None:
            if not job._done.wait(timeout):
                raise ServiceError(f"job {job_id} did not finish within {timeout}s")
            return job.snapshot()
        if self._store is not None:
            deadline = None if timeout is None else time.monotonic() + timeout
            interval = min(0.1, self._store.heartbeat_seconds)
            while True:
                snapshot = self._store.load(job_id)
                if snapshot is None:
                    break
                if snapshot["status"] in TERMINAL_STATUSES:
                    return snapshot
                if deadline is not None and time.monotonic() >= deadline:
                    raise ServiceError(
                        f"job {job_id} did not finish within {timeout}s"
                    )
                time.sleep(interval)
        raise UnknownJobError(f"unknown job: {job_id!r}")

    def jobs(self) -> list[dict[str, object]]:
        """Snapshots of every known job: local first, then store-only jobs.

        Local jobs appear with their full snapshot (including results);
        jobs known only through the shared store appear as the store's
        compact records — result payloads stay on disk until a targeted
        :meth:`status` asks for one.
        """
        with self._lock:
            snapshots = [job.snapshot() for job in self._jobs.values()]
        if self._store is not None:
            local_ids = {snapshot["job"] for snapshot in snapshots}
            for record in self._store.list():
                if record["job"] not in local_ids:
                    snapshots.append(record)
        return snapshots

    def _get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

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
                    self._publish(job)
        self._stop_heartbeat.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
