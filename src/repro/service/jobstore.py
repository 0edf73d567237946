"""Durable, spill-dir-backed job records shared across worker processes.

The multi-process HTTP front (:class:`~repro.service.http.ServiceServer` with
``workers > 1``) load-balances *connections*, not clients: a ``POST /fred``
and the ``GET /jobs/<id>`` polls that follow it routinely land on different
worker processes.  The in-process :class:`~repro.service.jobs.JobManager`
alone cannot answer those polls, so every lifecycle transition of a job is
also published here — one compact record per job in a ``jobs/`` area of the
shared spill directory — and any worker can serve any poll from the shared
records.

Layout (under the store root, itself a subdirectory of the spill dir so the
cache's LRU collector — which only touches top-level ``.npc`` files — can
never evict a job record)::

    jobs/<job-id>.json          the job record, with a ``done`` job's result
                                inline (atomic temp-file + rename)
    jobs/owners/<pid>           heartbeat file of one owning worker process

A job's result is the JSON document ``GET /jobs/<id>`` returns anyway, so a
record that claims ``done`` carries its result in the same atomic write
(crash windows leave a stale ``running`` record instead, which heartbeat
staleness converts to ``failed``).  A result that is not JSON publishes a
``failed`` record saying so.

**Stale-job detection.**  Each owning worker touches its heartbeat file every
``heartbeat_seconds`` while its job manager is open.  A reader that finds a
non-terminal record whose owner has not heartbeat within
``stale_after_seconds`` (or whose heartbeat file is gone) reports the job as
``failed`` with an explanatory error — and rewrites the record so the verdict
sticks — instead of letting clients poll ``running`` forever after a worker
died mid-sweep.

**Retention.**  Terminal records (``done`` / ``failed`` / ``cancelled``) are
garbage-collected once they have been terminal for ``retention_seconds``;
non-terminal records are never collected, so a live job cannot be un-existed
by cleanup, mirroring the cache GC's exemption of the ``datasets/`` store.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.exceptions import ServiceError

__all__ = ["JobStore", "TERMINAL_STATUSES"]

#: Statuses after which a job record never changes again.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Default seconds between owner heartbeats.
DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Default seconds of heartbeat silence after which an owner counts as dead.
DEFAULT_STALE_AFTER_SECONDS = 10.0

#: Default seconds a terminal record is kept for polling before collection.
DEFAULT_RETENTION_SECONDS = 3600.0


class JobStore:
    """Shared on-disk job records: any worker can answer any job poll.

    All writes are atomic (temp file + ``os.replace``) and all reads treat
    malformed or mid-replacement files as absent, so the store needs no
    cross-process locking — exactly like the cache spill it lives beside.
    Every method is best-effort on I/O errors except :meth:`load`, which
    degrades to "record not found" rather than raising.
    """

    def __init__(
        self,
        root: str | Path,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
        stale_after_seconds: float = DEFAULT_STALE_AFTER_SECONDS,
        retention_seconds: float = DEFAULT_RETENTION_SECONDS,
    ) -> None:
        if heartbeat_seconds <= 0:
            raise ServiceError(
                f"heartbeat interval must be positive, got {heartbeat_seconds}"
            )
        if stale_after_seconds <= heartbeat_seconds:
            raise ServiceError(
                "the stale-after window must exceed the heartbeat interval "
                f"({stale_after_seconds} <= {heartbeat_seconds})"
            )
        if retention_seconds < 0:
            raise ServiceError(
                f"retention must be >= 0 seconds, got {retention_seconds}"
            )
        self.root = Path(root)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.stale_after_seconds = float(stale_after_seconds)
        self.retention_seconds = float(retention_seconds)
        self._owners = self.root / "owners"
        self._owners.mkdir(parents=True, exist_ok=True)

    # Paths ---------------------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _owner_path(self, owner: int) -> Path:
        return self._owners / str(owner)

    @staticmethod
    def _write_atomic(path: Path, payload: bytes) -> None:
        temp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            temp.write_bytes(payload)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)

    # Heartbeats ----------------------------------------------------------------

    def heartbeat(self, owner: int) -> None:
        """Refresh the owner's liveness marker (create it if needed)."""
        path = self._owner_path(owner)
        try:
            os.utime(path)
        except FileNotFoundError:
            try:
                path.touch()
            except OSError:  # pragma: no cover - best-effort marker
                pass
        except OSError:  # pragma: no cover - best-effort marker
            pass

    def owner_alive(self, owner: int) -> bool:
        """Whether the owner heartbeat is fresher than the stale window."""
        try:
            mtime = self._owner_path(owner).stat().st_mtime
        except OSError:
            return False
        return (time.time() - mtime) <= self.stale_after_seconds

    # Publishing ----------------------------------------------------------------

    def publish(self, snapshot: dict[str, object], owner: int) -> None:
        """Write one lifecycle transition to the shared store (best-effort).

        ``snapshot`` is a :meth:`~repro.service.jobs.Job.snapshot` dict; a
        ``done`` snapshot's ``result`` goes into the record itself, so a
        reader can never observe ``done`` without its payload.
        """
        record = dict(snapshot)
        record["owner"] = int(owner)
        record["updated"] = time.time()
        try:
            try:
                payload = json.dumps(record)
            except (TypeError, ValueError) as exc:
                record.pop("result", None)
                record["status"] = "failed"
                record["error"] = f"the job's result is not JSON: {exc}"
                payload = json.dumps(record)
            self._write_atomic(
                self._record_path(str(snapshot["job"])), payload.encode("utf-8")
            )
            if record["status"] in TERMINAL_STATUSES:
                self.collect()
        except (OSError, TypeError, ValueError):
            # Publishing is best-effort: the owning process still answers its
            # own polls from memory; a lost record costs cross-worker
            # visibility, never correctness of the local job plane.
            pass

    # Reading -------------------------------------------------------------------

    def load(self, job_id: str, with_result: bool = True) -> dict[str, object] | None:
        """The stored snapshot of ``job_id``, or ``None`` if unknown.

        Non-terminal records whose owner stopped heartbeating come back as
        ``failed`` (with an explanatory ``error``), and the verdict is
        written back so later polls — on any worker — see a terminal job.
        """
        record = self._read_record(self._record_path(job_id))
        if record is None:
            return None
        status = record.get("status")
        owner = record.get("owner")
        if status not in TERMINAL_STATUSES and not self.owner_alive(int(owner or -1)):
            record["status"] = "failed"
            record["error"] = (
                f"worker {owner} stopped heartbeating while the job was "
                f"{status}; the job is presumed lost"
            )
            # Make the verdict sticky so every later poll is terminal too.
            # Racing pollers write identical content; the dead owner cannot
            # contradict it.
            try:
                stamped = dict(record)
                stamped["updated"] = time.time()
                self._write_atomic(
                    self._record_path(job_id), json.dumps(stamped).encode("utf-8")
                )
            except (OSError, TypeError, ValueError):
                pass
            return self._snapshot_from(record)
        snapshot = self._snapshot_from(record)
        if status == "done" and with_result:
            if "result" in record:
                snapshot["result"] = record["result"]
            else:  # e.g. written by a version that kept results in side files
                snapshot["status"] = "failed"
                snapshot["error"] = "the job finished but its record holds no result"
        return snapshot

    @staticmethod
    def _snapshot_from(record: dict[str, object]) -> dict[str, object]:
        snapshot: dict[str, object] = {
            "job": record.get("job"),
            "description": record.get("description", ""),
            "kind": record.get("kind", "task"),
            "status": record.get("status"),
            "owner": record.get("owner"),
        }
        if record.get("error") is not None:
            snapshot["error"] = record["error"]
        return snapshot

    @staticmethod
    def _read_record(path: Path) -> dict[str, object] | None:
        try:
            record = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "job" not in record or "status" not in record:
            return None
        return record

    def list(self) -> list[dict[str, object]]:
        """Compact snapshots of every stored job (no result payloads).

        Stale non-terminal records are reported (and rewritten) as ``failed``,
        exactly like :meth:`load`.  Order is stable: sorted by job id.
        """
        snapshots = []
        try:
            paths = sorted(self.root.glob("*.json"))
        except OSError:
            return []
        for path in paths:
            snapshot = self.load(path.stem, with_result=False)
            if snapshot is not None:
                snapshots.append(snapshot)
        return snapshots

    # Retention -----------------------------------------------------------------

    def collect(self) -> int:
        """Drop terminal records older than the retention window.

        Non-terminal records are never touched — a record can only age out
        *after* it went terminal, so collection can never un-exist a live
        job.  Returns the number of records removed.
        """
        removed = 0
        horizon = time.time() - self.retention_seconds
        try:
            paths = list(self.root.glob("*.json"))
        except OSError:
            return 0
        for path in paths:
            record = self._read_record(path)
            if record is None or record.get("status") not in TERMINAL_STATUSES:
                continue
            updated = record.get("updated")
            if not isinstance(updated, (int, float)) or updated >= horizon:
                continue
            path.unlink(missing_ok=True)
            removed += 1
        return removed

