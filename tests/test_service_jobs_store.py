"""The spill-backed job store: cross-worker job visibility and liveness.

These tests drive :class:`repro.service.jobstore.JobStore` directly and
through two :class:`~repro.service.jobs.JobManager` instances sharing one
store — the single-process stand-in for two HTTP workers sharing a spill
directory.  The multi-process end-to-end path (real SO_REUSEPORT workers,
killed owners) lives in ``test_service_multiprocess.py``.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServiceError, UnknownJobError
from repro.service.cache import TwoTierCache
from repro.service.jobs import Job, JobManager
from repro.service.jobstore import JobStore


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs", heartbeat_seconds=0.05, stale_after_seconds=0.4)


class TestJobStoreRoundTrip:
    def test_running_record_round_trips(self, store):
        store.heartbeat(owner=101)
        store.publish(
            {"job": "job-101-1", "description": "fred", "status": "running"}, owner=101
        )
        snapshot = store.load("job-101-1")
        assert snapshot == {
            "job": "job-101-1",
            "description": "fred",
            "kind": "task",
            "status": "running",
            "owner": 101,
        }

    def test_done_result_round_trips_through_the_codec(self, store, tmp_path):
        result = {"levels": np.arange(4096, dtype=np.float64).tolist(), "optimal_level": 3}
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-1", "description": "", "status": "done", "result": result},
            owner=7,
        )
        # The result is stored inline, as the JSON document it already is.
        record = json.loads((tmp_path / "jobs" / "job-7-1.json").read_text())
        assert record["result"] == result
        snapshot = store.load("job-7-1")
        assert snapshot["status"] == "done"
        np.testing.assert_array_equal(snapshot["result"]["levels"], result["levels"])
        assert snapshot["result"]["optimal_level"] == 3

    def test_plain_result_round_trips_inline(self, store, tmp_path):
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-2", "description": "", "status": "done", "result": {"ok": 1}},
            owner=7,
        )
        assert [p.name for p in (tmp_path / "jobs").glob("job-7-2*")] == ["job-7-2.json"]
        assert store.load("job-7-2")["result"] == {"ok": 1}

    def test_compact_load_skips_the_result(self, store):
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-3", "description": "", "status": "done", "result": {"ok": 1}},
            owner=7,
        )
        assert "result" not in store.load("job-7-3", with_result=False)

    def test_unknown_job_is_none(self, store):
        assert store.load("job-404") is None

    def test_malformed_record_is_a_miss(self, store, tmp_path):
        (tmp_path / "jobs" / "job-9-1.json").write_text("{ not json")
        (tmp_path / "jobs" / "job-9-2.json").write_text(json.dumps(["no", "dict"]))
        assert store.load("job-9-1") is None
        assert store.load("job-9-2") is None

    def test_done_record_with_missing_payload_reports_failed(self, store, tmp_path):
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-4", "description": "", "status": "done", "result": {"ok": 1}},
            owner=7,
        )
        path = tmp_path / "jobs" / "job-7-4.json"
        record = json.loads(path.read_text())
        assert record["status"] == "done" and record["result"] == {"ok": 1}
        # A done record without its result (the older two-file layout kept
        # results beside the record) must not read as a null result.
        del record["result"]
        path.write_text(json.dumps(record))
        snapshot = store.load("job-7-4")
        assert snapshot["status"] == "failed"
        assert "holds no result" in snapshot["error"]

    def test_non_json_result_publishes_a_failed_record(self, store):
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-5", "description": "", "status": "done", "result": object()},
            owner=7,
        )
        snapshot = store.load("job-7-5")
        assert snapshot["status"] == "failed"
        assert "not JSON" in snapshot["error"]
        assert "result" not in snapshot

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ServiceError, match="heartbeat"):
            JobStore(tmp_path, heartbeat_seconds=0.0)
        with pytest.raises(ServiceError, match="stale-after"):
            JobStore(tmp_path, heartbeat_seconds=1.0, stale_after_seconds=1.0)
        with pytest.raises(ServiceError, match="retention"):
            JobStore(tmp_path, retention_seconds=-1.0)


class TestStaleOwnerDetection:
    def test_dead_owner_turns_running_into_failed(self, store):
        # Owner 999 never heartbeats: its running job must surface as failed.
        store.publish(
            {"job": "job-999-1", "description": "fred", "status": "running"}, owner=999
        )
        snapshot = store.load("job-999-1")
        assert snapshot["status"] == "failed"
        assert "stopped heartbeating" in snapshot["error"]

    def test_the_failed_verdict_sticks(self, store):
        store.publish({"job": "job-999-2", "description": "", "status": "queued"}, owner=999)
        assert store.load("job-999-2")["status"] == "failed"
        # The rewrite made the verdict durable: even an owner that comes back
        # to life cannot resurrect the job.
        store.heartbeat(owner=999)
        assert store.load("job-999-2")["status"] == "failed"

    def test_live_owner_keeps_running(self, store):
        store.heartbeat(owner=42)
        store.publish({"job": "job-42-1", "description": "", "status": "running"}, owner=42)
        assert store.load("job-42-1")["status"] == "running"

    def test_silence_past_the_stale_window_flips_the_verdict(self, store):
        store.heartbeat(owner=43)
        store.publish({"job": "job-43-1", "description": "", "status": "running"}, owner=43)
        assert store.load("job-43-1")["status"] == "running"
        deadline = time.monotonic() + 10
        while store.load("job-43-1")["status"] == "running":
            assert time.monotonic() < deadline, "stale owner never detected"
            time.sleep(0.05)
        assert store.load("job-43-1")["status"] == "failed"

    def test_terminal_records_never_go_stale(self, store):
        store.publish(
            {"job": "job-999-3", "description": "", "status": "failed", "error": "boom"},
            owner=999,
        )
        snapshot = store.load("job-999-3")
        assert snapshot["status"] == "failed"
        assert snapshot["error"] == "boom"


class TestRetention:
    def test_aged_terminal_records_are_collected(self, tmp_path):
        store = JobStore(tmp_path / "jobs", retention_seconds=0.05)
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-1", "description": "", "status": "done", "result": {"ok": 1}},
            owner=7,
        )
        time.sleep(0.1)
        assert store.collect() == 1
        assert store.load("job-7-1") is None
        assert not list((tmp_path / "jobs").glob("job-7-1*"))

    def test_collect_never_touches_live_records(self, tmp_path):
        store = JobStore(tmp_path / "jobs", retention_seconds=0.0)
        store.heartbeat(owner=7)
        store.publish({"job": "job-7-1", "description": "", "status": "running"}, owner=7)
        time.sleep(0.01)
        assert store.collect() == 0
        assert store.load("job-7-1")["status"] == "running"

    def test_fresh_terminal_records_survive_collect(self, tmp_path):
        store = JobStore(tmp_path / "jobs", retention_seconds=3600.0)
        store.heartbeat(owner=7)
        store.publish(
            {"job": "job-7-1", "description": "", "status": "done", "result": 1}, owner=7
        )
        assert store.collect() == 0
        assert store.load("job-7-1")["status"] == "done"


class TestCrossManagerVisibility:
    """Two managers over one store = two workers sharing a spill dir."""

    def test_a_sibling_manager_answers_polls_for_anothers_job(self, store):
        owner = JobManager(max_workers=1, store=store)
        sibling = JobManager(max_workers=1, store=store)
        try:
            job_id = owner.submit(lambda: {"answer": 42}, description="fred")
            assert job_id.startswith("job-")
            snapshot = sibling.wait(job_id, timeout=30)
            assert snapshot["status"] == "done"
            assert snapshot["result"] == {"answer": 42}
            # And a plain poll (not just wait) resolves through the store too.
            assert sibling.status(job_id)["status"] == "done"
        finally:
            owner.shutdown()
            sibling.shutdown()

    def test_jobs_listing_merges_store_records(self, store):
        owner = JobManager(max_workers=1, store=store)
        sibling = JobManager(max_workers=1, store=store)
        try:
            job_id = owner.submit(lambda: 1, description="fred")
            owner.wait(job_id, timeout=30)
            listed = {snapshot["job"] for snapshot in sibling.jobs()}
            assert job_id in listed
        finally:
            owner.shutdown()
            sibling.shutdown()

    def test_unknown_jobs_still_raise(self, store):
        manager = JobManager(max_workers=1, store=store)
        try:
            with pytest.raises(UnknownJobError):
                manager.status("job-404")
            with pytest.raises(UnknownJobError):
                manager.wait("job-404", timeout=1)
        finally:
            manager.shutdown()

    def test_storeless_managers_keep_sequential_ids(self):
        manager = JobManager(max_workers=1)
        try:
            assert manager.submit(lambda: 1) == "job-1"
            assert manager.submit(lambda: 2) == "job-2"
        finally:
            manager.shutdown()


class TestSnapshotAtomicity:
    """Satellite: a poll can never observe ``done`` without its result."""

    def test_done_is_never_visible_without_its_result(self):
        for _ in range(200):
            job = Job(id="job-1", description="")
            barrier = threading.Barrier(2)

            def flip() -> None:
                barrier.wait()
                job.transition("done", result={"answer": 42})

            thread = threading.Thread(target=flip)
            thread.start()
            barrier.wait()
            for _ in range(20):
                view = job.snapshot()
                if view["status"] == "done":
                    assert view["result"] == {"answer": 42}
            thread.join()

    def test_failed_transition_installs_error_atomically(self):
        job = Job(id="job-1", description="")
        job.transition("failed", error="boom")
        view = job.snapshot()
        assert view["status"] == "failed"
        assert view["error"] == "boom"
        assert "result" not in view


class TestSpillGCExemption:
    """Satellite: cache eviction must never un-exist a live job record."""

    def test_gc_pass_during_an_active_job_leaves_its_record_readable(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        store.heartbeat(owner=7)
        store.publish({"job": "job-7-1", "description": "", "status": "running"}, owner=7)

        # A cache under heavy eviction pressure on the same spill dir: a
        # one-entry budget forces a GC pass after every single spill write.
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path, max_spill_entries=1)
        for i in range(8):
            cache.get_or_compute(("entry", i), lambda i=i: {"payload": "x" * 4096, "i": i})
        assert cache.stats()["spill_evictions"] > 0

        snapshot = store.load("job-7-1")
        assert snapshot is not None and snapshot["status"] == "running"
        # The heartbeat marker survived too — liveness is state, not cache.
        assert store.owner_alive(7)
