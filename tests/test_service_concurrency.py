"""Concurrency suite: exactly-once computation, byte-identical responses,
clean shutdown.

This is the hardening pass locking in the serving tier's concurrency
contract:

* N threads hammering the *same* ``(fingerprint, level)`` key receive
  byte-identical releases produced by exactly one computation (no cache
  stampede);
* threads hammering *different* keys trigger exactly one computation per
  key;
* the same guarantees hold end to end over HTTP with ≥ 8 parallel clients;
* shutdown with in-flight jobs drains them cleanly (``close`` returns only
  after running jobs finished, and their results remain pollable).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import UnknownJobError
from repro.service import AnonymizationService
from repro.service.jobs import Job, JobManager

CLIENTS = 8


@pytest.fixture()
def registered(service, faculty_population):
    fingerprint = service.register(faculty_population.private)["fingerprint"]
    return service, fingerprint


class TestExactlyOnceComputation:
    def test_same_key_hammered_by_n_threads(self, registered):
        service, fingerprint = registered
        barrier = threading.Barrier(CLIENTS)

        def request(_):
            barrier.wait(timeout=30)
            artifact = service.release(fingerprint, 4, algorithm="mdav")
            return artifact, service.release_csv(fingerprint, 4, algorithm="mdav")

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            outcomes = list(pool.map(request, range(CLIENTS)))

        texts = {bytes(csv) for _, csv in outcomes}
        assert len(texts) == 1, "concurrent identical requests must agree byte for byte"
        assert len({id(artifact) for artifact, _ in outcomes}) == 1, (
            "all callers must receive the single cached artifact object"
        )
        assert len({id(csv) for _, csv in outcomes}) == 1, (
            "all callers must receive the single cached CSV bytes object"
        )
        # One release plus its one CSV rendering.
        assert service.stats()["cache"]["computations"] == 2

    def test_distinct_keys_compute_once_each(self, registered):
        service, fingerprint = registered
        levels = [2, 3, 4, 5]
        requests = [(level, repeat) for level in levels for repeat in range(4)]
        barrier = threading.Barrier(len(requests))

        def request(job):
            level, _ = job
            barrier.wait(timeout=30)
            return level, bytes(service.release_csv(fingerprint, level))

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            outcomes = list(pool.map(request, requests))

        by_level: dict[int, set[str]] = {}
        for level, text in outcomes:
            by_level.setdefault(level, set()).add(text)
        assert all(len(texts) == 1 for texts in by_level.values())
        assert len({next(iter(t)) for t in by_level.values()}) == len(levels)
        # One release and one CSV rendering per level.
        assert service.stats()["cache"]["computations"] == 2 * len(levels)

    def test_mixed_algorithms_under_load(self, registered):
        service, fingerprint = registered
        jobs = [("mdav", 3), ("mondrian", 3), ("greedy-cluster", 3), ("mdav", 5)] * 3
        barrier = threading.Barrier(len(jobs))

        def request(job):
            algorithm, level = job
            barrier.wait(timeout=30)
            return job, bytes(service.release_csv(fingerprint, level, algorithm=algorithm))

        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            outcomes = list(pool.map(request, jobs))

        texts_by_key: dict[tuple, set[str]] = {}
        for key, text in outcomes:
            texts_by_key.setdefault(key, set()).add(text)
        assert all(len(texts) == 1 for texts in texts_by_key.values())
        # One release and one CSV rendering per distinct job.
        assert service.stats()["cache"]["computations"] == 2 * len(set(jobs))


class TestHTTPConcurrency:
    def test_eight_parallel_clients_get_identical_bytes(
        self, service_client, faculty_population
    ):
        from repro.dataset.io import render_csv

        status, _, body = service_client.post_raw(
            "/datasets", render_csv(faculty_population.private).encode(), "text/csv"
        )
        assert status == 201
        import json

        fingerprint = json.loads(body)["fingerprint"]
        barrier = threading.Barrier(CLIENTS)

        def request(_):
            barrier.wait(timeout=30)
            status, _, payload = service_client.post_json(
                "/release", {"dataset": fingerprint, "k": 4}
            )
            return status, payload

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            responses = list(pool.map(request, range(CLIENTS)))

        assert all(status == 200 for status, _ in responses)
        payloads = {payload for _, payload in responses}
        assert len(payloads) == 1, "parallel HTTP clients must receive identical bytes"
        # Two single-flight entries: the artifact plus its CSV byte cache.
        assert service_client.server.service.stats()["cache"]["computations"] == 2


class TestCleanShutdown:
    def test_close_waits_for_in_flight_jobs(self):
        manager = JobManager(max_workers=2)
        job_started = threading.Event()
        job_may_finish = threading.Event()

        def slow_job():
            job_started.set()
            assert job_may_finish.wait(timeout=30)
            return {"done": True}

        job_id = manager.submit(slow_job, description="slow")
        assert job_started.wait(timeout=30)

        closed = threading.Event()

        def close():
            manager.shutdown(wait=True)
            closed.set()

        closer = threading.Thread(target=close)
        closer.start()
        assert not closed.wait(timeout=0.2), "shutdown must wait for the running job"
        job_may_finish.set()
        closer.join(timeout=30)
        assert closed.is_set()
        snapshot = manager.status(job_id)
        assert snapshot["status"] == "done"
        assert snapshot["result"] == {"done": True}

    def test_service_close_drains_fred_job(
        self, faculty_population, faculty_auxiliary_table
    ):
        service = AnonymizationService(job_workers=2)
        fingerprint = service.register(faculty_population.private)["fingerprint"]
        auxiliary = service.register(faculty_auxiliary_table)["fingerprint"]
        job = service.start_fred(fingerprint, auxiliary, kmin=2, kmax=2)
        service.close(wait=True)  # must block until the sweep finished
        snapshot = service.job_status(job)
        assert snapshot["status"] == "done"
        assert snapshot["result"]["optimal_level"] == 2

    def test_finished_jobs_are_evicted_beyond_retention(self):
        from repro.exceptions import UnknownJobError

        manager = JobManager(max_workers=1, max_retained=2)
        job_ids = [manager.submit(lambda i=i: i) for i in range(5)]
        for job_id in job_ids:
            manager.wait(job_id, timeout=30)
        # one more submission triggers eviction of the oldest finished jobs
        trigger = manager.submit(lambda: "last")
        manager.wait(trigger, timeout=30)
        retained = {snapshot["job"] for snapshot in manager.jobs()}
        assert trigger in retained
        assert len(retained) <= 3  # 2 retained finished + the trigger
        with pytest.raises(UnknownJobError):
            manager.status(job_ids[0])
        manager.shutdown()

    def test_non_waiting_shutdown_cancels_queued_jobs(self):
        manager = JobManager(max_workers=1)
        running = threading.Event()
        release = threading.Event()

        def blocker():
            running.set()
            release.wait(timeout=30)
            return "ran"

        first = manager.submit(blocker)
        assert running.wait(timeout=30)
        queued = [manager.submit(lambda: "never") for _ in range(3)]
        manager.shutdown(wait=False)
        release.set()
        manager.wait(first, timeout=30)
        assert manager.status(first)["status"] == "done"
        for job_id in queued:
            assert manager.wait(job_id, timeout=30)["status"] == "cancelled"


class TestJobIds:
    def test_storeless_managers_keep_sequential_ids(self):
        manager = JobManager(max_workers=1)
        try:
            assert manager.submit(lambda: 1) == "job-1"
            assert manager.submit(lambda: 2) == "job-2"
        finally:
            manager.shutdown()

    def test_unknown_jobs_still_raise(self):
        manager = JobManager(max_workers=1)
        try:
            with pytest.raises(UnknownJobError):
                manager.status("job-404")
            with pytest.raises(UnknownJobError):
                manager.wait("job-404", timeout=1)
        finally:
            manager.shutdown()


class TestSnapshotAtomicity:
    """A poll can never observe ``done`` without its result."""

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
