"""Unit tests for the two-tier single-flight cache."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import TwoTierCache
from repro.service.codec import encode_entry

#: A probe value with no container encoding, so probing never spills.
_ABSENT = object()


def _cached(cache, key):
    """The value cached under ``key``; fails the test if either tier misses."""
    return cache.get_or_compute(key, lambda: pytest.fail(f"{key!r} must be cached"))


def _absent(cache, key):
    """Whether ``key`` misses both tiers (the probe itself stays in memory)."""
    return cache.get_or_compute(key, lambda: _ABSENT) is _ABSENT


class TestMemoryTier:
    def test_get_or_compute_computes_once(self):
        cache = TwoTierCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute(("k",), lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["computations"] == 1
        assert stats["memory_hits"] == 2

    def test_distinct_keys_compute_independently(self):
        cache = TwoTierCache(capacity=8)
        values = [cache.get_or_compute(("k", i), lambda i=i: i * 10) for i in range(4)]
        assert values == [0, 10, 20, 30]
        assert cache.stats()["computations"] == 4

    def test_lru_eviction_order(self):
        cache = TwoTierCache(capacity=2)
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        cache.get_or_compute(("a",), lambda: 1)  # refresh "a"
        cache.get_or_compute(("c",), lambda: 3)  # evicts "b"
        assert _cached(cache, ("a",)) == 1
        assert _cached(cache, ("c",)) == 3
        assert len(cache) == 2
        assert _absent(cache, ("b",))

    def test_failures_are_not_cached(self):
        cache = TwoTierCache(capacity=4)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("first try fails")
            return "ok"

        with pytest.raises(ValueError):
            cache.get_or_compute(("k",), flaky)
        assert cache.get_or_compute(("k",), flaky) == "ok"
        assert len(attempts) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            TwoTierCache(capacity=0)


class TestDiskTier:
    def test_eviction_survives_via_spill(self, tmp_path):
        cache = TwoTierCache(capacity=1, spill_dir=tmp_path)
        cache.get_or_compute(("a",), lambda: {"payload": 1})
        cache.get_or_compute(("b",), lambda: {"payload": 2})  # evicts "a" from memory
        value = cache.get_or_compute(("a",), lambda: pytest.fail("must hit disk"))
        assert value == {"payload": 1}
        assert cache.stats()["disk_hits"] == 1

    def test_spill_survives_restart(self, tmp_path):
        first = TwoTierCache(capacity=4, spill_dir=tmp_path)
        first.get_or_compute(("k", 3), lambda: [1, 2, 3])
        second = TwoTierCache(capacity=4, spill_dir=tmp_path)
        value = second.get_or_compute(("k", 3), lambda: pytest.fail("must hit disk"))
        assert value == [1, 2, 3]
        assert second.stats()["computations"] == 0

    def test_plain_get_reads_disk(self, tmp_path):
        first = TwoTierCache(capacity=4, spill_dir=tmp_path)
        first.get_or_compute(("k",), lambda: "v")
        second = TwoTierCache(capacity=4, spill_dir=tmp_path)
        assert _cached(second, ("k",)) == "v"
        assert _absent(second, ("missing",))

    def test_spilled_none_is_a_hit_not_a_miss(self, tmp_path):
        """A legitimately cached ``None`` must not be recomputed forever.

        Regression test: ``_load_spilled`` used to signal a miss by returning
        ``None``, so a spilled ``None`` value was indistinguishable from "not
        on disk" and every lookup after eviction (or restart) recomputed it.
        """
        first = TwoTierCache(capacity=4, spill_dir=tmp_path)
        first.get_or_compute(("nothing",), lambda: None)
        second = TwoTierCache(capacity=4, spill_dir=tmp_path)
        calls = []
        value = second.get_or_compute(("nothing",), lambda: calls.append(1))
        assert value is None
        assert calls == [], "spilled None must be served from disk, not recomputed"
        stats = second.stats()
        assert stats["disk_hits"] == 1
        assert stats["computations"] == 0
        # the hit was promoted to memory: the next lookup never touches disk
        assert second.get_or_compute(("nothing",), lambda: calls.append(1)) is None
        assert second.stats()["memory_hits"] == 1

    def test_corrupt_spill_entry_is_ignored(self, tmp_path):
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path)
        cache.get_or_compute(("k",), lambda: "v")
        for entry in tmp_path.glob("*.npc"):
            entry.write_bytes(b"not a container")
        fresh = TwoTierCache(capacity=4, spill_dir=tmp_path)
        assert fresh.get_or_compute(("k",), lambda: "recomputed") == "recomputed"


class TestSingleFlight:
    def test_stampede_coalesces_onto_one_computation(self):
        cache = TwoTierCache(capacity=4)
        started = threading.Barrier(8)
        computing = threading.Event()
        release = threading.Event()
        computations = []

        def compute():
            computations.append(threading.get_ident())
            computing.set()
            release.wait(timeout=30)
            return "expensive"

        results = [None] * 8

        def worker(slot):
            started.wait(timeout=30)
            results[slot] = cache.get_or_compute(("hot",), compute)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        assert computing.wait(timeout=30)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert results == ["expensive"] * 8
        assert len(computations) == 1
        stats = cache.stats()
        assert stats["computations"] == 1
        # The other 7 threads either coalesced onto the in-flight computation
        # or arrived after it finished and hit the memory tier — never a
        # second computation.
        assert stats["coalesced_waits"] + stats["memory_hits"] == 7

    def test_leader_failure_propagates_then_retries(self):
        cache = TwoTierCache(capacity=4)
        gate = threading.Event()
        outcomes = []

        def failing():
            gate.wait(timeout=30)
            raise RuntimeError("boom")

        def worker():
            try:
                cache.get_or_compute(("k",), failing)
            except RuntimeError as error:
                outcomes.append(str(error))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
        # The leader raised; waiters either saw the same error or retried and
        # raised themselves — in every case the error reached all three.
        assert outcomes == ["boom"] * 3
        assert _absent(cache, ("k",))


class TestContainerSpill:
    def _big_table(self):
        from repro.data.census import CensusConfig, generate_census

        return generate_census(CensusConfig(count=2000, seed=11)).private

    def test_large_table_spills_as_container(self, tmp_path):
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path)
        table = self._big_table()
        cache.get_or_compute(("big",), lambda: table)
        assert list(tmp_path.glob("*.npc")), "a large table must spill as a container"
        assert not list(tmp_path.glob("*.pkl"))
        assert cache.stats()["container_spills"] == 1

    def test_container_spill_round_trips_across_restart(self, tmp_path):
        import numpy as np

        table = self._big_table()
        first = TwoTierCache(capacity=4, spill_dir=tmp_path)
        first.get_or_compute(("big",), lambda: table)
        second = TwoTierCache(capacity=4, spill_dir=tmp_path)
        loaded = second.get_or_compute(("big",), lambda: pytest.fail("must hit disk"))
        assert loaded.num_rows == table.num_rows
        for name in table.schema.names:
            a, b = table.column_array(name), loaded.column_array(name)
            if a.dtype == object:
                assert list(a) == list(b)
            else:
                assert np.array_equal(a, b)
        assert second.stats()["disk_hits"] == 1

    def test_small_values_spill_as_container(self, tmp_path):
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path)
        cache.get_or_compute(("small",), lambda: {"payload": 1})
        assert len(list(tmp_path.glob("*.npc"))) == 1
        assert not list(tmp_path.glob("*.pkl"))
        assert cache.stats()["container_spills"] == 1
        fresh = TwoTierCache(capacity=4, spill_dir=tmp_path)
        assert _cached(fresh, ("small",)) == {"payload": 1}

    def test_respill_drops_the_stale_twin(self, tmp_path):
        """A respill replaces the key's one file; no second file ever appears."""
        cache = TwoTierCache(capacity=1, spill_dir=tmp_path)
        cache.get_or_compute(("k",), lambda: {"payload": 1})
        cache.get_or_compute(("evict",), lambda: 0)  # push "k" out of memory
        # Corrupt the entry so the next lookup recomputes with a big value.
        files = sorted(tmp_path.iterdir())
        for entry in files:
            entry.write_bytes(b"not a container")
        table = self._big_table()
        cache.get_or_compute(("k",), lambda: table)  # respills in place
        assert sorted(tmp_path.iterdir()) == files
        assert all(p.suffix == ".npc" for p in files)
        fresh = TwoTierCache(capacity=1, spill_dir=tmp_path)
        assert _cached(fresh, ("k",)).num_rows == table.num_rows

    def test_unencodable_values_stay_in_memory(self, tmp_path):
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path)
        value = [object()]
        assert cache.get_or_compute(("odd",), lambda: value) is value
        assert cache.get_or_compute(("odd",), lambda: pytest.fail("in memory")) is value
        assert not list(tmp_path.iterdir())
        assert cache.stats()["container_spills"] == 0


class TestSpillGarbageCollection:
    def test_byte_budget_evicts_least_recently_used(self, tmp_path):
        import os
        import time

        # Every entry below encodes to the same size: the budget holds three.
        size = len(encode_entry(("k", 0), {"payload": 0}))
        cache = TwoTierCache(capacity=16, spill_dir=tmp_path, max_spill_bytes=3 * size)
        for i in range(6):
            cache.get_or_compute(("k", i), lambda i=i: {"payload": i})
            # Distinct mtimes so LRU order is deterministic.
            for child in tmp_path.glob("*.npc"):
                stamp = child.stat().st_mtime
                os.utime(child, (stamp, stamp))
            time.sleep(0.01)
        files = list(tmp_path.glob("*.npc"))
        assert len(files) == 3
        assert cache.stats()["spill_evictions"] == 3
        # The survivors are the three most recently written entries.
        fresh = TwoTierCache(capacity=16, spill_dir=tmp_path)
        assert _cached(fresh, ("k", 5)) == {"payload": 5}
        assert _absent(fresh, ("k", 0))

    def test_byte_budget_evicts_until_under(self, tmp_path):
        blob = b"z" * 50_000
        cache = TwoTierCache(capacity=16, spill_dir=tmp_path, max_spill_bytes=120_000)
        for i in range(5):
            cache.get_or_compute(("b", i), lambda: blob)
        total = sum(p.stat().st_size for p in tmp_path.iterdir() if p.is_file())
        assert total <= 120_000
        assert cache.stats()["spill_evictions"] >= 2

    def test_loads_refresh_lru_position(self, tmp_path):
        import time

        # Every entry below encodes to the same size: the budget holds two.
        size = len(encode_entry(("a",), "va"))
        cache = TwoTierCache(capacity=1, spill_dir=tmp_path, max_spill_bytes=2 * size)
        cache.get_or_compute(("a",), lambda: "va")
        time.sleep(0.02)
        cache.get_or_compute(("b",), lambda: "vb")  # evicts "a" from memory
        time.sleep(0.02)
        cache.get_or_compute(("a",), lambda: pytest.fail("on disk"))  # touches "a"
        time.sleep(0.02)
        cache.get_or_compute(("c",), lambda: "vc")  # GC must evict "b", not "a"
        fresh = TwoTierCache(capacity=4, spill_dir=tmp_path)
        assert _cached(fresh, ("a",)) == "va"
        assert _cached(fresh, ("c",)) == "vc"
        assert _absent(fresh, ("b",))

    def test_dataset_store_subdirectory_is_never_collected(self, tmp_path):
        store = tmp_path / "datasets"
        store.mkdir()
        keep = store / "fingerprint.npc"
        keep.write_bytes(b"dataset container")
        cache = TwoTierCache(capacity=4, spill_dir=tmp_path, max_spill_bytes=1)
        for i in range(4):
            cache.get_or_compute(("k", i), lambda i=i: i)
        assert keep.exists(), "GC must not descend into the dataset store"

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            TwoTierCache(capacity=4, spill_dir=tmp_path, max_spill_bytes=0)
