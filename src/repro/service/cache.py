"""Two-tier result cache with single-flight computation.

The anonymization service memoizes every expensive artifact — releases,
attack estimates, FRED sweeps — by a structured key built from the dataset's
content fingerprint plus the full request configuration
(``(fingerprint, artifact, algorithm, level, config...)``).  The cache has
two tiers:

* an **in-process LRU** bounded by entry count (the hot tier every request
  hits first);
* an optional **on-disk spill** directory holding one ``<sha256>.npc``
  container (:mod:`repro.service.codec`) per entry, named by the sha256 of
  the cache key, so results survive LRU eviction and process restarts.
  Array payloads load back as zero-copy views over one memory mapping.
  Values the codec cannot express stay in the memory tier only.  Writes
  are atomic (temp file + rename), so a crash never leaves a torn entry,
  and nothing is ever unpickled.

The spill directory is optionally garbage-collected: give the cache a
``max_spill_bytes`` / ``max_spill_entries`` budget and the least recently
*used* files (by mtime — loads touch the file) are evicted after each spill
write.  Evicting a file that a loaded entry still maps is safe: the mapping
keeps the pages alive until released.

Concurrency: lookups and computations go through :meth:`TwoTierCache.get_or_compute`,
which implements **single-flight** semantics — when N threads miss on the
same key simultaneously, exactly one of them (the *leader*) computes the
value while the rest wait on it, so a cache stampede can never run the same
anonymization twice.  Failures are propagated to every waiter but are *not*
cached; a later request retries the computation.  The counters exposed by
:meth:`TwoTierCache.stats` make the exactly-once property observable (and
testable): ``computations`` counts actual executions, ``coalesced_waits``
counts requests that piggybacked on another thread's in-flight computation.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, TypeVar

from repro.exceptions import ServiceError
from repro.service.codec import (
    SPILL_CONTAINER_SUFFIX,
    decode_entry,
    encode_entry,
    read_key,
)

__all__ = ["TwoTierCache"]

T = TypeVar("T")

#: Cache keys are flat tuples of primitives so they hash, order and
#: serialize deterministically.
CacheKey = tuple


class _InFlight:
    """A computation in progress: waiters block on ``event`` for the outcome."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class TwoTierCache:
    """In-process LRU + optional on-disk spill, with single-flight computes.

    Parameters
    ----------
    capacity:
        Maximum number of entries held in memory; the least recently used
        entry is evicted first.  Evicted entries remain retrievable from the
        spill directory when one is configured.
    spill_dir:
        Optional directory for the persistent tier.  Each entry is one
        ``.npc`` container named by the sha256 of the key, written
        atomically (temp file + rename), so concurrent writers and abrupt
        shutdowns never leave a torn entry.
    max_spill_bytes / max_spill_entries:
        Optional garbage-collection budget for the spill directory.  After
        each spill write, the least recently used files (by mtime; loads
        touch) are deleted until both limits hold.  ``None`` (the default)
        leaves that dimension unbounded.
    """

    def __init__(
        self,
        capacity: int = 128,
        spill_dir: str | Path | None = None,
        max_spill_bytes: int | None = None,
        max_spill_entries: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        if max_spill_bytes is not None and max_spill_bytes < 1:
            raise ServiceError(f"max spill bytes must be >= 1, got {max_spill_bytes}")
        if max_spill_entries is not None and max_spill_entries < 1:
            raise ServiceError(f"max spill entries must be >= 1, got {max_spill_entries}")
        self._capacity = capacity
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self._spill_dir is not None:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._max_spill_bytes = max_spill_bytes
        self._max_spill_entries = max_spill_entries
        self._lock = threading.Lock()
        self._memory: OrderedDict[CacheKey, object] = OrderedDict()
        self._inflight: dict[CacheKey, _InFlight] = {}
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._computations = 0
        self._coalesced_waits = 0
        self._container_spills = 0
        self._spill_evictions = 0
        self._invalidations = 0

    # Lookup / computation ------------------------------------------------------

    def get(self, key: CacheKey) -> object | None:
        """The cached value for ``key`` (memory, then disk), or ``None``."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self._memory_hits += 1
                return self._memory[key]
        found, value = self._load_spilled(key)
        if found:
            with self._lock:
                self._disk_hits += 1
                self._store_memory(key, value)
        return value

    def get_or_compute(self, key: CacheKey, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it at most once.

        Concurrent callers with the same key coalesce onto a single
        computation; callers with different keys proceed independently.  The
        computation runs outside the cache lock, so a slow anonymization
        never blocks unrelated lookups.
        """
        while True:
            with self._lock:
                if key in self._memory:
                    self._memory.move_to_end(key)
                    self._memory_hits += 1
                    return self._memory[key]  # type: ignore[return-value]
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    self._coalesced_waits += 1
                    leader = False
            if not leader:
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                if flight.value is not _SENTINEL:
                    return flight.value  # type: ignore[return-value]
                continue  # leader aborted without a value; retry
            try:
                found, value = self._load_spilled(key)
                if found:
                    with self._lock:
                        self._disk_hits += 1
                else:
                    with self._lock:
                        self._misses += 1
                    value = compute()
                    with self._lock:
                        self._computations += 1
                    self._spill(key, value)
                with self._lock:
                    self._store_memory(key, value)
                    del self._inflight[key]
                flight.value = value
                flight.event.set()
                return value  # type: ignore[return-value]
            except BaseException as error:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.value = _SENTINEL
                flight.error = error
                flight.event.set()
                raise

    # Introspection -------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict[str, int]:
        """Counter snapshot proving cache behaviour (hits, misses, coalescing)."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._memory),
                "memory_hits": self._memory_hits,
                "disk_hits": self._disk_hits,
                "misses": self._misses,
                "computations": self._computations,
                "coalesced_waits": self._coalesced_waits,
                "container_spills": self._container_spills,
                "spill_evictions": self._spill_evictions,
                "invalidations": self._invalidations,
            }

    def clear(self) -> None:
        """Drop the in-memory tier (spilled entries are kept)."""
        with self._lock:
            self._memory.clear()

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry whose key mentions ``fingerprint``, both tiers.

        Appending rows to a dataset supersedes its fingerprint; this removes
        every artifact derived from it — in-memory entries plus spilled
        containers — so neither tier can serve a stale artifact for it, not
        even after a restart.  Spilled keys are read from the container
        manifests alone (no value is decoded); unreadable files are left
        alone.  Returns the number of entries removed, counted once per tier.
        """
        removed = 0
        with self._lock:
            stale = [
                key
                for key in self._memory
                if isinstance(key, tuple) and fingerprint in key
            ]
            for key in stale:
                del self._memory[key]
            removed += len(stale)
        for path in self._spill_files():
            key = read_key(path)
            if key is not None and fingerprint in key:
                path.unlink(missing_ok=True)
                removed += 1
        with self._lock:
            self._invalidations += removed
        return removed

    # Internals -----------------------------------------------------------------

    def _store_memory(self, key: CacheKey, value: object) -> None:
        """Install ``value`` under ``key`` and evict LRU overflow.  Lock held."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self._capacity:
            self._memory.popitem(last=False)

    def _spill_path(self, key: CacheKey) -> Path:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        assert self._spill_dir is not None
        return self._spill_dir / f"{digest}{SPILL_CONTAINER_SUFFIX}"

    def _spill_files(self) -> list[Path]:
        """The top-level container files of the spill directory.

        The cache writes nothing else there: in-flight temp files carry
        another suffix, and subdirectories are never entered.
        """
        if self._spill_dir is None:
            return []
        try:
            return [
                child
                for child in self._spill_dir.iterdir()
                if child.suffix == SPILL_CONTAINER_SUFFIX and child.is_file()
            ]
        except OSError:
            return []

    def _spill(self, key: CacheKey, value: object) -> None:
        """Persist an entry as one container (best-effort).

        Any failure — including a value with no container encoding
        (:class:`TypeError`) — leaves the memory tier as the only copy.
        """
        if self._spill_dir is None:
            return
        path = self._spill_path(key)
        temp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            temp.write_bytes(encode_entry(key, value))
            os.replace(temp, path)
            with self._lock:
                self._container_spills += 1
            self._collect_spill()
        except (OSError, TypeError, ValueError):
            temp.unlink(missing_ok=True)  # the memory tier holds the value

    def _load_spilled(self, key: CacheKey) -> tuple[bool, object | None]:
        """Load the spilled entry for ``key`` as a ``(found, value)`` pair.

        The explicit hit flag keeps a legitimately cached ``None`` value
        distinguishable from a miss — returning the bare value would make
        every lookup of such an entry recompute (and re-spill) it forever.
        Hits touch the file's mtime, making the GC order least-recently-used
        rather than least-recently-written.
        """
        if self._spill_dir is None:
            return False, None
        path = self._spill_path(key)
        ok, stored_key, value = decode_entry(path)
        if not ok or stored_key != key:  # miss, corrupt, or sha collision
            return False, None
        self._touch(path)
        return True, value

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _collect_spill(self) -> None:
        """Evict least-recently-used spill files until the budget holds.

        Only the top-level cache containers are LRU candidates (see
        :meth:`_spill_files`).
        """
        if self._max_spill_bytes is None and self._max_spill_entries is None:
            return
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for child in self._spill_files():
            try:
                stat = child.stat()
            except OSError:
                continue  # concurrently evicted or invalidated
            entries.append((stat.st_mtime, stat.st_size, child))
            total += stat.st_size
        entries.sort(key=lambda item: item[0])
        count = len(entries)
        for _, size, child in entries:
            within_entries = self._max_spill_entries is None or count <= self._max_spill_entries
            within_bytes = self._max_spill_bytes is None or total <= self._max_spill_bytes
            if within_entries and within_bytes:
                break
            # Unlinking a file a loaded entry still maps is safe: the
            # mapping holds the pages until the last view is released.
            child.unlink(missing_ok=True)
            count -= 1
            total -= size
            with self._lock:
                self._spill_evictions += 1


class _Sentinel:
    __slots__ = ()


#: Marks an in-flight slot whose leader failed (waiters retry or re-raise).
_SENTINEL = _Sentinel()
