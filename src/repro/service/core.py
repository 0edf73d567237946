"""The anonymization service core: registry, cached artifacts, async jobs.

:class:`AnonymizationService` is the framework-free heart of the serving
tier.  It is driven directly by tests and benchmarks and wrapped by the thin
JSON/HTTP layer in :mod:`repro.service.http`:

* **register** a dataset once (from an in-memory table or a streamed CSV
  body) — its :attr:`~repro.dataset.table.Table.fingerprint`
  becomes the dataset id, so registering identical content twice is a no-op;
* request an anonymized **release** at level *k* under any registered
  algorithm (MDAV, Mondrian, Datafly, greedy clustering, plain suppression) —
  releases are memoized in the two-tier cache, so a repeat request is an O(1)
  dictionary hit; a release's CSV bytes are a cache entry of their own,
  rendered on the first fetch, so attack/FRED requests that only need
  estimates never render it, while every client fetching the CSV receives
  byte-identical bytes;
* run the web-based **fusion attack** against a release (memoized the same
  way) — the linkage **harvest** is memoized separately, keyed by
  (identifier-column fingerprint, auxiliary-corpus fingerprint), so repeated
  attack/FRED requests over the same identifiers skip record linkage
  entirely regardless of algorithm, level or engine;
* launch a **FRED sweep** as an asynchronous job on the service's job
  threads and poll it;
* **append** streamed CSV rows onto a registered dataset without
  re-uploading it, synchronously:
  the result is registered under the *chained* content fingerprint
  (:func:`~repro.dataset.table.chain_fingerprints`, O(delta) hashing), the
  old fingerprint leaves the registry, and exactly the cached artifacts
  derived from it are invalidated, in memory and in the spill tier, so the
  service never serves a pre-append release under a post-append identity.

All public methods are thread-safe; the cache's single-flight discipline
guarantees that concurrent identical requests compute each artifact exactly
once (see :mod:`repro.service.cache`).
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.core.objective import WeightedObjective
from repro.dataset.io import render_csv, stream_csv
from repro.dataset.table import Table
from repro.exceptions import ServiceError, UnknownDatasetError
from repro.fusion.attack import AttackConfig, WebFusionAttack, harvest_auxiliary
from repro.fusion.auxiliary import TableAuxiliarySource
from repro.service.cache import TwoTierCache
from repro.service.jobs import JobManager

__all__ = ["AnonymizationService", "ReleaseArtifact", "ALGORITHMS"]


def _suppression_anonymizer() -> DataflyAnonymizer:
    # Pure suppression-to-k: with the suppression budget uncapped, Datafly
    # performs zero generalization steps and suppresses exactly the rows whose
    # verbatim quasi-identifier combination occurs fewer than k times.
    return DataflyAnonymizer(max_suppression_fraction=1.0)


#: Algorithm name -> zero-argument anonymizer factory.
ALGORITHMS: dict[str, Callable[[], object]] = {
    "mdav": MDAVAnonymizer,
    "mondrian": MondrianAnonymizer,
    "datafly": DataflyAnonymizer,
    "greedy-cluster": GreedyClusterAnonymizer,
    "suppression": _suppression_anonymizer,
}

_RELEASE_STYLES = ("interval", "centroid")


def _identifier_fingerprint(names: Sequence[str]) -> str:
    """A stable content fingerprint of an identifier column (sha256 hex).

    Harvests are keyed by this rather than the full dataset fingerprint:
    two datasets sharing an identifier column (e.g. the same people with
    refreshed quasi-identifiers) hit the same cached harvest.
    """
    hasher = hashlib.sha256()
    for name in names:
        encoded = str(name).encode("utf-8", "surrogatepass")
        # Length-prefixed so the encoding is injective even when a name
        # contains NUL bytes (any registered table can hold them).
        hasher.update(len(encoded).to_bytes(8, "big"))
        hasher.update(encoded)
    return hasher.hexdigest()


def _finite_number(value: object, field: str) -> float:
    """``value`` as a float, or a :class:`ServiceError` naming ``field``.

    Request numbers are checked here, before any work is queued: a NaN
    weight would otherwise pick a level from all-NaN scores, and a string
    would fail deep inside a job.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ServiceError(f"{field} must be a finite number, got {value!r}")


@dataclass(frozen=True, eq=False)
class ReleaseArtifact:
    """A memoized release: the anonymized table and its class sizes.

    The artifact holds no rendering.  A release's CSV bytes are a cache entry
    of their own (:meth:`AnonymizationService.release_csv`), so attack and
    FRED requests that only need estimates never render it.  An artifact read
    back from a spilled container (:mod:`repro.service.codec`) arrives with
    its table already decoded: a corrupt container is a cache miss at load
    time, never an artifact that fails on first use.
    """

    dataset: str
    algorithm: str
    k: int
    style: str
    table: Table
    class_sizes: tuple[int, ...]

    @property
    def minimum_class_size(self) -> int:
        """The achieved anonymity (size of the smallest equivalence class)."""
        return min(self.class_sizes)

    def info(self) -> dict[str, object]:
        """JSON-able summary (everything but the payload)."""
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "k": self.k,
            "style": self.style,
            "rows": self.table.num_rows,
            "classes": len(self.class_sizes),
            "minimum_class_size": self.minimum_class_size,
        }


@dataclass(frozen=True)
class _DatasetEntry:
    table: Table
    label: str


class AnonymizationService:
    """Long-lived, thread-safe façade over the anonymization pipeline.

    Parameters
    ----------
    cache_capacity:
        In-memory LRU entry budget of the artifact cache.
    cache_dir:
        Optional spill directory; cached artifacts survive eviction and
        restarts when set.
    job_workers:
        Worker threads executing asynchronous FRED jobs.
    job_retention:
        Maximum finished jobs kept for polling (oldest evicted first).
    max_datasets:
        Optional cap on concurrently registered datasets; registration past
        the cap is rejected with :class:`~repro.exceptions.ServiceError`
        (clients free slots via :meth:`unregister` / ``DELETE /datasets/<fp>``).
        ``None`` (the default) leaves the registry unbounded.
    max_spill_bytes:
        Spill-directory garbage-collection budget, passed through to
        :class:`~repro.service.cache.TwoTierCache`.
    """

    def __init__(
        self,
        cache_capacity: int = 128,
        cache_dir: str | Path | None = None,
        job_workers: int = 2,
        job_retention: int = 256,
        max_datasets: int | None = None,
        max_spill_bytes: int | None = None,
    ) -> None:
        if max_datasets is not None and max_datasets < 1:
            raise ServiceError(f"max datasets must be >= 1, got {max_datasets}")
        self._max_datasets = max_datasets
        self._datasets: dict[str, _DatasetEntry] = {}
        self._datasets_lock = threading.Lock()
        self._cache = TwoTierCache(
            capacity=cache_capacity,
            spill_dir=cache_dir,
            max_spill_bytes=max_spill_bytes,
        )
        self._jobs = JobManager(max_workers=job_workers, max_retained=job_retention)
        # Appends are serialized: two concurrent appends to the same base
        # must chain (A then B), not race (both off A, one lost).
        self._append_lock = threading.Lock()
        self._appends = 0
        self._appended_rows = 0
        self._append_invalidated = 0
        self._closed = False

    # Dataset registry ----------------------------------------------------------

    def register(self, table: Table, label: str = "") -> dict[str, object]:
        """Register an in-memory table; its content fingerprint is the id.

        Registering content that is already present is idempotent (the
        existing entry and ``created=False`` are returned), so many clients
        can upload the same dataset without coordination.
        """
        if table.num_rows == 0:
            raise ServiceError("cannot register an empty dataset")
        fingerprint = table.fingerprint
        with self._datasets_lock:
            existing = self._datasets.get(fingerprint)
            if existing is None:
                if (
                    self._max_datasets is not None
                    and len(self._datasets) >= self._max_datasets
                ):
                    raise ServiceError(
                        f"dataset registry is full ({self._max_datasets} datasets); "
                        "unregister one to free a slot"
                    )
                self._datasets[fingerprint] = _DatasetEntry(table=table, label=label)
                created = True
            else:
                created = False
        info = self._dataset_info(fingerprint)
        info["created"] = created
        return info

    def unregister(self, fingerprint: str) -> dict[str, object]:
        """Remove a registered dataset, releasing its registry slot and memory.

        Cached artifacts derived from the dataset are left in the cache (they
        are keyed by content, so re-registering the same data later still
        hits them); unknown fingerprints raise
        :class:`~repro.exceptions.UnknownDatasetError`.
        """
        with self._datasets_lock:
            entry = self._datasets.pop(fingerprint, None)
        if entry is None:
            raise UnknownDatasetError(f"unknown dataset: {fingerprint!r}")
        return {"fingerprint": fingerprint, "label": entry.label, "removed": True}

    def register_stream(self, lines: Iterable[str], label: str = "") -> dict[str, object]:
        """Register a dataset from streamed CSV text lines."""
        table = stream_csv(lines, source=f"<upload:{label or 'csv'}>")
        return self.register(table, label=label)

    def dataset(self, fingerprint: str) -> Table:
        """The registered table with this fingerprint.

        A fingerprint that an append superseded is no longer registered, so
        it raises :class:`~repro.exceptions.UnknownDatasetError` like any
        unknown one (the append's reply names the successor).
        """
        with self._datasets_lock:
            entry = self._datasets.get(fingerprint)
        if entry is None:
            raise UnknownDatasetError(f"unknown dataset: {fingerprint!r}")
        return entry.table

    def _dataset_info(self, fingerprint: str) -> dict[str, object]:
        with self._datasets_lock:
            entry = self._datasets[fingerprint]
        return {
            "fingerprint": fingerprint,
            "label": entry.label,
            "rows": entry.table.num_rows,
            "columns": list(entry.table.schema.names),
        }

    def dataset_info(self, fingerprint: str) -> dict[str, object]:
        """JSON-able description of one registered dataset."""
        self.dataset(fingerprint)  # raises UnknownDatasetError
        return self._dataset_info(fingerprint)

    def list_datasets(self) -> list[dict[str, object]]:
        """Descriptions of every registered dataset (registration order)."""
        with self._datasets_lock:
            fingerprints = list(self._datasets)
        return [self._dataset_info(fp) for fp in fingerprints]

    # Incremental ingest --------------------------------------------------------

    def append_stream(
        self, fingerprint: str, lines: Iterable[str], label: str | None = None
    ) -> dict[str, object]:
        """Append streamed CSV rows onto a registered dataset.

        The delta's schema must match the base (same names, roles and
        kinds).  See :meth:`append_table` for the identity and invalidation
        semantics.
        """
        delta = stream_csv(lines, source="<append:csv>")
        return self.append_table(fingerprint, delta, label=label)

    def append_table(
        self, fingerprint: str, delta: Table, label: str | None = None
    ) -> dict[str, object]:
        """Append ``delta``'s rows onto the dataset ``fingerprint``.

        The appended table is registered under its *chained* fingerprint
        (``sha256(base_fp ‖ delta_fp)`` — O(delta) hashing, never a rescan of
        the base), and the old fingerprint is **superseded**: it leaves the
        registry, and every cached artifact keyed by it — releases, rendered
        CSVs, attacks, FRED sweeps, in memory and in the spill tier — is
        invalidated.  Artifacts keyed by *content* that did not change
        (e.g. harvests keyed by the identifier-column fingerprint) survive
        untouched.
        """
        if delta.num_rows == 0:
            raise ServiceError("cannot append an empty delta")
        with self._append_lock:
            base = self.dataset(fingerprint)
            appended = base.append(delta)  # TableError on schema mismatch
            new_fingerprint = appended.fingerprint
            with self._datasets_lock:
                old_entry = self._datasets.pop(fingerprint, None)
                if label is None:
                    label = old_entry.label if old_entry is not None else ""
                self._datasets[new_fingerprint] = _DatasetEntry(
                    table=appended, label=label
                )
            invalidated = self._cache.invalidate_fingerprint(fingerprint)
            self._appends += 1
            self._appended_rows += delta.num_rows
            self._append_invalidated += invalidated
        info = self._dataset_info(new_fingerprint)
        info["superseded"] = fingerprint
        info["appended_rows"] = delta.num_rows
        info["invalidated_entries"] = invalidated
        return info

    # Releases ------------------------------------------------------------------

    def release(
        self,
        fingerprint: str,
        k: int,
        algorithm: str = "mdav",
        style: str = "interval",
    ) -> ReleaseArtifact:
        """The anonymized release of a dataset at level ``k`` (memoized)."""
        table = self.dataset(fingerprint)
        if algorithm not in ALGORITHMS:
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; options: {sorted(ALGORITHMS)}"
            )
        if style not in _RELEASE_STYLES:
            raise ServiceError(
                f"unknown release style {style!r}; options: {sorted(_RELEASE_STYLES)}"
            )
        if style == "centroid" and algorithm in ("datafly", "suppression"):
            raise ServiceError(
                f"algorithm {algorithm!r} only supports the 'interval' release style"
            )
        if not isinstance(k, int) or isinstance(k, bool):
            raise ServiceError(f"k must be an integer, got {k!r}")
        key = (fingerprint, "release", algorithm, k, style)
        return self._cache.get_or_compute(
            key, lambda: self._compute_release(table, fingerprint, k, algorithm, style)
        )

    def release_csv(
        self,
        fingerprint: str,
        k: int,
        algorithm: str = "mdav",
        style: str = "interval",
    ) -> bytes | memoryview:
        """The UTF-8 CSV encoding of a release, cached as its own entry.

        This entry is the only owner of the rendered bytes.  A service
        serving a release rendered before a restart maps the spilled bytes (a
        :class:`memoryview` over the container file) and writes them straight
        to the socket — no table rebuild, no re-render, no re-encode.
        """
        self.dataset(fingerprint)  # raises UnknownDatasetError
        key = (fingerprint, "release", algorithm, k, style, "csv")
        return self._cache.get_or_compute(
            key,
            lambda: render_csv(
                self.release(fingerprint, k, algorithm=algorithm, style=style).table
            ).encode("utf-8"),
        )

    def _compute_release(
        self, table: Table, fingerprint: str, k: int, algorithm: str, style: str
    ) -> ReleaseArtifact:
        anonymizer = ALGORITHMS[algorithm]()
        if style != "interval":
            anonymizer.release_style = style
        result = anonymizer.anonymize(table, k)
        return ReleaseArtifact(
            dataset=fingerprint,
            algorithm=algorithm,
            k=k,
            style=style,
            table=result.release,
            class_sizes=tuple(result.class_sizes),
        )

    # Fusion attack -------------------------------------------------------------

    def attack(
        self,
        fingerprint: str,
        auxiliary: str,
        k: int,
        algorithm: str = "mdav",
        style: str = "interval",
        name_column: str = "name",
        sensitive_name: str = "sensitive_estimate",
        sensitive_low: float | None = None,
        sensitive_high: float | None = None,
        engine: str = "mamdani",
    ) -> dict[str, object]:
        """Simulate the fusion attack on a (memoized) release of a dataset.

        ``auxiliary`` is the fingerprint of a registered auxiliary (web)
        dataset keyed by ``name_column``.  The assumed sensitive range
        defaults to the span of the private dataset's sensitive column.
        The full result — per-record estimates and the match rate — is
        memoized under the complete request configuration.
        """
        private = self.dataset(fingerprint)
        self.dataset(auxiliary)  # fail fast on unknown auxiliary
        low, high = self._sensitive_range(private, sensitive_low, sensitive_high)
        key = (
            fingerprint, "attack", auxiliary, algorithm, k, style,
            name_column, sensitive_name, low, high, engine,
        )
        return self._cache.get_or_compute(
            key,
            lambda: self._compute_attack(
                fingerprint, auxiliary, k, algorithm, style,
                name_column, sensitive_name, low, high, engine,
            ),
        )

    def _harvest(
        self, names: Sequence[str], auxiliary: str, name_column: str
    ) -> tuple[TableAuxiliarySource, tuple]:
        """The memoized harvest of ``names`` against a registered auxiliary.

        Keyed by (identifier-column fingerprint, auxiliary-corpus fingerprint,
        name column) — the harvest is independent of anonymization algorithm,
        level and fusion engine, so every attack and FRED request over the
        same identifiers and corpus reuses one linkage pass.  The harvested
        record lists have no container encoding, so the memo lives in the
        memory tier only: loading a spilled harvest costs more than
        recomputing it.
        """
        source = TableAuxiliarySource(
            table=self.dataset(auxiliary), name_column=name_column
        )
        key = (_identifier_fingerprint(names), "harvest", auxiliary, name_column)
        harvest = self._cache.get_or_compute(
            key, lambda: harvest_auxiliary(source, names, source.attribute_names)
        )
        return source, harvest

    def _compute_attack(
        self,
        fingerprint: str,
        auxiliary: str,
        k: int,
        algorithm: str,
        style: str,
        name_column: str,
        sensitive_name: str,
        low: float,
        high: float,
        engine: str,
    ) -> dict[str, object]:
        artifact = self.release(fingerprint, k, algorithm=algorithm, style=style)
        names = [str(n) for n in artifact.table.identifier_column()]
        source, harvest = self._harvest(names, auxiliary, name_column)
        config = AttackConfig(
            release_inputs=tuple(artifact.table.schema.numeric_quasi_identifiers),
            auxiliary_inputs=tuple(source.attribute_names),
            output_name=sensitive_name,
            output_universe=(low, high),
            engine=engine,
        )
        result = WebFusionAttack(source, config).run(artifact.table, harvest=harvest)
        return {
            "dataset": fingerprint,
            "auxiliary": auxiliary,
            "algorithm": algorithm,
            "k": k,
            "engine": engine,
            "names": [str(n) for n in artifact.table.identifier_column()],
            "estimates": [float(v) for v in result.estimates],
            "match_rate": float(result.match_rate),
        }

    def _sensitive_range(
        self, private: Table, low: float | None, high: float | None
    ) -> tuple[float, float]:
        if low is not None:
            low = _finite_number(low, "sensitive_low")
        if high is not None:
            high = _finite_number(high, "sensitive_high")
        if low is None or high is None:
            sensitive = private.sensitive_vector()
            finite = sensitive[np.isfinite(sensitive)]
            if finite.size == 0:
                raise ServiceError(
                    "the sensitive column has no numeric values; pass an "
                    "explicit sensitive_low/sensitive_high range"
                )
            if low is None:
                low = float(np.floor(finite.min()))
            if high is None:
                high = float(np.ceil(finite.max()))
        if low >= high:
            raise ServiceError(
                f"the assumed sensitive range [{low}, {high}] is empty"
            )
        return low, high

    # FRED jobs -----------------------------------------------------------------

    def start_fred(
        self,
        fingerprint: str,
        auxiliary: str,
        kmin: int = 2,
        kmax: int = 16,
        algorithm: str = "mdav",
        name_column: str = "name",
        sensitive_low: float | None = None,
        sensitive_high: float | None = None,
        protection_weight: float = 0.5,
        utility_weight: float = 0.5,
        protection_threshold: float | None = None,
        utility_threshold: float | None = None,
    ) -> str:
        """Launch a FRED sweep as an asynchronous job; returns the job id.

        The sweep result is memoized like any other artifact, so re-running
        an identical job returns instantly with the cached sweep.
        """
        private = self.dataset(fingerprint)
        self.dataset(auxiliary)
        if algorithm not in ALGORITHMS:
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; options: {sorted(ALGORITHMS)}"
            )
        if kmin < 1 or kmax < kmin:
            raise ServiceError(f"invalid level range [{kmin}, {kmax}]")
        low, high = self._sensitive_range(private, sensitive_low, sensitive_high)
        objective = WeightedObjective(
            _finite_number(protection_weight, "protection_weight"),
            _finite_number(utility_weight, "utility_weight"),
        )
        if protection_threshold is not None:
            protection_threshold = _finite_number(
                protection_threshold, "protection_threshold"
            )
        if utility_threshold is not None:
            utility_threshold = _finite_number(utility_threshold, "utility_threshold")
        key = (
            fingerprint, "fred", auxiliary, algorithm, kmin, kmax, name_column,
            low, high, objective.protection_weight, objective.utility_weight,
            protection_threshold, utility_threshold,
        )

        def work() -> dict[str, object]:
            return self._cache.get_or_compute(
                key,
                lambda: self._compute_fred(
                    fingerprint, auxiliary, kmin, kmax, algorithm, name_column,
                    low, high, objective, protection_threshold, utility_threshold,
                ),
            )

        return self._jobs.submit(
            work,
            description=f"fred {fingerprint[:12]} k={kmin}..{kmax} ({algorithm})",
            kind="fred",
        )

    def _compute_fred(
        self,
        fingerprint: str,
        auxiliary: str,
        kmin: int,
        kmax: int,
        algorithm: str,
        name_column: str,
        low: float,
        high: float,
        objective: WeightedObjective,
        protection_threshold: float | None,
        utility_threshold: float | None,
    ) -> dict[str, object]:
        private = self.dataset(fingerprint)
        names = [str(n) for n in private.identifier_column()]
        source, harvest = self._harvest(names, auxiliary, name_column)
        release_view = private.release_view()
        config = AttackConfig(
            release_inputs=tuple(release_view.schema.numeric_quasi_identifiers),
            auxiliary_inputs=tuple(source.attribute_names),
            output_name=private.schema.sensitive_attribute,
            output_universe=(low, high),
            engine="mamdani",
        )
        fred = FREDAnonymizer(
            source,
            config,
            FREDConfig(
                levels=tuple(range(kmin, kmax + 1)),
                protection_threshold=protection_threshold,
                utility_threshold=utility_threshold,
                objective=objective,
                anonymizer=ALGORITHMS[algorithm](),
                stop_below_utility=utility_threshold is not None,
            ),
        )
        result = fred.run(private, harvest=harvest)
        payload = result.to_dict()
        payload["dataset"] = fingerprint
        payload["auxiliary"] = auxiliary
        payload["algorithm"] = algorithm
        return payload

    def job_status(self, job_id: str) -> dict[str, object]:
        """Snapshot of one asynchronous job."""
        return self._jobs.status(job_id)

    def list_jobs(self) -> list[dict[str, object]]:
        """Compact snapshots of every known job.

        Result payloads are omitted — listing is a cheap overview; poll
        ``job_status`` for a specific job's result.
        """
        return [
            {k: v for k, v in snapshot.items() if k != "result"}
            for snapshot in self._jobs.jobs()
        ]

    def wait_for_job(self, job_id: str, timeout: float | None = None) -> dict[str, object]:
        """Block until a job finishes and return its snapshot (for tests/CLI)."""
        return self._jobs.wait(job_id, timeout=timeout)

    # Lifecycle / introspection -------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Service counters: datasets, cache behaviour, appends, job states."""
        with self._datasets_lock:
            dataset_count = len(self._datasets)
        jobs = self._jobs.jobs()
        return {
            "pid": os.getpid(),
            "datasets": dataset_count,
            "cache": self._cache.stats(),
            "appends": {
                "count": self._appends,
                "rows": self._appended_rows,
                "invalidated_entries": self._append_invalidated,
            },
            "jobs": {
                "total": len(jobs),
                "by_status": {
                    status: sum(1 for j in jobs if j["status"] == status)
                    for status in sorted({str(j["status"]) for j in jobs})
                },
            },
        }

    def close(self, wait: bool = True) -> None:
        """Shut the service down, draining in-flight jobs when ``wait`` is set."""
        if self._closed:
            return
        self._closed = True
        self._jobs.shutdown(wait=wait)
