"""Benchmark: columnar anonymization pipeline vs the seed's list-backed loops.

The seed stored ``Table`` columns as ``list[object]`` and ran the whole
release-production half of FRED in interpreted Python: ``numeric_column``
resolved cells one by one, MDAV kept a ``remaining`` Python list
(``list.index`` / ``list.remove`` per grouped record, a fresh fancy-indexed
subset and a full stable argsort per group), ``build_release`` visited every
quasi-identifier cell through ``table.cell``, equivalence classes were
recovered by hashing a per-row signature tuple, and the utility metrics
iterated class lists in Python.  The columnar core stores typed numpy arrays,
partitions with a compacted point matrix + ``np.partition`` group selection,
generalizes one cell per (class, column) pair, and extracts classes with
``np.unique`` over encoded signature columns.

``test_columnar_speedup_vs_seed_pipeline`` is the acceptance gate: on a
20k-record census-like table the columnar pipeline must anonymize (MDAV,
k=25) **and** score (equivalence classes, discernibility utility, generalized
information loss, re-identification risk) **at least 5x faster** than the
seed implementation, while producing the identical partition and release.
Set ``REPRO_BENCH_QUICK=1`` for the reduced CI smoke variant (2k records,
gate at 1.5x).

The seed pipeline is re-implemented here from the original code paths (the
list-backed ``Table`` and loops no longer exist in the tree) so the baseline
stays honest as the core evolves.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.anonymize.kanonymity import release_class_labels
from repro.anonymize.mdav import MDAVAnonymizer
from repro.data.census import CensusConfig, generate_census
from repro.dataset.generalization import (
    Interval,
    Suppressed,
    cover_values,
    numeric_representative,
)
from repro.dataset.statistics import standardize_matrix
from repro.metrics.privacy import reidentification_risk
from repro.metrics.utility import discernibility_utility, generalized_information_loss

# The partition helper shared with the golden tests lives in tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from partitions import classes_of  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
RECORD_COUNT = 2_000 if QUICK else 20_000
K = 10 if QUICK else 25
REQUIRED_SPEEDUP = 1.5 if QUICK else 5.0


# --------------------------------------------------------------------------
# The seed implementation: list-backed table + per-row/py-loop pipeline.
# --------------------------------------------------------------------------


class _SeedTable:
    """The seed's list-backed table: every column a ``list[object]``."""

    def __init__(self, schema, columns):
        self.schema = schema
        self._columns = {name: list(columns[name]) for name in schema.names}
        self.num_rows = len(next(iter(self._columns.values()))) if self._columns else 0

    def column(self, name):
        return list(self._columns[name])

    def cell(self, index, name):
        if name not in self._columns:
            raise KeyError(name)
        if not 0 <= index < self.num_rows:
            raise IndexError(index)
        return self._columns[name][index]

    def numeric_column(self, name):
        return np.array(
            [numeric_representative(v) for v in self._columns[name]], dtype=float
        )

    def quasi_identifier_matrix(self):
        names = self.schema.numeric_quasi_identifiers
        return np.column_stack([self.numeric_column(name) for name in names])


def _seed_sq_distances(points, reference):
    deltas = points - reference
    return np.einsum("ij,ij->i", deltas, deltas)


def _seed_take_group(points, remaining, anchor_global, k):
    subset = points[remaining]
    anchor_local = remaining.index(anchor_global)
    distances = _seed_sq_distances(subset, points[anchor_global])
    distances[anchor_local] = -1.0
    order = np.argsort(distances, kind="stable")
    group = [remaining[int(i)] for i in order[:k]]
    for idx in group:
        remaining.remove(idx)
    return group


def _seed_farthest_from(points, remaining, reference):
    subset = points[remaining]
    return remaining[int(np.argmax(_seed_sq_distances(subset, reference)))]


def _seed_mdav_groups(points, k):
    remaining = list(range(points.shape[0]))
    groups = []
    while len(remaining) >= 3 * k:
        centroid = points[remaining].mean(axis=0)
        r_global = _seed_farthest_from(points, remaining, centroid)
        r_point = points[r_global].copy()
        groups.append(_seed_take_group(points, remaining, r_global, k))
        s_global = _seed_farthest_from(points, remaining, r_point)
        groups.append(_seed_take_group(points, remaining, s_global, k))
    if len(remaining) >= 2 * k:
        centroid = points[remaining].mean(axis=0)
        r_global = _seed_farthest_from(points, remaining, centroid)
        groups.append(_seed_take_group(points, remaining, r_global, k))
    if remaining:
        groups.append(list(remaining))
    return groups


def _seed_build_release(table, classes, k):
    release_names = [
        n for n in table.schema.names if n not in table.schema.sensitive_attributes
    ]
    qi_names = [n for n in release_names if table.schema[n].is_quasi_identifier]
    new_columns = {name: table.column(name) for name in release_names}
    for indices in classes:
        for name in qi_names:
            values = [table.cell(i, name) for i in indices]
            generalized = cover_values(values)
            for i in indices:
                new_columns[name][i] = generalized
    return _SeedTable(table.schema.drop(list(table.schema.sensitive_attributes)), new_columns)


def _seed_cell_signature(value):
    if isinstance(value, Interval):
        return ("interval", value.low, value.high)
    if isinstance(value, Suppressed):
        return ("suppressed",)
    if isinstance(value, float) and value.is_integer():
        return ("value", int(value))
    return ("value", value)


def _seed_equivalence_classes(release):
    qi_names = release.schema.quasi_identifiers
    groups = {}
    for i in range(release.num_rows):
        signature = tuple(
            _seed_cell_signature(release.cell(i, name)) for name in qi_names
        )
        groups.setdefault(signature, []).append(i)
    return [tuple(indices) for indices in groups.values()]


def _seed_metrics(private, release, classes, k):
    total_records = private.num_rows
    cost = 0.0
    for indices in classes:
        size = len(indices)
        cost += float(size) ** 2 if size >= k else float(total_records) * float(size)
    utility = 1.0 / cost

    total = 0.0
    cells = 0
    for name in private.schema.numeric_quasi_identifiers:
        column = private.numeric_column(name)
        column_range = float(column.max() - column.min()) or 1.0
        for i in range(release.num_rows):
            value = release.cell(i, name)
            if isinstance(value, Interval):
                total += value.width / column_range
            elif isinstance(value, Suppressed):
                total += 1.0
            cells += 1
    loss = total / cells

    risk = float(sum(len(c) * (1.0 / len(c)) for c in classes) / total_records)
    return utility, loss, risk


def _seed_pipeline(table, k):
    """The seed's end-to-end anonymize + score path."""
    matrix = table.quasi_identifier_matrix()
    standardized, _, _ = standardize_matrix(matrix)
    groups = _seed_mdav_groups(standardized, k)
    classes = [tuple(sorted(group)) for group in groups]
    release = _seed_build_release(table, classes, k)
    recovered = _seed_equivalence_classes(release)
    utility, loss, risk = _seed_metrics(table, release, recovered, k)
    return classes, release, (utility, loss, risk)


# --------------------------------------------------------------------------
# The columnar pipeline under test.
# --------------------------------------------------------------------------


def _columnar_pipeline(table, k):
    result = MDAVAnonymizer().anonymize(table, k)
    recovered = release_class_labels(result.release)
    utility = discernibility_utility(np.bincount(recovered), table.num_rows, k)
    loss = generalized_information_loss(table, result.release)
    risk = reidentification_risk(recovered)
    return result, (utility, loss, risk)


def _best_of(repeats, fn, *args):
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def _best_interleaved(repeats, first, second):
    """Best wall-clock of each of two thunks, measured in interleaved pairs.

    Interleaving makes the *ratio* robust to transient machine load: a spike
    hitting only one side of a back-to-back measurement skews the gate, while
    with paired rounds at least one round is likely to see comparable
    conditions for both."""
    best_first, out_first = float("inf"), None
    best_second, out_second = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out_first = first()
        best_first = min(best_first, time.perf_counter() - start)
        start = time.perf_counter()
        out_second = second()
        best_second = min(best_second, time.perf_counter() - start)
    return (best_first, out_first), (best_second, out_second)


@pytest.fixture(scope="module")
def census_table():
    """The 20k-record census-like private table (2k in quick mode)."""
    return generate_census(CensusConfig(count=RECORD_COUNT, seed=11)).private


def test_columnar_speedup_vs_seed_pipeline(census_table, bench_gate):
    """Acceptance gate: columnar anonymize + score >= 5x the seed loops (1.5x quick)."""
    seed_table = _SeedTable(
        census_table.schema,
        {name: census_table.column(name) for name in census_table.schema.names},
    )

    # Warm-up at a tenth of the scale: this gate runs first in a benchmark
    # session, so without it round 1 pays first-touch page faults, numpy
    # internals and CPU frequency ramp on the columnar side of the ratio.
    warm = generate_census(
        CensusConfig(count=max(RECORD_COUNT // 10, 3 * K), seed=7)
    ).private
    warm_seed = _SeedTable(
        warm.schema, {name: warm.column(name) for name in warm.schema.names}
    )
    _columnar_pipeline(warm, K)
    _seed_pipeline(warm_seed, K)

    (columnar_seconds, (result, columnar_scores)), (
        seed_seconds,
        (seed_classes, seed_release, seed_scores),
    ) = _best_interleaved(
        3,
        lambda: _columnar_pipeline(census_table, K),
        lambda: _seed_pipeline(seed_table, K),
    )

    # Equivalence first: the speedup must not come from doing different work.
    assert classes_of(result.labels) == seed_classes
    for name in census_table.schema.quasi_identifiers:
        assert result.release.column(name) == seed_release.column(name)
    np.testing.assert_allclose(columnar_scores, seed_scores, rtol=1e-12)

    speedup = seed_seconds / columnar_seconds
    bench_gate(
        "anonymize-columnar-vs-seed-pipeline",
        records=RECORD_COUNT,
        k=K,
        columnar_seconds=round(columnar_seconds, 4),
        seed_seconds=round(seed_seconds, 4),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"columnar pipeline is only {speedup:.1f}x the seed loops on "
        f"{RECORD_COUNT} records at k={K} (required {REQUIRED_SPEEDUP:.1f}x): "
        f"columnar {columnar_seconds:.3f}s vs seed {seed_seconds:.3f}s"
    )


def test_columnar_pipeline_throughput(benchmark, census_table):
    """Records/second of the full columnar anonymize + score path."""
    result, _scores = benchmark.pedantic(
        _columnar_pipeline, args=(census_table, K), rounds=3, iterations=1
    )
    assert result.minimum_class_size >= K
    benchmark.extra_info["records"] = RECORD_COUNT
    benchmark.extra_info["records_per_second"] = round(
        RECORD_COUNT / benchmark.stats.stats.mean
    )
