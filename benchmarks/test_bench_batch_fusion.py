"""Benchmark: vectorized batch fusion vs the seed's per-record loop.

The seed evaluated the fusion system once per release record in interpreted
Python (``evaluate_batch`` was ``[evaluate(r) for r in records]``), making the
attack — and therefore every level of the FRED sweep — O(records × rules) in
Python.  The batch engine fuzzifies whole ``(N,)`` columns, forms the
``(N, n_rules)`` firing matrix and defuzzifies the whole block at once.

``test_batch_speedup_vs_seed_loop`` is the acceptance gate: on the standard
10k-record attack scenario (six fusion inputs, monotone rule base, 10%
missing cells) the batch path must be **at least 10× faster** than the seed
loop.  Set ``REPRO_BENCH_QUICK=1`` to run the reduced CI smoke variant (1k
records, gate at 1× — batch must simply never be slower than the loop).

The seed loop is the per-record reference in ``tests/fuzzy_reference.py``
(the original code no longer exists in the tree), so the baseline stays
honest as the engines evolve.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fusion.rulegen import monotone_rules
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

# The per-record reference engines live in tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from fuzzy_reference import reference_mamdani, reference_sugeno  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
RECORD_COUNT = 1_000 if QUICK else 10_000
REQUIRED_SPEEDUP = 1.0 if QUICK else 10.0
#: The seed loop is timed on a subsample and extrapolated per-record; the
#: batch path is timed on the full block.  1k scalar evaluations (~0.4s) give
#: a stable per-record estimate without dominating the suite.
SCALAR_SAMPLE = 500 if QUICK else 1_000

INPUT_UNIVERSES = {
    "research_score": (1.0, 10.0),
    "teaching_score": (1.0, 10.0),
    "service_score": (1.0, 10.0),
    "years_of_service": (0.0, 40.0),
    "employment_seniority": (0.0, 45.0),
    "property_holdings": (100_000.0, 900_000.0),
}
OUTPUT_UNIVERSE = (40_000.0, 200_000.0)
MISSING_FRACTION = 0.1  # suppressed release cells / unmatched web harvests


def _build_system(engine: str):
    """The attack's fusion system: six inputs, monotone domain rules."""
    terms = ("low", "medium", "high")
    inputs = {
        name: LinguisticVariable.with_uniform_terms(name, universe, terms)
        for name, universe in INPUT_UNIVERSES.items()
    }
    output = LinguisticVariable.with_uniform_terms("salary", OUTPUT_UNIVERSE, terms)
    rules = monotone_rules(inputs, output)
    if engine == "mamdani":
        return MamdaniSystem(inputs=inputs, output=output, rules=rules)
    return SugenoSystem(inputs=inputs, output=output, rules=rules)


@pytest.fixture(scope="module")
def attack_inputs():
    """The 10k-record attack input block, in both batch layouts."""
    rng = np.random.default_rng(7)
    columns = {}
    for name, (low, high) in INPUT_UNIVERSES.items():
        column = rng.uniform(low, high, RECORD_COUNT)
        column[rng.random(RECORD_COUNT) < MISSING_FRACTION] = np.nan
        columns[name] = column
    records = [
        {
            name: (None if np.isnan(columns[name][i]) else float(columns[name][i]))
            for name in columns
        }
        for i in range(RECORD_COUNT)
    ]
    return columns, records


def _seed_mamdani_loop(system: MamdaniSystem, records) -> np.ndarray:
    """The seed's per-record Mamdani evaluation, record by record."""
    return np.array([reference_mamdani(system, record) for record in records])


def _seed_sugeno_loop(system: SugenoSystem, records) -> np.ndarray:
    """The seed's per-record Sugeno evaluation, record by record."""
    return np.array([reference_sugeno(system, record) for record in records])


def _best_of(repeats: int, fn, *args):
    """Minimum wall-clock of ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("engine", ["mamdani", "sugeno"])
def test_bench_batch_fusion(benchmark, attack_inputs, engine):
    """Throughput of the vectorized engines on the full attack block."""
    columns, _ = attack_inputs
    system = _build_system(engine)
    estimates = benchmark(system.evaluate_batch, columns)
    assert estimates.shape == (RECORD_COUNT,)
    benchmark.extra_info["records"] = RECORD_COUNT
    benchmark.extra_info["records_per_second"] = round(
        RECORD_COUNT / benchmark.stats.stats.mean
    )


def test_batch_speedup_vs_seed_loop(attack_inputs, bench_gate):
    """Acceptance gate: batch fusion >= 10x the seed per-record loop (1x quick)."""
    columns, records = attack_inputs
    system = _build_system("mamdani")

    system.evaluate_batch({name: column[:64] for name, column in columns.items()})
    batch_seconds, batch_estimates = _best_of(3, system.evaluate_batch, columns)

    sample = records[:SCALAR_SAMPLE]
    scalar_seconds, scalar_estimates = _best_of(1, _seed_mamdani_loop, system, sample)
    scalar_seconds_full = scalar_seconds * (RECORD_COUNT / len(sample))

    np.testing.assert_allclose(
        batch_estimates[: len(sample)], scalar_estimates, rtol=0.0, atol=1e-9
    )
    speedup = scalar_seconds_full / batch_seconds
    bench_gate(
        "batch-fusion-vs-seed-loop",
        records=RECORD_COUNT,
        batch_seconds=round(batch_seconds, 4),
        seed_seconds_extrapolated=round(scalar_seconds_full, 4),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch fusion is only {speedup:.1f}x the seed loop on {RECORD_COUNT} "
        f"records (required {REQUIRED_SPEEDUP:.0f}x): batch {batch_seconds:.3f}s "
        f"vs seed {scalar_seconds_full:.3f}s (extrapolated)"
    )


def test_batch_sugeno_matches_seed_loop(attack_inputs):
    """The Sugeno kernel agrees with the seed loop on the attack block."""
    columns, records = attack_inputs
    system = _build_system("sugeno")
    sample = records[:SCALAR_SAMPLE]
    batch = system.evaluate_batch(columns)
    np.testing.assert_allclose(
        batch[: len(sample)], _seed_sugeno_loop(system, sample), rtol=0.0, atol=1e-9
    )
