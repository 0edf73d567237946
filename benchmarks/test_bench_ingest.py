"""Benchmark: :func:`repro.dataset.io.stream_csv` vs the per-cell reference parser.

The reference (``tests/csv_reference.py``) tokenizes every line with
``csv.reader`` and runs up to three regex probes plus a ``float()`` call per
cell.  ``stream_csv`` tokenizes with the same ``csv.reader`` but types each
``chunk_rows`` column chunk at once: one regex scan over the joined cells
and a single vectorized ``float64`` parse per numeric chunk, falling back to
the per-cell parser only for chunks with special content.

``test_numeric_ingest_speedup`` is the acceptance gate: on a numeric-heavy
100k-row CSV ``stream_csv`` must be **at least 3x faster** than the
reference while producing an identical table (same fingerprint).  Set
``REPRO_BENCH_QUICK=1`` for the reduced CI smoke variant (10k rows, gate at
1x — ``stream_csv`` must simply never be slower).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dataset.io import render_csv, stream_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from csv_reference import reference_stream_csv  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
ROW_COUNT = 10_000 if QUICK else 100_000
REQUIRED_SPEEDUP = 1.0 if QUICK else 3.0
NUMERIC_COLUMNS = 6


@pytest.fixture(scope="module")
def numeric_csv_lines():
    """A numeric-heavy CSV document (one id column, six numeric columns)."""
    rng = np.random.default_rng(17)
    schema = Schema(
        [Attribute("id", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]
        + [
            Attribute(f"metric_{i}", AttributeRole.QUASI_IDENTIFIER)
            for i in range(NUMERIC_COLUMNS)
        ]
    )
    columns: dict[str, object] = {"id": [f"row{i}" for i in range(ROW_COUNT)]}
    for i in range(NUMERIC_COLUMNS):
        if i % 2:
            columns[f"metric_{i}"] = np.round(rng.normal(50.0, 20.0, ROW_COUNT), 3)
        else:
            columns[f"metric_{i}"] = rng.integers(0, 10_000, ROW_COUNT)
    table = Table(schema, columns)
    return render_csv(table).splitlines(keepends=True)


def test_bench_stream_csv_fast(benchmark, numeric_csv_lines):
    """Throughput of ``stream_csv`` on the full document."""
    table = benchmark(lambda: stream_csv(iter(numeric_csv_lines)))
    assert table.num_rows == ROW_COUNT
    benchmark.extra_info["rows"] = ROW_COUNT
    benchmark.extra_info["rows_per_second"] = round(
        ROW_COUNT / benchmark.stats.stats.mean
    )


def _best_of(runs: int, fn):
    """The fastest of ``runs`` timed executions (shields the gate from noise)."""
    best, result = None, None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_numeric_ingest_speedup(numeric_csv_lines, bench_gate):
    """Acceptance gate: ``stream_csv`` >= 3x the per-cell reference (1x quick)."""
    slow_seconds, slow = _best_of(2, lambda: reference_stream_csv(numeric_csv_lines))
    fast_seconds, fast = _best_of(2, lambda: stream_csv(iter(numeric_csv_lines)))

    assert fast == slow, "stream_csv changed the parsed table"
    assert fast.fingerprint == slow.fingerprint

    speedup = slow_seconds / fast_seconds
    bench_gate(
        "csv-ingest-fast-path",
        rows=ROW_COUNT,
        columns=NUMERIC_COLUMNS + 1,
        fast_seconds=round(fast_seconds, 4),
        line_by_line_seconds=round(slow_seconds, 4),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"CSV ingest is only {speedup:.1f}x the per-cell reference parser on "
        f"{ROW_COUNT} rows (required {REQUIRED_SPEEDUP:.0f}x): "
        f"stream_csv {fast_seconds:.3f}s vs reference {slow_seconds:.3f}s"
    )


def test_quoted_fallback_matches_line_by_line():
    """A quoted region mid-file parses exactly as the per-cell reference."""
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("value", AttributeRole.QUASI_IDENTIFIER),
        ]
    )
    names = [f"plain{i}" for i in range(500)] + ['quoted, "name"'] + [
        f"tail{i}" for i in range(500)
    ]
    values = list(range(1001))
    text = render_csv(Table(schema, {"name": names, "value": values}))
    lines = text.splitlines(keepends=True)
    parsed = stream_csv(iter(lines), chunk_rows=128)
    reference = reference_stream_csv(lines)
    assert parsed == reference
    assert parsed.fingerprint == reference.fingerprint
