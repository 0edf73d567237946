"""Shared fixtures for the benchmark harness.

The expensive artifact — the k-sweep with the fusion attack simulated at every
level (the basis of Figures 4-8) — is computed once per session and shared by
all figure benchmarks; each benchmark target then regenerates its own
table/figure from it and records the reproduced series in ``extra_info`` so the
numbers appear in the benchmark report.

Machine-readable summary
------------------------
Speedup gates record their measurements through the ``bench_gate`` fixture;
at session end every recorded gate is written to a ``BENCH_*.json`` artifact
(default ``BENCH_SUMMARY.json`` in the working directory, override with
``REPRO_BENCH_JSON``) so the perf trajectory is tracked across PRs instead of
living only in transient CI logs.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.figures import default_setup, run_sweep
from repro.linkage.kernels import active_kernel_backend
from repro.linkage.shm import shared_memory_available

_GATE_RECORDS: list[dict] = []


@pytest.fixture
def bench_gate(request):
    """Record one speedup gate's measurements for the BENCH_*.json summary.

    Every record is stamped with the linkage engine's kernel implementation
    and shared-memory availability, so summaries from different hosts can be
    told apart.
    """

    def record(gate: str, **metrics) -> None:
        _GATE_RECORDS.append(
            {
                "gate": gate,
                "test": request.node.nodeid,
                "kernel_backend": active_kernel_backend(),
                "shared_memory": shared_memory_available(),
                **metrics,
            }
        )

    return record


def pytest_sessionfinish(session, exitstatus):
    if not _GATE_RECORDS:
        return
    payload = {
        "schema": "repro.bench.v1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick_mode": os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "exit_status": int(exitstatus),
        "gates": _GATE_RECORDS,
    }
    path = Path(os.environ.get("REPRO_BENCH_JSON", "BENCH_SUMMARY.json"))
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def paper_setup():
    """The paper-scale experimental setup (synthetic faculty + web corpus)."""
    return default_setup()


@pytest.fixture(scope="session")
def paper_sweep(paper_setup):
    """The full k = 2..16 sweep with the attack simulated at every level."""
    return run_sweep(paper_setup)


@pytest.fixture(scope="session")
def small_setup():
    """A reduced setup for the heavier end-to-end benchmarks."""
    return default_setup(count=40, seed=5, levels=(2, 3, 4, 6, 8))
