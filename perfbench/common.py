"""Small helpers shared by the workloads: results, percentiles, memory."""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` and ``layers`` map metric names to values (units live in
    ``run.py``); ``report`` holds the workload's own end-to-end figures under
    their descriptive names for the human-readable table; ``failures`` names
    every failed operation or output check.
    """

    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def lower_decile(values) -> float:
    """The 10th percentile: how long the work takes when the host lets it run.

    The host this benchmark was built on is shared.  For seconds at a time
    everything on it runs about 40% slower, and such phases come and go
    within a run.  A median over the run shifts with how much of it fell in
    slow phases; the fastest tenth of the samples ran in the quiet ones, so
    it stays put.  Interference only adds time, so no sample beats the
    program's own cost by much.
    """
    return percentile(values, 10)


class HostSpeed:
    """Tracks how fast the host runs now, with a fixed slice of work.

    A slice is a pure-Python loop plus a numpy sort and a few array passes,
    5-9 ms in all.  The host this benchmark was built on also has slow
    spells that last minutes, during which everything, the slices and the
    program alike, runs 30-50% slower, so no statistic of the program's own
    timings escapes them.  The workloads take slices between their timed
    calls and divide their times by ``factor``: a statistic of the slice
    times over the same statistic measured on that host when it was quiet.
    The judged times therefore read as times on the quiet host.  The slice
    calls no code of the program, so a change to the program cannot move it.
    """

    # Slice times on the quiet 2-vCPU build host, by statistic.
    QUIET_S = {"lower_decile": 0.0054, "median": 0.0069}

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(131_072)
        self.samples: list[float] = []

    def _slice(self) -> float:
        total = 0
        for i in range(60_000):
            total += i * i % 7
        ordered = np.sort(self._array)
        return total + float(np.cumsum(ordered * 2.0 + 1.0)[-1])

    def sample(self, slices: int = 3) -> None:
        for _ in range(slices):
            start = time.perf_counter()
            self._slice()
            self.samples.append(time.perf_counter() - start)

    def factor(self, statistic: str) -> float:
        """``statistic`` (``lower_decile`` or ``median``) of the slices, over the quiet one."""
        value = lower_decile(self.samples) if statistic == "lower_decile" else median(self.samples)
        return value / self.QUIET_S[statistic]


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else os.getpid()}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
