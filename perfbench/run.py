"""Repository benchmark: end-to-end and per-layer numbers for FRED and the service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fred-fuzzy --seed 1 --seconds 30 --trace 0

Workloads are ``fred-fuzzy``, ``fred-exact`` and ``serve-mixed`` (see
``perfbench/README.md``).  The inputs are generated from ``--seed``; the
program only receives them.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones, from spans the benchmark opens around calls
into each layer.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches behind in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("fred-fuzzy", "fred-exact", "serve-mixed")

END_TO_END = (
    ("setup_s", "s"),
    ("cycle_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("data.generate_s", "s"),
    ("linkage.index_build_s", "s"),
    ("fusion.harvest_s", "s"),
    ("linkage.queries", "count"),
    ("linkage.perfect_hits", "count"),
    ("linkage.fuzzy_queries", "count"),
    ("linkage.candidate_rows", "count"),
    ("linkage.candidate_fraction", "ratio"),
    ("fusion.match_rate", "ratio"),
    ("anonymize.mdav_s", "s"),
    ("anonymize.rows_per_s", "rows/s"),
    ("fusion.attack_s", "s"),
    ("metrics.score_s", "s"),
    ("core.glue_s", "s"),
    ("trace.overhead_s", "s"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.computations", "count"),
    ("cache.coalesced_waits", "count"),
    ("cache.container_spills", "count"),
    ("cache.spill_evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.spill_files", "count"),
    ("cache.spill_bytes", "bytes"),
    ("service.release_csv_hit_ms", "ms"),
    ("http.release_overhead_ms", "ms"),
    ("http.release_bytes", "bytes"),
    ("anonymize.release_compute_ms", "ms"),
    ("dataset.render_csv_ms", "ms"),
    ("dataset.parse_delta_ms", "ms"),
    ("dataset.append_ms", "ms"),
    ("service.append_ms", "ms"),
    ("fusion.attack_compute_ms", "ms"),
    ("service.register_s", "s"),
)


def _environment(seed: int) -> dict[str, object]:
    from multiprocessing import resource_tracker

    import numpy

    from repro.linkage.kernels import active_kernel_backend
    from repro.linkage.shm import shared_memory_available

    shared_memory = shared_memory_available()
    # The probe starts multiprocessing's resource tracker process; stop it
    # and wait for it, so the benchmark leaves no process behind.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_kernel_backend(),
        "shared_memory": shared_memory,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    traced = bool(arguments.trace)
    if arguments.workload == "serve-mixed":
        import serveload

        outcome = serveload.run(arguments.seed, arguments.seconds, traced, ROOT, WORK_DIR)
    else:
        import fredload

        outcome = fredload.run(arguments.workload, arguments.seed, arguments.seconds, traced)

    stamp = _environment(arguments.seed)
    stamp["workload"] = arguments.workload
    stamp["sizes"] = outcome.sizes
    print("environment: " + json.dumps(stamp, sort_keys=True))
    for note in outcome.notes:
        print(note)
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    for message in outcome.failures[:20]:
        print(f"FAILED: {message}")
    print(f"{'failed_ratio':<32} {failed / attempted:>14.6g} ratio")
    for name, (value, unit) in outcome.report.items():
        print(f"{name:<32} {value:>14.6g} {unit}")

    wanted = PER_LAYER if traced else END_TO_END
    source = outcome.end_to_end
    if traced and outcome.layers:
        # Every workload reports every layer; 0 where it does not exercise one.
        source = {name: outcome.layers.get(name, 0.0) for name, _ in PER_LAYER}
        print("per-layer (0 = layer not exercised by this workload):")
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {source[name]:>14.6g} {unit}")
    metrics = {
        name: {"value": float(source[name]), "unit": unit}
        for name, unit in wanted
        if name in source
    }
    if outcome.tracer is not None and outcome.tracer.spans:
        path = WORK_DIR / f"trace-{arguments.workload}-seed{arguments.seed}.json"
        outcome.tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")

    correct = failed == 0 and len(metrics) == len(wanted)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
