"""The fred-fuzzy and fred-exact workloads: serial FRED runs in this process.

Both run ``FREDAnonymizer.run`` (Algorithm 1) with a default ``FREDConfig``
(MDAV, levels 2, 4, 8, 16) on a synthetic faculty population against its
simulated web corpus.  They differ in how the corpus spells names:

* ``fred-fuzzy`` keeps the default name variants and leaves a fifth of the
  population off the web, so about 30% of the names miss the perfect-match
  shortcut and go through blocking and fuzzy scoring.  The harvest
  (``linkage``) dominates the run.
* ``fred-exact`` builds the corpus with no name variants and full coverage,
  so every name is a perfect match.  MDAV (``anonymize``) dominates the run.

The populations are sized so one run takes about a second: the timed window
holds about twenty runs and reports their lower decile (see
``common.lower_decile``).  Set-ups are spread over the window the same way,
one after every run, and so are the slices that measure the host's speed
(see ``common.HostSpeed``); the judged times are divided by it.
"""

from __future__ import annotations

import gc
import time

from common import HostSpeed, Outcome, lower_decile, peak_rss_mb
from repro.anonymize.mdav import MDAVAnonymizer
from repro.core import fred as fred_module
from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.data.faculty import FacultyConfig, generate_faculty
from repro.data.webgen import corpus_for_faculty
from repro.fusion.attack import AttackConfig, WebFusionAttack
from spans import Tracer

LEVELS = (2, 4, 8, 16)
MIN_RUNS = 5

SHAPES = {
    "fred-fuzzy": {"count": 3_000, "corpus": {"coverage": 0.8}, "min_fuzzy_share": 0.25},
    "fred-exact": {
        "count": 6_000,
        "corpus": {"name_variant_probability": 0.0, "coverage": 1.0},
        "min_fuzzy_share": None,
    },
}

# Spans of one traced FRED run; core.glue is the rest of the run.
_LAYER_SPANS = ("fusion.harvest", "anonymize.mdav", "fusion.attack", "metrics.score")


def _attack_config(population) -> AttackConfig:
    """The adversary of ``repro.experiments.figures.default_setup``."""
    return AttackConfig(
        release_inputs=("research_score", "teaching_score", "service_score", "years_of_service"),
        auxiliary_inputs=("property_holdings", "employment_seniority"),
        output_name="salary",
        output_universe=population.assumed_salary_range,
        input_ranges={
            "research_score": (1.0, 10.0),
            "teaching_score": (1.0, 10.0),
            "service_score": (1.0, 10.0),
            "years_of_service": (0.0, 40.0),
            "employment_seniority": (0.0, 45.0),
            "property_holdings": (100_000.0, 900_000.0),
            "external_activity": (1.0, 10.0),
        },
        engine="mamdani",
    )


def _setup(shape: dict, seed: int, tracer: Tracer):
    with tracer.span("data.generate"):
        population = generate_faculty(FacultyConfig(count=shape["count"], seed=seed))
        corpus = corpus_for_faculty(population, **shape["corpus"])
    with tracer.span("linkage.index_build"):
        index = corpus.linkage_index
    return population, corpus, index


def _harvest_counts(names: list[str], records) -> tuple[set[str], set[str], int]:
    """Unique names, names whose record has confidence 1.0, matched rows."""
    unique = set(names)
    perfect = {
        name
        for name, record in zip(names, records)
        if record is not None and record.confidence == 1.0
    }
    matched = sum(record is not None for record in records)
    return unique, perfect, matched


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    shape = SHAPES[workload]
    outcome = Outcome()
    tracer = Tracer(enabled=traced)
    outcome.tracer = tracer

    setup_times = []

    def set_up():
        gc.collect()
        tracer.new_run()
        start = time.perf_counter()
        inputs = _setup(shape, seed, tracer)
        setup_times.append(time.perf_counter() - start)
        return inputs

    population, corpus, index = set_up()

    private = population.private
    names = [str(name) for name in private.identifier_column()]
    fred = FREDAnonymizer(corpus, _attack_config(population), FREDConfig(levels=LEVELS))
    harvests = []

    def capture_harvest(table):
        # Looked up on the class at call time, so a traced run's span wraps it.
        # Only the latest is kept: a list of every run's harvest would make
        # peak RSS grow with the number of runs that fit in the window.
        result = FREDAnonymizer.harvest(fred, table)
        harvests[:] = [result]
        return result

    fred.harvest = capture_harvest

    # Warm-up: fills the index's lazy match caches; its result is the
    # reference every later run must reproduce exactly.
    try:
        reference = fred.run(private).to_dict()
    except Exception as error:  # noqa: BLE001 - reported as a failed operation
        outcome.check(False, f"warm-up FRED run raised {error!r}")
        return outcome
    outcome.check(True, "")

    unique, perfect, matched = _harvest_counts(names, harvests[-1][0])
    fuzzy = unique - perfect
    share = len(fuzzy) / len(unique)
    if shape["min_fuzzy_share"] is None:
        outcome.check(not fuzzy, f"{len(fuzzy)} names missed the perfect-match shortcut")
    else:
        outcome.check(
            share >= shape["min_fuzzy_share"],
            f"only {share:.1%} of names need fuzzy scoring",
        )

    untraced_runs: list[float] = []
    traced_runs: list[dict[str, float]] = []
    patches = [
        (FREDAnonymizer, "harvest", "fusion.harvest"),
        (MDAVAnonymizer, "anonymize", "anonymize.mdav"),
        (WebFusionAttack, "run", "fusion.attack"),
        (fred_module, "dissimilarity_before_fusion", "metrics.score"),
        (fred_module, "dissimilarity_after_fusion", "metrics.score"),
        (fred_module, "utility_of_result", "metrics.score"),
    ]

    def one_run(with_trace: bool) -> None:
        run_id = tracer.new_run()
        gc.collect()  # garbage from the previous run is not this run's cost
        start = time.perf_counter()
        try:
            if with_trace:
                with tracer.patched(patches), tracer.span("core.fred_run"):
                    result = fred.run(private)
            else:
                result = fred.run(private)
        except Exception as error:  # noqa: BLE001 - reported as a failed operation
            outcome.check(False, f"FRED run raised {error!r}")
            return
        elapsed = time.perf_counter() - start
        outcome.check(result.to_dict() == reference, "FRED result differs from the first run")
        if not with_trace:
            untraced_runs.append(elapsed)
            return
        spans = {name: tracer.seconds(name, run_id) for name in _LAYER_SPANS}
        spans["total"] = tracer.seconds("core.fred_run", run_id)
        traced_runs.append(spans)

    host = HostSpeed()
    window_start = time.perf_counter()
    while (
        len(untraced_runs) < MIN_RUNS
        or time.perf_counter() - window_start < seconds
    ):
        one_run(False)
        if traced:
            one_run(True)
        set_up()  # a fresh copy of the inputs, timed and dropped
        host.sample()
        if len(outcome.failures) > 5:
            break
    if not untraced_runs:
        return outcome

    outcome.sizes = {
        "rows": private.num_rows,
        "corpus_pages": index.size,
        "unique_queries": len(unique),
        "levels": len(LEVELS),
        "timed_runs": len(untraced_runs),
    }
    fred_run_s = lower_decile(untraced_runs)
    setup_s = lower_decile(setup_times)
    factor = host.factor("lower_decile")
    outcome.notes.append(
        f"fuzzy share of names: {share:.2%}; timed runs (s): "
        + ", ".join(f"{value:.3f}" for value in untraced_runs)
    )
    outcome.end_to_end = {
        "setup_s": setup_s / factor,
        "cycle_ms": fred_run_s / factor * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.report = {
        "fred_run_s": (fred_run_s, "s"),
        "setup_s": (setup_s, "s"),
        "host_factor": (factor, "ratio"),
        "peak_rss_mb": (outcome.end_to_end["peak_rss_mb"], "MB"),
    }
    if not traced:
        return outcome

    layer = {name: lower_decile([run[name] for run in traced_runs]) for name in _LAYER_SPANS}
    traced_total = lower_decile([run["total"] for run in traced_runs])
    glue = lower_decile(
        [run["total"] - sum(run[name] for name in _LAYER_SPANS) for run in traced_runs]
    )
    candidate_rows = 0
    with tracer.span("linkage.candidate_rows"):
        for name in fuzzy:
            candidate_rows += int(index.candidate_rows(name).size)
    outcome.layers = {
        "data.generate_s": lower_decile(tracer.durations("data.generate")),
        "linkage.index_build_s": lower_decile(tracer.durations("linkage.index_build")),
        "fusion.harvest_s": layer["fusion.harvest"],
        "linkage.queries": len(unique),
        "linkage.perfect_hits": len(perfect),
        "linkage.fuzzy_queries": len(fuzzy),
        "linkage.candidate_rows": candidate_rows,
        "linkage.candidate_fraction": (
            candidate_rows / (len(fuzzy) * index.size) if fuzzy else 0.0
        ),
        "fusion.match_rate": matched / len(names),
        "anonymize.mdav_s": layer["anonymize.mdav"],
        "anonymize.rows_per_s": private.num_rows * len(LEVELS) / layer["anonymize.mdav"],
        "fusion.attack_s": layer["fusion.attack"],
        "metrics.score_s": layer["metrics.score"],
        "core.glue_s": glue,
        "trace.overhead_s": traced_total - fred_run_s,
    }
    outcome.notes.append(
        f"harvest share of the run: {layer['fusion.harvest'] / traced_total:.1%}, "
        f"mdav share: {layer['anonymize.mdav'] / traced_total:.1%}"
    )
    return outcome
