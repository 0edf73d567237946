"""Reproduction of the paper's figures (Figures 4-8).

All five evaluation figures are views of one sweep over the anonymization
level ``k``: anonymize the faculty data with MDAV at each ``k``, simulate the
web-based information-fusion attack, and record

* ``P ∘ P'`` — dissimilarity before fusion (Figure 4),
* ``P ∘ P̂`` — dissimilarity after fusion (Figure 5),
* ``G = (P ∘ P') − (P ∘ P̂)`` — information gain (Figure 6),
* ``U_k = 1 / C_DM(k)`` — discernibility utility (Figure 7),
* ``H_k`` — the weighted protection/utility objective over the feasible band
  defined by the thresholds ``Tp`` / ``Tu`` (Figure 8).

The sweep is computed once (:func:`run_sweep`) and each ``run_figureN`` simply
extracts its series, so regenerating all figures costs a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.core.objective import WeightedObjective
from repro.data.faculty import FacultyConfig, FacultyPopulation, generate_faculty
from repro.data.webgen import corpus_for_faculty
from repro.exceptions import ExperimentError
from repro.fusion.attack import AttackConfig
from repro.fusion.web import SimulatedWebCorpus

__all__ = [
    "ExperimentSetup",
    "default_setup",
    "SweepData",
    "run_sweep",
    "FigureResult",
    "derive_thresholds",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_all_figures",
]


@dataclass
class ExperimentSetup:
    """Everything needed to run the paper's evaluation sweep."""

    population: FacultyPopulation
    corpus: SimulatedWebCorpus
    attack_config: AttackConfig
    levels: tuple[int, ...] = tuple(range(2, 17))
    objective: WeightedObjective = field(
        default_factory=lambda: WeightedObjective(0.5, 0.5, normalization="minmax")
    )


def default_setup(
    count: int = 60,
    seed: int = 13,
    levels: Sequence[int] = tuple(range(2, 17)),
    corpus_noise: float = 0.05,
    corpus_coverage: float = 0.95,
) -> ExperimentSetup:
    """The default experimental setup mirroring Section VI.A.

    A synthetic faculty population (the paper's proprietary dataset is
    substituted, see :mod:`repro.data.faculty`), its matching simulated web
    corpus, and an attack that fuses the released review scores with the
    harvested web attributes through a Mamdani system with monotone domain
    rules.

    The population is deliberately department-sized (60 faculty by default):
    the paper sweeps k up to 16 on a single institution's salary data, a
    regime where the anonymization level is a substantial fraction of the
    dataset — which is exactly when its Figure 5/6 trends are visible.  The
    two harvested web attributes mirror the paper's Table IV (employment
    seniority and property holdings).
    """
    population = generate_faculty(FacultyConfig(count=count, seed=seed))
    corpus = corpus_for_faculty(
        population, noise_level=corpus_noise, coverage=corpus_coverage
    )
    attack_config = AttackConfig(
        release_inputs=("research_score", "teaching_score", "service_score", "years_of_service"),
        auxiliary_inputs=("property_holdings", "employment_seniority"),
        output_name="salary",
        output_universe=population.assumed_salary_range,
        # The adversary knows the attribute scales from domain knowledge (the
        # enterprise's 1-10 review scale, plausible seniority and property
        # ranges), as in the paper's Figure 2 fuzzy-set definitions.
        input_ranges={
            "research_score": (1.0, 10.0),
            "teaching_score": (1.0, 10.0),
            "service_score": (1.0, 10.0),
            "years_of_service": (0.0, 40.0),
            "employment_seniority": (0.0, 45.0),
            "property_holdings": (100_000.0, 900_000.0),
            "external_activity": (1.0, 10.0),
        },
        directions={},  # every input is positively related to salary
        engine="mamdani",
    )
    return ExperimentSetup(
        population=population,
        corpus=corpus,
        attack_config=attack_config,
        levels=tuple(levels),
    )


@dataclass
class SweepData:
    """Per-level measurements shared by Figures 4-8."""

    levels: list[int]
    before: list[float]
    after: list[float]
    gain: list[float]
    utility: list[float]
    setup: ExperimentSetup

    def as_dict(self) -> dict[str, list[float]]:
        """All series keyed by name (for reports and serialization)."""
        return {
            "before": list(self.before),
            "after": list(self.after),
            "gain": list(self.gain),
            "utility": list(self.utility),
        }


def run_sweep(setup: ExperimentSetup | None = None, parallelism: int = 1) -> SweepData:
    """Run the k-sweep with the fusion attack simulated at every level.

    ``parallelism > 1`` evaluates the levels concurrently on that many worker
    processes (they are independent jobs); the per-level series are identical either way thanks to
    FRED's deterministic merge.
    """
    setup = setup or default_setup()
    fred = FREDAnonymizer(
        source=setup.corpus,
        attack_config=setup.attack_config,
        config=FREDConfig(
            levels=setup.levels,
            protection_threshold=None,
            utility_threshold=None,
            objective=setup.objective,
            stop_below_utility=False,
            parallelism=parallelism,
        ),
    )
    outcomes = fred.sweep(setup.population.private)
    return SweepData(
        levels=[o.level for o in outcomes],
        before=[o.protection_before for o in outcomes],
        after=[o.protection_after for o in outcomes],
        gain=[o.information_gain for o in outcomes],
        utility=[o.utility for o in outcomes],
        setup=setup,
    )


@dataclass
class FigureResult:
    """One reproduced figure: x values plus one or more named series."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x: list[float]
    series: dict[str, list[float]]
    notes: str = ""

    def to_text(self) -> str:
        """Plain-text rendering (the harness's replacement for a plot)."""
        names = list(self.series)
        header = f"{self.x_label:>6}  " + "  ".join(f"{name:>16}" for name in names)
        lines = [f"{self.figure_id}: {self.title}", header]
        for i, x in enumerate(self.x):
            row = f"{x:>6g}  " + "  ".join(
                f"{self.series[name][i]:>16.6g}" for name in names
            )
            lines.append(row)
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def derive_thresholds(
    sweep: SweepData,
    lower_fraction: float = 0.35,
    upper_fraction: float = 0.85,
) -> tuple[float, float]:
    """Derive ``(Tp, Tu)`` from the observed sweep, as the paper does.

    The paper picks its thresholds "based on experimental observations" so
    that a mid-range band of k values (7..14 on its data) is feasible.  We do
    the same mechanically: ``Tp`` is the post-fusion dissimilarity achieved at
    the level ``lower_fraction`` of the way through the sweep (excluding the
    weakly-protected small-k levels), and ``Tu`` is the utility achieved at the
    level ``upper_fraction`` of the way through (excluding the low-utility
    large-k levels).
    """
    if not 0.0 <= lower_fraction < upper_fraction <= 1.0:
        raise ExperimentError("fractions must satisfy 0 <= lower < upper <= 1")
    count = len(sweep.levels)
    if count < 3:
        raise ExperimentError("threshold derivation needs at least 3 swept levels")
    lower_index = min(int(round(lower_fraction * (count - 1))), count - 2)
    upper_index = min(int(round(upper_fraction * (count - 1))), count - 1)
    protection_threshold = float(sweep.after[lower_index])
    utility_threshold = float(sweep.utility[upper_index])
    return protection_threshold, utility_threshold


def run_figure4(sweep: SweepData | None = None) -> FigureResult:
    """Figure 4: dissimilarity before information fusion, ``(P ∘ P')`` vs ``k``."""
    sweep = sweep or run_sweep()
    return FigureResult(
        figure_id="figure4",
        title="Before Information Fusion (P o P')",
        x_label="k",
        y_label="dissimilarity",
        x=[float(level) for level in sweep.levels],
        series={"P o P' (without Q)": list(sweep.before)},
        notes="nearly flat and weakly increasing with k, as in the paper",
    )


def run_figure5(sweep: SweepData | None = None) -> FigureResult:
    """Figure 5: dissimilarity after information fusion, ``(P ∘ P̂)`` vs ``k``."""
    sweep = sweep or run_sweep()
    return FigureResult(
        figure_id="figure5",
        title="After Information Fusion (P o P^)",
        x_label="k",
        y_label="dissimilarity",
        x=[float(level) for level in sweep.levels],
        series={"P o P^ (with Q)": list(sweep.after)},
        notes="below the before-fusion curve at every k; rises as anonymization degrades the fused inputs",
    )


def run_figure6(sweep: SweepData | None = None) -> FigureResult:
    """Figure 6: adversarial information gain ``G`` vs ``k``."""
    sweep = sweep or run_sweep()
    return FigureResult(
        figure_id="figure6",
        title="Information Gain (G)",
        x_label="k",
        y_label="gain",
        x=[float(level) for level in sweep.levels],
        series={"Information Gain (G)": list(sweep.gain)},
        notes="positive everywhere and non-increasing with k",
    )


def run_figure7(sweep: SweepData | None = None) -> FigureResult:
    """Figure 7: discernibility utility ``U_k`` vs ``k``."""
    sweep = sweep or run_sweep()
    return FigureResult(
        figure_id="figure7",
        title="Utility (U)",
        x_label="k",
        y_label="utility",
        x=[float(level) for level in sweep.levels],
        series={"Utility (U)": list(sweep.utility)},
        notes="monotonically decreasing with k",
    )


def run_figure8(
    sweep: SweepData | None = None,
    thresholds: tuple[float, float] | None = None,
) -> FigureResult:
    """Figure 8: the weighted objective ``H_k`` over the feasible band, with the optimum."""
    sweep = sweep or run_sweep()
    protection_threshold, utility_threshold = thresholds or derive_thresholds(sweep)
    objective = sweep.setup.objective

    scores = objective.scores(np.array(sweep.after), np.array(sweep.utility))
    feasible = [
        i
        for i in range(len(sweep.levels))
        if sweep.after[i] >= protection_threshold and sweep.utility[i] >= utility_threshold
    ]
    if not feasible:
        raise ExperimentError(
            "no feasible levels for the derived thresholds; relax the fractions"
        )
    optimal_index = max(feasible, key=lambda i: scores[i])
    return FigureResult(
        figure_id="figure8",
        title="Weighted Sum Of Protection And Utility (H)",
        x_label="k",
        y_label="H",
        x=[float(sweep.levels[i]) for i in feasible],
        series={"H": [float(scores[i]) for i in feasible]},
        notes=(
            f"Tp={protection_threshold:.6g}, Tu={utility_threshold:.6g}, "
            f"optimal k={sweep.levels[optimal_index]}"
        ),
    )


def run_all_figures(setup: ExperimentSetup | None = None) -> dict[str, FigureResult]:
    """Run the sweep once and produce every figure."""
    sweep = run_sweep(setup)
    return {
        "figure4": run_figure4(sweep),
        "figure5": run_figure5(sweep),
        "figure6": run_figure6(sweep),
        "figure7": run_figure7(sweep),
        "figure8": run_figure8(sweep),
    }
