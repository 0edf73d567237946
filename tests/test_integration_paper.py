"""Integration tests: the paper's end-to-end claims on the default experiment.

These tests exercise the full pipeline — data generation, web-corpus
simulation, MDAV anonymization, fusion attack, metrics and the FRED optimizer
— exactly the way the benchmark harness regenerates the paper's figures, and
assert the qualitative *shape* claims of the paper's Section VI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.core.objective import WeightedObjective
from repro.experiments.figures import default_setup, derive_thresholds, run_figure8, run_sweep
from repro.experiments.report import sweep_shape_checks


@pytest.fixture(scope="module")
def paper_sweep():
    """The default (paper-scale) sweep; computed once for the whole module."""
    return run_sweep(default_setup())


class TestPaperShapeClaims:
    def test_all_shape_checks_pass(self, paper_sweep):
        failures = [desc for desc, ok in sweep_shape_checks(paper_sweep) if not ok]
        assert not failures, f"shape checks failed: {failures}"

    def test_fusion_reduces_dissimilarity_substantially(self, paper_sweep):
        # The paper reports roughly a 35-43% drop at small k; we accept any
        # clearly material reduction (>15%) to stay robust to the synthetic
        # substitution of the proprietary dataset.
        reduction = 1.0 - paper_sweep.after[0] / paper_sweep.before[0]
        assert reduction > 0.15

    def test_before_fusion_is_nearly_flat(self, paper_sweep):
        spread = max(paper_sweep.before) - min(paper_sweep.before)
        assert spread / max(paper_sweep.before) < 0.05

    def test_information_gain_positive_and_non_increasing_endpoints(self, paper_sweep):
        assert min(paper_sweep.gain) > 0
        assert paper_sweep.gain[-1] <= paper_sweep.gain[0]

    def test_utility_strictly_decays_endpoints(self, paper_sweep):
        assert paper_sweep.utility[-1] < paper_sweep.utility[0]
        # and is weakly decreasing overall in the large
        assert np.mean(np.diff(paper_sweep.utility)) < 0

    def test_figure8_band_and_optimum(self, paper_sweep):
        protection_threshold, utility_threshold = derive_thresholds(paper_sweep)
        figure = run_figure8(paper_sweep, (protection_threshold, utility_threshold))
        band = [int(x) for x in figure.x]
        # the feasible band excludes the weakest anonymization levels
        assert min(band) > paper_sweep.levels[0]
        # the optimum is a member of the band
        optimal_k = int(figure.notes.rsplit("optimal k=", 1)[1])
        assert optimal_k in band


class TestFREDOnPaperSetup:
    def test_fred_selects_level_inside_band(self, paper_sweep):
        setup = paper_sweep.setup
        protection_threshold, utility_threshold = derive_thresholds(paper_sweep)
        fred = FREDAnonymizer(
            setup.corpus,
            setup.attack_config,
            FREDConfig(
                levels=setup.levels,
                protection_threshold=protection_threshold,
                utility_threshold=utility_threshold,
                objective=WeightedObjective(0.5, 0.5),
                stop_below_utility=False,
            ),
        )
        result = fred.run(setup.population.private)
        band = result.feasible_levels()
        assert result.optimal_level in band
        assert min(band) > setup.levels[0]
        # The selected release is genuinely k-anonymous at the selected level.
        from repro.anonymize.kanonymity import anonymity_level

        assert anonymity_level(result.optimal_release) >= result.optimal_level

    def test_fred_trace_matches_standalone_sweep(self, paper_sweep):
        # FREDAnonymizer.sweep and the experiment harness must agree — they are
        # two views of the same computation.
        setup = paper_sweep.setup
        fred = FREDAnonymizer(
            setup.corpus,
            setup.attack_config,
            FREDConfig(levels=setup.levels[:3], stop_below_utility=False),
        )
        outcomes = fred.sweep(setup.population.private)
        assert [o.level for o in outcomes] == list(setup.levels[:3])
        assert [o.protection_after for o in outcomes] == pytest.approx(
            paper_sweep.after[:3]
        )
        assert [o.utility for o in outcomes] == pytest.approx(paper_sweep.utility[:3])
