"""Unit tests for the FRED optimizer (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.core.objective import WeightedObjective
from repro.exceptions import FREDConfigurationError, FREDInfeasibleError


@pytest.fixture(scope="module")
def fred_inputs(request):
    """Small faculty population + corpus + attack config shared by FRED tests."""
    from repro.data.faculty import FacultyConfig, generate_faculty
    from repro.data.webgen import corpus_for_faculty
    from repro.fusion.attack import AttackConfig

    population = generate_faculty(FacultyConfig(count=30, seed=5))
    corpus = corpus_for_faculty(population, distractor_count=5)
    attack_config = AttackConfig(
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
        },
    )
    return population, corpus, attack_config


class TestFREDConfig:
    def test_defaults(self):
        config = FREDConfig()
        assert config.levels == tuple(range(2, 17))
        assert config.anonymizer.name == "mdav"

    def test_validation(self):
        with pytest.raises(FREDConfigurationError):
            FREDConfig(levels=())
        with pytest.raises(FREDConfigurationError):
            FREDConfig(levels=(0, 2))
        with pytest.raises(FREDConfigurationError):
            FREDConfig(levels=(4, 2))
        with pytest.raises(FREDConfigurationError):
            FREDConfig(levels=(2, 2))


class TestEvaluateLevel:
    def test_outcome_fields(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        fred = FREDAnonymizer(corpus, attack_config, FREDConfig(levels=(3,)))
        outcome = fred.evaluate_level(population.private, 3)
        assert outcome.level == 3
        assert outcome.protection_before > outcome.protection_after > 0
        assert outcome.information_gain == pytest.approx(
            outcome.protection_before - outcome.protection_after
        )
        assert outcome.utility > 0
        assert outcome.anonymization.k == 3
        assert outcome.attack.estimates.shape == (population.private.num_rows,)
        assert outcome.feasible  # no thresholds configured

    def test_thresholds_drive_feasibility(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        config = FREDConfig(
            levels=(3,), protection_threshold=float("inf"), utility_threshold=0.0
        )
        fred = FREDAnonymizer(corpus, attack_config, config)
        outcome = fred.evaluate_level(population.private, 3)
        assert not outcome.meets_protection
        assert outcome.meets_utility
        assert not outcome.feasible


class TestSweepAndRun:
    def test_run_selects_a_feasible_level(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        config = FREDConfig(levels=(2, 4, 6, 8), stop_below_utility=False)
        fred = FREDAnonymizer(corpus, attack_config, config)
        result = fred.run(population.private)
        assert result.optimal_level in (2, 4, 6, 8)
        assert set(result.scores) == {2, 4, 6, 8}
        assert result.optimal_level in result.feasible_levels()
        assert result.optimal_outcome.level == result.optimal_level
        assert result.optimal_release.num_rows == population.private.num_rows
        assert "salary" not in result.optimal_release.schema

    def test_series_accessors(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        fred = FREDAnonymizer(corpus, attack_config, FREDConfig(levels=(2, 4)))
        result = fred.run(population.private)
        assert len(result.series("protection_after")) == 2
        assert len(result.series("score")) == 2
        assert len(result.series("utility")) == 2
        with pytest.raises(FREDConfigurationError):
            result.series("bogus")

    def test_summary_renders(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        fred = FREDAnonymizer(corpus, attack_config, FREDConfig(levels=(2, 4)))
        result = fred.run(population.private)
        text = result.summary()
        assert "optimal level" in text
        assert str(result.optimal_level) in text

    def test_stop_below_utility_truncates_sweep(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        # A very strict utility threshold stops the sweep immediately after the
        # first level fails it.
        config = FREDConfig(
            levels=(2, 4, 6, 8), utility_threshold=1.0, stop_below_utility=True
        )
        fred = FREDAnonymizer(corpus, attack_config, config)
        outcomes = fred.sweep(population.private)
        assert len(outcomes) == 1

    def test_infeasible_raises(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        config = FREDConfig(
            levels=(2, 3), protection_threshold=float("inf"), stop_below_utility=False
        )
        fred = FREDAnonymizer(corpus, attack_config, config)
        with pytest.raises(FREDInfeasibleError):
            fred.run(population.private)

    def test_custom_anonymizer_plugs_in(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        config = FREDConfig(levels=(2, 4), anonymizer=MondrianAnonymizer())
        fred = FREDAnonymizer(corpus, attack_config, config)
        result = fred.run(population.private)
        assert result.optimal_outcome.anonymization.anonymizer == "mondrian"

    def test_utility_weight_pushes_optimum_to_smaller_k(self, fred_inputs):
        population, corpus, attack_config = fred_inputs
        protection_heavy = FREDAnonymizer(
            corpus,
            attack_config,
            FREDConfig(levels=(2, 5, 8), objective=WeightedObjective(1.0, 0.0)),
        ).run(population.private)
        utility_heavy = FREDAnonymizer(
            corpus,
            attack_config,
            FREDConfig(levels=(2, 5, 8), objective=WeightedObjective(0.0, 1.0)),
        ).run(population.private)
        assert utility_heavy.optimal_level <= protection_heavy.optimal_level
