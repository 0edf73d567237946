"""Unit tests for the Mamdani inference engine and defuzzification."""

from __future__ import annotations

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.defuzzify import (
    BATCH_STRATEGIES,
    bisector_batch,
    centroid_batch,
    defuzzify_batch,
    mean_of_maxima_batch,
)
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.rules import parse_rules
from repro.fuzzy.variables import LinguisticVariable

from fuzzy_reference import evaluate_record


@pytest.fixture()
def income_system() -> MamdaniSystem:
    """A small 2-input income estimator in the style of the paper's Figure 2."""
    valuation = LinguisticVariable.with_uniform_terms("valuation", (1, 10), ("low", "medium", "high"))
    property_holdings = LinguisticVariable.with_uniform_terms(
        "property", (0, 6000), ("low", "medium", "high")
    )
    income = LinguisticVariable.with_uniform_terms(
        "income", (40_000, 160_000), ("low", "medium", "high")
    )
    rules = parse_rules(
        [
            "IF valuation IS low THEN income IS low",
            "IF valuation IS medium THEN income IS medium",
            "IF valuation IS high THEN income IS high",
            "IF property IS low THEN income IS low",
            "IF property IS medium THEN income IS medium",
            "IF property IS high THEN income IS high",
        ]
    )
    return MamdaniSystem(
        inputs={"valuation": valuation, "property": property_holdings},
        output=income,
        rules=rules,
    )


class TestDefuzzify:
    """The batch strategies on one-row ``(1, R)`` curve blocks."""

    def test_centroid_of_symmetric_curve(self):
        universe = np.linspace(0, 10, 101)
        membership = np.exp(-0.5 * ((universe - 5) / 1.0) ** 2)
        assert centroid_batch(universe, membership[None, :]) == pytest.approx([5.0], abs=1e-6)

    def test_bisector_of_symmetric_curve(self):
        universe = np.linspace(0, 10, 1001)
        membership = np.exp(-0.5 * ((universe - 5) / 1.0) ** 2)
        assert bisector_batch(universe, membership[None, :]) == pytest.approx([5.0], abs=0.05)

    def test_mean_of_maxima_plateau(self):
        universe = np.linspace(0, 10, 101)
        membership = np.where((universe >= 4) & (universe <= 6), 1.0, 0.0)
        assert mean_of_maxima_batch(universe, membership[None, :]) == pytest.approx(
            [5.0], abs=1e-6
        )

    def test_all_strategies_registered(self):
        assert set(BATCH_STRATEGIES) == {"centroid", "bisector", "mom"}

    def test_zero_curve_rejected(self):
        universe = np.linspace(0, 1, 11)
        zero = np.zeros((1, universe.size))
        with pytest.raises(FuzzyEvaluationError):
            centroid_batch(universe, zero)
        with pytest.raises(FuzzyEvaluationError):
            bisector_batch(universe, zero)
        with pytest.raises(FuzzyEvaluationError):
            mean_of_maxima_batch(universe, zero)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FuzzyEvaluationError):
            centroid_batch(np.linspace(0, 1, 5), np.zeros((1, 4)))
        with pytest.raises(FuzzyEvaluationError):
            centroid_batch(np.linspace(0, 1, 5), np.zeros(5))

    def test_unknown_strategy(self):
        universe = np.linspace(0, 1, 11)
        with pytest.raises(FuzzyEvaluationError):
            defuzzify_batch(universe, np.ones((1, universe.size)), strategy="median")


class TestMamdaniSystem:
    def test_high_inputs_give_high_estimate(self, income_system):
        high = evaluate_record(income_system, {"valuation": 9.5, "property": 5_800})
        low = evaluate_record(income_system, {"valuation": 1.5, "property": 300})
        assert high > low
        assert high > 100_000
        assert low < 100_000

    def test_output_stays_inside_universe(self, income_system):
        for valuation in (1, 3, 5, 7, 10):
            for prop in (0, 1000, 3000, 6000):
                estimate = evaluate_record(
                    income_system, {"valuation": valuation, "property": prop}
                )
                assert 40_000 <= estimate <= 160_000

    def test_monotone_in_valuation(self, income_system):
        estimates = [
            evaluate_record(income_system, {"valuation": v, "property": 3000})
            for v in (1, 3, 5, 7, 9, 10)
        ]
        assert all(b >= a - 1e-6 for a, b in zip(estimates, estimates[1:]))

    def test_missing_input_treated_as_uninformative(self, income_system):
        with_both = evaluate_record(income_system, {"valuation": 9.5, "property": 5_800})
        missing_property = evaluate_record(income_system, {"valuation": 9.5, "property": None})
        nan_property = evaluate_record(
            income_system, {"valuation": 9.5, "property": float("nan")}
        )
        assert missing_property == pytest.approx(nan_property)
        # dropping a concordant signal moves the estimate toward the middle
        assert missing_property <= with_both + 1e-6

    def test_unknown_input_rejected(self, income_system):
        with pytest.raises(FuzzyEvaluationError):
            income_system.evaluate_batch({"valuation": [5.0], "bogus": [1.0]})

    def test_empty_rule_base_rejected(self, income_system):
        empty = MamdaniSystem(
            inputs=income_system.inputs, output=income_system.output, rules=[]
        )
        with pytest.raises(FuzzyEvaluationError):
            empty.evaluate_batch({"valuation": [5.0], "property": [100.0]})

    def test_no_rule_fires_falls_back_to_midpoint(self, income_system):
        # All inputs missing -> every term has membership 1, so rules do fire;
        # instead force zero firing by weighting conditions at zero membership.
        estimate = evaluate_record(income_system, {"valuation": None, "property": None})
        assert 40_000 <= estimate <= 160_000

    def test_trace_exposes_intermediate_state(self, income_system):
        block = {"valuation": np.array([9.0, 2.0]), "property": np.array([5000.0, 500.0])}
        trace = income_system.trace(block)
        assert set(trace.fuzzified) == {"valuation", "property"}
        assert trace.fuzzified["valuation"]["high"].shape == (2,)
        assert trace.firing_strengths.shape == (2, len(income_system.rules))
        assert trace.aggregated.shape == (2, income_system.resolution)
        assert (trace.aggregated.max(axis=1) > 0).all()
        np.testing.assert_array_equal(trace.output, income_system.evaluate_batch(block))

    def test_evaluate_batch(self, income_system):
        estimates = income_system.evaluate_batch(
            {"valuation": np.array([2.0, 9.0]), "property": np.array([500.0, 5500.0])}
        )
        assert estimates.shape == (2,)
        assert estimates[1] > estimates[0]

    def test_constructor_validates_rules(self, income_system):
        from repro.fuzzy.rules import parse_rule

        with pytest.raises(FuzzyDefinitionError):
            MamdaniSystem(
                inputs=income_system.inputs,
                output=income_system.output,
                rules=[parse_rule("IF bogus IS high THEN income IS high")],
            )

    def test_unknown_defuzzification_rejected_at_construction(self, income_system):
        with pytest.raises(FuzzyDefinitionError, match="unknown defuzzification"):
            MamdaniSystem(
                inputs=income_system.inputs,
                output=income_system.output,
                rules=list(income_system.rules),
                defuzzification="median",
            )

    def test_input_key_must_match_variable_name(self):
        variable = LinguisticVariable.with_uniform_terms("x", (0, 1), ("low", "high"))
        output = LinguisticVariable.with_uniform_terms("y", (0, 1), ("low", "high"))
        with pytest.raises(FuzzyDefinitionError):
            MamdaniSystem(inputs={"wrong": variable}, output=output, rules=[])

    def test_describe_lists_rules(self, income_system):
        text = income_system.describe()
        assert "valuation" in text
        assert "rule:" in text

    def test_defuzzification_strategies_differ_but_agree_on_direction(self, income_system):
        mom_system = MamdaniSystem(
            inputs=income_system.inputs,
            output=income_system.output,
            rules=list(income_system.rules),
            defuzzification="mom",
        )
        high_centroid = evaluate_record(income_system, {"valuation": 9.5, "property": 5_800})
        high_mom = evaluate_record(mom_system, {"valuation": 9.5, "property": 5_800})
        low_mom = evaluate_record(mom_system, {"valuation": 1.5, "property": 200})
        assert high_mom > low_mom
        assert abs(high_mom - high_centroid) < 60_000


def test_evaluate_batch_memory_is_bounded_by_the_row_block():
    """The kernel never holds an ``(N, resolution)`` array: at 20k rows the
    aggregate alone would be 32 MB; the row blocks keep the peak near 8 MB,
    mostly the fuzzified columns and the firing matrix."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "test_bench_batch_fusion.py"
    spec = importlib.util.spec_from_file_location("bench_batch_fusion", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    system = bench._build_system("mamdani")
    assert (len(system.inputs), len(system.rules)) == (6, 18)
    rows = 20_000
    rng = np.random.default_rng(3)
    columns = {
        name: rng.uniform(low, high, rows) for name, (low, high) in bench.INPUT_UNIVERSES.items()
    }
    tracemalloc.start()
    try:
        system.evaluate_batch(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"evaluate_batch peaked at {peak / 2**20:.1f} MB"
