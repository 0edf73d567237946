"""Unit tests for rule induction and the non-fuzzy baseline estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fusion.estimators import (
    MidpointEstimator,
    RankScalingEstimator,
    columns_to_matrix,
)
from repro.fusion.rulegen import monotone_rules, wang_mendel_rules
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.variables import LinguisticVariable


@pytest.fixture()
def io_variables():
    inputs = {
        "score": LinguisticVariable.with_uniform_terms("score", (0, 10), ("low", "medium", "high")),
        "debt": LinguisticVariable.with_uniform_terms("debt", (0, 100), ("low", "medium", "high")),
    }
    output = LinguisticVariable.with_uniform_terms("income", (0, 100), ("low", "medium", "high"))
    return inputs, output


class TestMonotoneRules:
    def test_one_rule_per_input_term(self, io_variables):
        inputs, output = io_variables
        rules = monotone_rules(inputs, output)
        assert len(rules) == 6
        assert all(len(rule.conditions) == 1 for rule in rules)

    def test_positive_direction_maps_low_to_low(self, io_variables):
        inputs, output = io_variables
        rules = monotone_rules({"score": inputs["score"]}, output)
        mapping = {rule.conditions[0].term: rule.consequent_term for rule in rules}
        assert mapping == {"low": "low", "medium": "medium", "high": "high"}

    def test_negative_direction_reverses(self, io_variables):
        inputs, output = io_variables
        rules = monotone_rules({"debt": inputs["debt"]}, output, directions={"debt": -1})
        mapping = {rule.conditions[0].term: rule.consequent_term for rule in rules}
        assert mapping == {"low": "high", "medium": "medium", "high": "low"}

    def test_term_count_mismatch_is_rescaled(self, io_variables):
        _, output = io_variables
        five_term_input = LinguisticVariable.with_uniform_terms(
            "x", (0, 1), ("t1", "t2", "t3", "t4", "t5")
        )
        rules = monotone_rules({"x": five_term_input}, output)
        consequents = [rule.consequent_term for rule in rules]
        assert consequents[0] == "low" and consequents[-1] == "high"
        assert "medium" in consequents

    def test_rules_drive_a_monotone_system(self, io_variables):
        inputs, output = io_variables
        system = MamdaniSystem(
            inputs=inputs, output=output, rules=monotone_rules(inputs, output)
        )
        low = system.evaluate({"score": 1, "debt": 10})
        high = system.evaluate({"score": 9, "debt": 90})
        assert high > low

    def test_validation(self, io_variables):
        inputs, output = io_variables
        with pytest.raises(FuzzyDefinitionError):
            monotone_rules(inputs, output, directions={"score": 2})
        single_term_output = LinguisticVariable("y", (0, 1))
        single_term_output.add_term("only", inputs["score"].term("low").membership)
        with pytest.raises(FuzzyDefinitionError):
            monotone_rules(inputs, single_term_output)


class TestWangMendel:
    def test_learns_the_obvious_mapping(self, io_variables):
        inputs, output = io_variables
        records = [{"score": 1.0, "debt": 90.0}, {"score": 5.0, "debt": 50.0}, {"score": 9.0, "debt": 10.0}]
        targets = [10.0, 50.0, 90.0]
        rules = wang_mendel_rules(records, targets, inputs, output)
        assert rules
        system = MamdaniSystem(inputs=inputs, output=output, rules=rules)
        assert system.evaluate(records[2]) > system.evaluate(records[0])

    def test_conflicting_examples_keep_highest_degree(self, io_variables):
        inputs, output = io_variables
        records = [{"score": 9.0}, {"score": 9.5}]
        targets = [90.0, 20.0]  # conflicting consequents for the same antecedent
        rules = wang_mendel_rules(records, targets, {"score": inputs["score"]}, output)
        assert len(rules) == 1

    def test_missing_inputs_are_skipped(self, io_variables):
        inputs, output = io_variables
        rules = wang_mendel_rules(
            [{"score": 9.0, "debt": None}], [90.0], inputs, output
        )
        assert all("debt" not in {c.variable for c in rule.conditions} for rule in rules)

    def test_validation(self, io_variables):
        inputs, output = io_variables
        with pytest.raises(FuzzyDefinitionError):
            wang_mendel_rules([], [], inputs, output)
        with pytest.raises(FuzzyDefinitionError):
            wang_mendel_rules([{"score": 1.0}], [1.0, 2.0], inputs, output)
        with pytest.raises(FuzzyDefinitionError):
            wang_mendel_rules([{"score": None}], [1.0], inputs, output)


class TestColumnsToMatrix:
    def test_missing_values_become_nan(self):
        # A None cell and an absent column ("b") both come out as NaN.
        matrix = columns_to_matrix({"a": [1.0, None]}, ["a", "b"])
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 1.0
        assert np.isnan(matrix[0, 1]) and np.isnan(matrix[1, 0]) and np.isnan(matrix[1, 1])

    def test_record_list_is_rejected_with_the_column_layout_named(self):
        with pytest.raises(FuzzyEvaluationError, match="column block"):
            RankScalingEstimator(("x",), (0.0, 1.0)).evaluate_batch([{"x": 1.0}])


class TestMidpointEstimator:
    def test_constant_output(self):
        estimator = MidpointEstimator((0.0, 100.0))
        estimates = estimator.evaluate_batch({"x": np.array([np.nan, 1.0])})
        assert np.allclose(estimates, 50.0)


class TestRankScalingEstimator:
    def test_recovers_order(self):
        estimator = RankScalingEstimator(("x",), (0.0, 100.0))
        estimates = estimator.evaluate_batch({"x": np.array([5.0, 1.0, 9.0])})
        assert estimates[2] > estimates[0] > estimates[1]
        assert estimates.min() >= 0 and estimates.max() <= 100

    def test_negative_direction(self):
        estimator = RankScalingEstimator(("x",), (0.0, 100.0), directions={"x": -1})
        estimates = estimator.evaluate_batch({"x": np.array([1.0, 9.0])})
        assert estimates[0] > estimates[1]

    def test_records_without_data_get_midpoint(self):
        estimator = RankScalingEstimator(("x",), (0.0, 100.0))
        estimates = estimator.evaluate_batch({"x": np.array([np.nan, 3.0, 7.0])})
        assert estimates[0] == pytest.approx(50.0)

    def test_empty_batch(self):
        estimator = RankScalingEstimator(("x",), (0.0, 100.0))
        assert estimator.evaluate_batch({"x": np.array([])}).size == 0
