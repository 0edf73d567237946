"""Unit tests for the Sugeno (TSK) engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.rules import parse_rules
from repro.fuzzy.tsk import SugenoSystem, term_centroids
from repro.fuzzy.variables import LinguisticVariable

from fuzzy_reference import evaluate_record


@pytest.fixture()
def variables():
    valuation = LinguisticVariable.with_uniform_terms("valuation", (1, 10), ("low", "medium", "high"))
    income = LinguisticVariable.with_uniform_terms("income", (0, 100), ("low", "medium", "high"))
    return valuation, income


@pytest.fixture()
def system(variables) -> SugenoSystem:
    valuation, income = variables
    rules = parse_rules(
        [
            "IF valuation IS low THEN income IS low",
            "IF valuation IS medium THEN income IS medium",
            "IF valuation IS high THEN income IS high",
        ]
    )
    return SugenoSystem(inputs={"valuation": valuation}, output=income, rules=rules)


class TestTermCentroids:
    def test_centroids_ordered(self, variables):
        _, income = variables
        centroids = term_centroids(income)
        assert centroids["low"] < centroids["medium"] < centroids["high"]
        assert 0 <= centroids["low"] and centroids["high"] <= 100

    def test_middle_term_centroid_is_midpoint(self, variables):
        _, income = variables
        assert term_centroids(income)["medium"] == pytest.approx(50.0, abs=0.5)


class TestSugenoSystem:
    def test_monotone_output(self, system):
        estimates = [evaluate_record(system, {"valuation": v}) for v in (1, 3, 5, 7, 9, 10)]
        assert all(b >= a - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_extremes(self, system):
        assert evaluate_record(system, {"valuation": 1}) < 35
        assert evaluate_record(system, {"valuation": 10}) > 65

    def test_missing_input_gives_central_estimate(self, system):
        estimate = evaluate_record(system, {"valuation": None})
        assert 30 < estimate < 70

    def test_explicit_consequents(self, variables):
        valuation, income = variables
        rules = parse_rules(
            ["IF valuation IS low THEN income IS low", "IF valuation IS high THEN income IS high"]
        )
        system = SugenoSystem(
            inputs={"valuation": valuation},
            output=income,
            rules=rules,
            consequents={"low": 10.0, "high": 90.0},
        )
        assert evaluate_record(system, {"valuation": 1}) == pytest.approx(10.0, abs=5.0)

    def test_unregistered_consequent_rejected(self, variables):
        valuation, income = variables
        rules = parse_rules(["IF valuation IS low THEN income IS medium"])
        with pytest.raises(FuzzyDefinitionError):
            SugenoSystem(
                inputs={"valuation": valuation},
                output=income,
                rules=rules,
                consequents={"low": 1.0, "high": 2.0},
            )

    def test_empty_rule_base_rejected(self, variables):
        valuation, income = variables
        system = SugenoSystem(inputs={"valuation": valuation}, output=income, rules=[])
        with pytest.raises(FuzzyEvaluationError):
            system.evaluate_batch({"valuation": [5.0]})

    def test_evaluate_batch(self, system):
        estimates = system.evaluate_batch({"valuation": np.array([1.0, 10.0])})
        assert estimates[1] > estimates[0]

    def test_requires_inputs(self, variables):
        _, income = variables
        with pytest.raises(FuzzyDefinitionError):
            SugenoSystem(inputs={}, output=income, rules=[])
