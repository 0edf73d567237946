"""Unit tests for fuzzy rules and the textual rule language."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.rules import Condition, FuzzyRule, parse_rule, parse_rules
from repro.fuzzy.variables import LinguisticVariable


@pytest.fixture()
def fuzzified():
    """One record's fuzzified inputs, as one-row degree columns."""
    degrees = {
        "valuation": {"low": 0.1, "medium": 0.3, "high": 0.9},
        "property": {"low": 0.7, "medium": 0.2, "high": 0.05},
    }
    return {
        name: {term: np.array([value]) for term, value in terms.items()}
        for name, terms in degrees.items()
    }


class TestCondition:
    def test_evaluate(self, fuzzified):
        assert Condition("valuation", "high").evaluate_batch(fuzzified) == [0.9]
        assert Condition("property", "low").evaluate_batch(fuzzified) == [0.7]

    def test_negation(self, fuzzified):
        negated = Condition("valuation", "high", negated=True)
        assert negated.evaluate_batch(fuzzified) == pytest.approx([0.1])

    def test_unknown_variable_or_term(self, fuzzified):
        with pytest.raises(FuzzyEvaluationError):
            Condition("missing", "high").evaluate_batch(fuzzified)
        with pytest.raises(FuzzyEvaluationError):
            Condition("valuation", "missing").evaluate_batch(fuzzified)

    def test_str(self):
        assert str(Condition("x", "low")) == "x IS low"
        assert str(Condition("x", "low", negated=True)) == "x IS NOT low"


class TestFuzzyRule:
    def test_and_uses_min(self, fuzzified):
        rule = FuzzyRule(
            conditions=(Condition("valuation", "high"), Condition("property", "low")),
            consequent_term="medium",
            operator="and",
        )
        assert rule.firing_strength_batch(fuzzified) == pytest.approx([0.7])

    def test_or_uses_max(self, fuzzified):
        rule = FuzzyRule(
            conditions=(Condition("valuation", "high"), Condition("property", "high")),
            consequent_term="high",
            operator="or",
        )
        assert rule.firing_strength_batch(fuzzified) == pytest.approx([0.9])

    def test_weight_scales_strength(self, fuzzified):
        rule = FuzzyRule(
            conditions=(Condition("valuation", "high"),),
            consequent_term="high",
            weight=0.5,
        )
        assert rule.firing_strength_batch(fuzzified) == pytest.approx([0.45])

    def test_validation(self):
        with pytest.raises(FuzzyDefinitionError):
            FuzzyRule(conditions=(), consequent_term="x")
        with pytest.raises(FuzzyDefinitionError):
            FuzzyRule(conditions=(Condition("a", "b"),), consequent_term="x", operator="xor")
        with pytest.raises(FuzzyDefinitionError):
            FuzzyRule(conditions=(Condition("a", "b"),), consequent_term="x", weight=0.0)

    def test_variables_and_str(self):
        rule = FuzzyRule(
            conditions=(Condition("a", "low"), Condition("b", "high")),
            consequent_term="medium",
        )
        assert rule.variables() == {"a", "b"}
        assert "IF a IS low AND b IS high THEN medium" == str(rule)

    def test_validate_against(self):
        inputs = {"x": LinguisticVariable.with_uniform_terms("x", (0, 1), ("low", "high"))}
        output = LinguisticVariable.with_uniform_terms("y", (0, 1), ("low", "high"))
        good = FuzzyRule(conditions=(Condition("x", "low"),), consequent_term="high")
        good.validate_against(inputs, output)
        bad_variable = FuzzyRule(conditions=(Condition("z", "low"),), consequent_term="high")
        with pytest.raises(FuzzyDefinitionError):
            bad_variable.validate_against(inputs, output)
        bad_term = FuzzyRule(conditions=(Condition("x", "tiny"),), consequent_term="high")
        with pytest.raises(FuzzyDefinitionError):
            bad_term.validate_against(inputs, output)


class TestParser:
    def test_single_condition(self):
        rule = parse_rule("IF valuation IS high THEN income IS high")
        assert rule.conditions == (Condition("valuation", "high"),)
        assert rule.consequent_term == "high"
        assert rule.operator == "and"
        assert rule.weight == 1.0

    def test_and_rule(self):
        rule = parse_rule(
            "IF valuation IS high AND property_holdings IS high THEN income IS high"
        )
        assert len(rule.conditions) == 2
        assert rule.operator == "and"

    def test_or_rule(self):
        rule = parse_rule("IF a IS low OR b IS low THEN income IS low")
        assert rule.operator == "or"

    def test_negated_condition(self):
        rule = parse_rule("IF a IS NOT low THEN income IS medium")
        assert rule.conditions[0].negated

    def test_weight_clause(self):
        rule = parse_rule("IF a IS low THEN income IS low WITH 0.4")
        assert rule.weight == pytest.approx(0.4)

    def test_case_insensitive(self):
        rule = parse_rule("if a is LOW then income is high")
        assert rule.conditions[0].term == "LOW"
        assert rule.consequent_term == "high"

    def test_mixed_and_or_rejected(self):
        with pytest.raises(FuzzyDefinitionError):
            parse_rule("IF a IS low AND b IS low OR c IS low THEN y IS low")

    def test_malformed_rejected(self):
        with pytest.raises(FuzzyDefinitionError):
            parse_rule("valuation high means income high")
        with pytest.raises(FuzzyDefinitionError):
            parse_rule("IF THEN income IS high")

    def test_output_variable_check(self):
        with pytest.raises(FuzzyDefinitionError):
            parse_rule("IF a IS low THEN wrong IS high", output_variable="income")
        rule = parse_rule("IF a IS low THEN income IS high", output_variable="income")
        assert rule.consequent_term == "high"

    def test_parse_rules_skips_comments_and_blanks(self):
        rules = parse_rules(
            [
                "# domain knowledge",
                "",
                "IF a IS low THEN income IS low",
                "IF a IS high THEN income IS high",
            ]
        )
        assert len(rules) == 2
