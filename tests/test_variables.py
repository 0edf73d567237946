"""Unit tests for linguistic variables and fuzzy sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.membership import TriangularMF
from repro.fuzzy.variables import FuzzySet, LinguisticVariable


class TestFuzzySet:
    def test_degree_delegates_to_membership(self):
        fuzzy_set = FuzzySet("mid", TriangularMF(0, 5, 10))
        assert fuzzy_set.membership(5) == pytest.approx(1.0)


class TestLinguisticVariable:
    def test_add_and_lookup_terms(self):
        variable = LinguisticVariable("x", (0, 10))
        variable.add_term("low", TriangularMF(0, 0, 5)).add_term("high", TriangularMF(5, 10, 10))
        assert variable.term_names == ("low", "high")
        assert variable.term("low").name == "low"
        with pytest.raises(FuzzyDefinitionError):
            variable.term("missing")
        with pytest.raises(FuzzyDefinitionError):
            variable.add_term("low", TriangularMF(0, 1, 2))

    def test_invalid_universe(self):
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable("x", (5, 5))

    def test_fuzzify_returns_all_terms(self):
        variable = LinguisticVariable.with_uniform_terms("x", (0, 10), ("low", "medium", "high"))
        memberships = variable.fuzzify_batch(np.array([5.0]))
        assert set(memberships) == {"low", "medium", "high"}
        assert memberships["medium"][0] == pytest.approx(1.0)
        assert all(0.0 <= degrees[0] <= 1.0 for degrees in memberships.values())

    def test_fuzzify_requires_terms(self):
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable("x", (0, 1)).fuzzify_batch(np.array([0.5]))

    def test_grid(self):
        variable = LinguisticVariable("x", (0, 10))
        grid = variable.grid(11)
        assert grid[0] == 0 and grid[-1] == 10 and len(grid) == 11
        with pytest.raises(FuzzyDefinitionError):
            variable.grid(2)


class TestUniformTerms:
    def test_extremes_are_shoulders(self):
        variable = LinguisticVariable.with_uniform_terms("x", (0, 10), ("low", "medium", "high"))
        assert variable.term("low").membership(0) == pytest.approx(1.0)
        assert variable.term("high").membership(10) == pytest.approx(1.0)

    def test_every_point_has_some_membership(self):
        variable = LinguisticVariable.with_uniform_terms("x", (0, 10), ("a", "b", "c", "d"))
        memberships = variable.fuzzify_batch(np.linspace(0, 10, 50))
        assert (np.max(list(memberships.values()), axis=0) > 0.0).all()

    def test_requires_two_terms(self):
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable.with_uniform_terms("x", (0, 1), ("only",))


class TestFromValues:
    def test_universe_covers_data_with_padding(self, rng):
        data = rng.normal(50, 10, size=200)
        variable = LinguisticVariable.from_values("x", data, ("low", "medium", "high"))
        low, high = variable.universe
        assert low <= data.min()
        assert high >= data.max()

    def test_median_value_is_mostly_medium(self, rng):
        data = rng.normal(0, 1, size=500)
        variable = LinguisticVariable.from_values("x", data, ("low", "medium", "high"))
        memberships = variable.fuzzify_batch(np.array([np.median(data)]))
        assert memberships["medium"][0] == max(degrees[0] for degrees in memberships.values())

    def test_handles_constant_data(self):
        variable = LinguisticVariable.from_values("x", [5.0, 5.0, 5.0], ("low", "high"))
        assert variable.universe[0] < variable.universe[1]

    def test_nan_values_ignored(self):
        variable = LinguisticVariable.from_values(
            "x", [1.0, float("nan"), 2.0, 3.0], ("low", "high")
        )
        assert variable.universe[0] <= 1.0

    def test_needs_two_finite_values(self):
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable.from_values("x", [float("nan")], ("low", "high"))
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable.from_values("x", [1.0, float("inf")], ("low", "high"))

    def test_infinite_values_ignored(self):
        # An inf cell (a stray overflow in a registered table) used to turn
        # the universe and the top term's foot into NaN.
        finite = [1.0, 2.0, 4.0, 8.0]
        terms = ("low", "medium", "high")
        with_inf = LinguisticVariable.from_values(
            "x", finite + [float("inf"), -float("inf")], terms
        )
        expected = LinguisticVariable.from_values("x", finite + [float("nan")], terms)
        assert with_inf == expected
        degrees = with_inf.fuzzify_batch(np.array([3.0, float("inf"), -float("inf")]))
        assert all(np.isfinite(column).all() for column in degrees.values())


class TestFromRanges:
    def test_paper_income_classes(self):
        variable = LinguisticVariable.from_ranges(
            "income",
            {
                "low": (40_000, 60_000),
                "medium": (60_000, 80_000),
                "high": (80_000, 100_000),
            },
        )
        assert variable.universe == (40_000, 100_000)
        assert variable.term("low").membership(50_000) == pytest.approx(1.0)
        assert variable.term("high").membership(95_000) == pytest.approx(1.0)
        # overlap: the boundary value belongs partially to both neighbours
        assert variable.term("medium").membership(61_000) > 0.0

    def test_empty_and_invalid_ranges(self):
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable.from_ranges("x", {})
        with pytest.raises(FuzzyDefinitionError):
            LinguisticVariable.from_ranges("x", {"bad": (5, 5)})
