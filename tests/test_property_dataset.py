"""Property-based tests (hypothesis) for the dataset substrate."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset.generalization import Interval, cover_values, numeric_representative
from repro.dataset.hierarchy import NumericHierarchy
from repro.dataset.io import parse_cell, render_cell
from repro.dataset.schema import AttributeKind

from linkage_reference import (
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    name_similarity,
)

finite_floats = st.floats(
    min_value=-1e7, max_value=1e7, allow_nan=False, allow_infinity=False
)


class TestIntervalProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_cover_values_contains_every_value(self, values):
        cell = cover_values(list(values))
        if isinstance(cell, Interval):
            for value in values:
                assert cell.contains(float(value))
        else:
            assert len(set(values)) == 1

    @given(finite_floats, finite_floats)
    def test_midpoint_inside_interval(self, a, b):
        low, high = min(a, b), max(a, b)
        interval = Interval(low, high)
        assert low <= interval.midpoint <= high
        assert interval.contains(interval.midpoint)

    @given(st.lists(finite_floats, min_size=2, max_size=20))
    def test_representative_of_cover_is_between_min_and_max(self, values):
        cell = cover_values(list(values))
        representative = numeric_representative(cell)
        assert min(values) - 1e-9 <= representative <= max(values) + 1e-9


class TestHierarchyProperties:
    @given(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.integers(min_value=1, max_value=4),
    )
    def test_generalized_interval_always_contains_clamped_value(self, value, level):
        hierarchy = NumericHierarchy(low=0, high=1000, base_width=37.0, levels=6)
        cell = hierarchy.generalize(value, level)
        assert isinstance(cell, Interval)
        assert cell.contains(value)

    @given(st.floats(min_value=0, max_value=1000, allow_nan=False))
    def test_higher_levels_never_narrow(self, value):
        hierarchy = NumericHierarchy(low=0, high=1000, base_width=25.0, levels=6)
        previous_width = 0.0
        for level in range(1, 5):
            cell = hierarchy.generalize(value, level)
            assert cell.width >= previous_width
            previous_width = cell.width


class TestCsvCellProperties:
    @given(finite_floats)
    def test_numeric_cells_round_trip(self, value):
        parsed = parse_cell(render_cell(float(value)), AttributeKind.NUMERIC)
        assert math.isclose(float(parsed), float(value), rel_tol=1e-12, abs_tol=1e-12)

    @given(finite_floats, finite_floats)
    @example(1e-05, 0.5)
    @example(-2.5e-07, -1e-07)
    def test_interval_cells_round_trip(self, a, b):
        interval = Interval(min(a, b), max(a, b))
        assert parse_cell(render_cell(interval), AttributeKind.NUMERIC) == interval


names_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x17F),
    min_size=0,
    max_size=12,
)


class TestStringSimilarityProperties:
    @given(names_strategy, names_strategy)
    @settings(max_examples=200)
    def test_levenshtein_is_a_metric(self, left, right):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)
        assert levenshtein_distance(left, left) == 0
        assert levenshtein_distance(left, right) <= max(len(left), len(right))

    @given(names_strategy, names_strategy, names_strategy)
    @settings(max_examples=100)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(names_strategy, names_strategy)
    @settings(max_examples=200)
    def test_similarities_bounded(self, left, right):
        for similarity in (
            levenshtein_similarity(left, right) if (left or right) else 1.0,
            jaro_similarity(left, right),
            jaro_winkler_similarity(left, right),
            name_similarity(left, right),
        ):
            assert 0.0 <= similarity <= 1.0 + 1e-9

    @given(names_strategy)
    @settings(max_examples=100)
    def test_identity_scores_one(self, text):
        assert jaro_similarity(text, text) == 1.0 if text else True
