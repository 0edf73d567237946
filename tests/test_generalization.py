"""Unit tests for repro.dataset.generalization."""

from __future__ import annotations

import math

import pytest

from repro.dataset.generalization import (
    SUPPRESSED,
    CategorySet,
    Interval,
    Suppressed,
    cover_values,
    numeric_representative,
    value_to_text,
)
from repro.exceptions import HierarchyError

from builders import contains


class TestInterval:
    def test_midpoint_and_width(self):
        interval = Interval(5.0, 10.0)
        assert interval.midpoint == 7.5
        assert interval.width == 5.0

    def test_contains(self):
        interval = Interval(1.0, 3.0)
        assert contains(interval, 1.0)
        assert contains(interval, 3.0)
        assert contains(interval, 2.0)
        assert not contains(interval, 3.1)

    def test_from_values(self):
        assert Interval.from_values([3, 1, 2]) == Interval(1.0, 3.0)
        with pytest.raises(HierarchyError):
            Interval.from_values([])

    def test_invalid_bounds(self):
        with pytest.raises(HierarchyError):
            Interval(5, 4)
        with pytest.raises(HierarchyError):
            Interval(float("nan"), 2)

    def test_paper_style_rendering(self):
        assert str(Interval(5, 10)) == "[5-10]"
        assert str(Interval(1.5, 2.25)) == "[1.5-2.25]"


class TestCategorySet:
    def test_members_sorted_and_deduplicated(self):
        cells = CategorySet(["b", "a", "b"])
        assert cells.members == ("a", "b")
        assert cells.size == 2

    def test_label_defaults_to_member_list(self):
        assert str(CategorySet(["x", "y"])) == "{x, y}"

    def test_explicit_label(self):
        assert str(CategorySet(["ECE", "CSE"], label="Engineering")) == "Engineering"

    def test_contains(self):
        cells = CategorySet(["a", "b"])
        assert contains(cells, "a")
        assert not contains(cells, "c")

    def test_empty_rejected(self):
        with pytest.raises(HierarchyError):
            CategorySet([])


class TestSuppressed:
    def test_singleton(self):
        assert Suppressed() is SUPPRESSED
        assert str(SUPPRESSED) == "*"


class TestHelpers:
    def test_numeric_representative_plain_values(self):
        assert numeric_representative(5) == 5.0
        assert numeric_representative(2.5) == 2.5
        assert numeric_representative(True) == 1.0

    def test_numeric_representative_generalized(self):
        assert numeric_representative(Interval(4, 6)) == 5.0
        assert math.isnan(numeric_representative(SUPPRESSED))
        assert math.isnan(numeric_representative(CategorySet(["a"])))
        assert math.isnan(numeric_representative("not a number"))

    def test_value_to_text(self):
        assert value_to_text(5.0) == "5"
        assert value_to_text(5.5) == "5.5"
        assert value_to_text(Interval(1, 2)) == "[1-2]"
        assert value_to_text(SUPPRESSED) == "*"

    def test_cover_values_numeric(self):
        assert cover_values([3, 1, 2]) == Interval(1.0, 3.0)

    def test_cover_values_categorical(self):
        assert cover_values(["x", "y"]) == CategorySet(["x", "y"])

    def test_cover_values_single_value_passthrough(self):
        assert cover_values([7, 7, 7]) == 7
        assert cover_values(["a", "a"]) == "a"

    def test_cover_values_errors(self):
        with pytest.raises(HierarchyError):
            cover_values([])
        with pytest.raises(HierarchyError):
            cover_values([1, "a"])
