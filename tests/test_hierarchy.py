"""Unit tests for repro.dataset.hierarchy."""

from __future__ import annotations

import pytest

from repro.dataset.generalization import SUPPRESSED, Interval
from repro.dataset.hierarchy import NumericHierarchy
from repro.exceptions import HierarchyError

from builders import contains, generalize_value


class TestNumericHierarchy:
    def test_level_zero_is_identity(self):
        hierarchy = NumericHierarchy(low=0, high=100, base_width=10)
        assert generalize_value(hierarchy, 42, 0) == 42

    def test_top_level_is_suppression(self):
        hierarchy = NumericHierarchy(low=0, high=100, base_width=10, levels=4)
        assert generalize_value(hierarchy, 42, 3) is SUPPRESSED

    def test_intermediate_levels_are_intervals(self):
        hierarchy = NumericHierarchy(low=0, high=100, base_width=10, branching=2, levels=5)
        cell = generalize_value(hierarchy, 42, 1)
        assert isinstance(cell, Interval)
        assert cell == Interval(40, 50)
        wider = generalize_value(hierarchy, 42, 2)
        assert wider == Interval(40, 60)
        assert wider.width > cell.width

    def test_interval_contains_the_value(self):
        hierarchy = NumericHierarchy(low=0, high=100, base_width=7, levels=5)
        for level in (1, 2, 3):
            for value in (0, 13, 55.5, 100):
                cell = generalize_value(hierarchy, value, level)
                assert isinstance(cell, Interval)
                assert contains(cell, min(max(value, 0), 100))

    def test_out_of_domain_values_are_clamped(self):
        hierarchy = NumericHierarchy(low=0, high=10, base_width=2, levels=4)
        cell = generalize_value(hierarchy, 25, 1)
        assert isinstance(cell, Interval)
        assert cell.high <= 10

    def test_width_grows_with_level(self):
        hierarchy = NumericHierarchy(low=0, high=64, base_width=4, branching=2, levels=5)
        assert hierarchy.width_at(1) == 4
        assert hierarchy.width_at(2) == 8
        assert hierarchy.width_at(3) == 16

    def test_level_out_of_range(self):
        hierarchy = NumericHierarchy(low=0, high=10, base_width=1, levels=3)
        with pytest.raises(HierarchyError):
            generalize_value(hierarchy, 5, 3)
        with pytest.raises(HierarchyError):
            generalize_value(hierarchy, 5, -1)

    def test_invalid_construction(self):
        with pytest.raises(HierarchyError):
            NumericHierarchy(low=10, high=0, base_width=1)
        with pytest.raises(HierarchyError):
            NumericHierarchy(low=0, high=10, base_width=0)
        with pytest.raises(HierarchyError):
            NumericHierarchy(low=0, high=10, base_width=1, branching=1)
        with pytest.raises(HierarchyError):
            NumericHierarchy(low=0, high=10, base_width=1, levels=1)
