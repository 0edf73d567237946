"""Unit tests for the discernibility utility and related metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.base import build_release
from repro.anonymize.mdav import MDAVAnonymizer
from repro.exceptions import MetricError
from repro.metrics.utility import (
    discernibility_cost,
    discernibility_utility,
    generalized_information_loss,
    utility_of_result,
)


class TestDiscernibility:
    def test_cost_formula_all_classes_above_k(self):
        # two classes of size 3: C_DM = 9 + 9 = 18
        assert discernibility_cost([3, 3], total_records=6, k=3) == 18.0

    def test_cost_penalizes_undersized_classes(self):
        # class of size 2 with k=3 costs |D| * |E| = 6 * 2 = 12
        assert discernibility_cost([2, 4], total_records=6, k=3) == 12.0 + 16.0

    def test_utility_is_inverse_cost(self):
        assert discernibility_utility([3, 3], 6, 3) == pytest.approx(1.0 / 18.0)

    def test_best_case_is_singletons_at_k1(self):
        # k=1: every record its own class -> cost = n, the minimum possible
        assert discernibility_cost([1] * 10, 10, 1) == 10.0

    def test_worst_case_is_one_big_class(self):
        assert discernibility_cost([10], 10, 2) == 100.0

    def test_validation(self):
        with pytest.raises(MetricError):
            discernibility_cost([3, 3], total_records=5, k=3)
        with pytest.raises(MetricError):
            discernibility_cost([3, 0], total_records=3, k=1)
        with pytest.raises(MetricError):
            discernibility_cost([3], total_records=3, k=0)
        with pytest.raises(MetricError):
            discernibility_cost([3], total_records=0, k=1)

    def test_utility_decreases_with_k_on_real_partitions(self, faculty_population):
        utilities = []
        for k in (2, 4, 8):
            result = MDAVAnonymizer().anonymize(faculty_population.private, k)
            utilities.append(utility_of_result(result))
        assert utilities[0] > utilities[1] > utilities[2]


class TestOtherUtilityMetrics:
    def test_generalized_information_loss_bounds(self, simple_table):
        release_exact = simple_table.release_view()
        assert generalized_information_loss(simple_table, release_exact) == 0.0
        fully_generalized = build_release(simple_table, np.zeros(6, dtype=int), k=6)
        loss = generalized_information_loss(simple_table, fully_generalized)
        assert loss == pytest.approx(1.0)

    def test_generalized_information_loss_monotone_in_k(self, faculty_population):
        losses = []
        for k in (2, 5, 10):
            release = MDAVAnonymizer().anonymize(faculty_population.private, k).release
            losses.append(generalized_information_loss(faculty_population.private, release))
        assert losses[0] < losses[-1]

    def test_generalized_information_loss_validation(self, simple_table):
        with pytest.raises(MetricError):
            generalized_information_loss(simple_table, simple_table.take([0, 1]))
