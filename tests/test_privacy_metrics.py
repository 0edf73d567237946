"""Unit tests for information gain and per-record breach metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MetricError
from repro.metrics.information_gain import information_gain
from repro.metrics.privacy import (
    breach_rate,
    mean_absolute_error,
    rank_correlation,
    reidentification_risk,
    relative_errors,
    root_mean_square_error,
)


class TestInformationGain:
    def test_gain_positive_when_estimates_beat_midpoint(self, simple_table):
        from repro.anonymize.mdav import MDAVAnonymizer

        release = MDAVAnonymizer().anonymize(simple_table, 2).release
        truth = simple_table.sensitive_vector()
        good_estimates = truth + 1_000.0
        gain = information_gain(simple_table, release, good_estimates, (40_000.0, 110_000.0))
        assert gain > 0

    def test_gain_negative_when_fusion_misleads(self, simple_table):
        from repro.anonymize.mdav import MDAVAnonymizer

        release = MDAVAnonymizer().anonymize(simple_table, 2).release
        bad_estimates = np.full(6, 1_000_000.0)
        gain = information_gain(simple_table, release, bad_estimates, (40_000.0, 110_000.0))
        assert gain < 0


class TestRelativeErrors:
    def test_basic(self):
        errors = relative_errors([100.0, 200.0], [110.0, 150.0])
        assert errors.tolist() == pytest.approx([0.1, 0.25])

    def test_zero_truth_uses_absolute_error(self):
        errors = relative_errors([0.0], [3.0])
        assert errors[0] == 3.0

    def test_shape_validation(self):
        with pytest.raises(MetricError):
            relative_errors([1.0], [1.0, 2.0])
        with pytest.raises(MetricError):
            relative_errors([], [])


class TestBreachRate:
    def test_counts_fraction_within_tolerance(self):
        truth = [100.0, 100.0, 100.0, 100.0]
        estimates = [101.0, 109.0, 150.0, 95.0]
        assert breach_rate(truth, estimates, tolerance=0.1) == 0.75

    def test_tolerance_validation(self):
        with pytest.raises(MetricError):
            breach_rate([1.0], [1.0], tolerance=0.0)


class TestErrorAggregates:
    def test_mae_and_rmse(self):
        truth = [0.0, 0.0]
        estimates = [3.0, -4.0]
        assert mean_absolute_error(truth, estimates) == 3.5
        assert root_mean_square_error(truth, estimates) == pytest.approx(np.sqrt(12.5))


class TestRankCorrelation:
    def test_perfect_ordering(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_constant_vector_gives_zero(self):
        assert rank_correlation([1, 2, 3], [5, 5, 5]) == 0.0

    def test_ties_handled(self):
        value = rank_correlation([1, 1, 2, 3], [1, 1, 2, 3])
        assert value == pytest.approx(1.0)

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=50)
        assert rank_correlation(x, np.exp(x)) == pytest.approx(1.0)


class TestReidentificationRisk:
    def test_singletons_have_full_risk(self):
        assert reidentification_risk(np.arange(4)) == 1.0

    def test_risk_decreases_with_class_size(self):
        small = np.array([0, 0, 1, 1])
        large = np.zeros(4, dtype=int)
        assert reidentification_risk(large) < reidentification_risk(small)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            reidentification_risk(np.array([], dtype=int))
