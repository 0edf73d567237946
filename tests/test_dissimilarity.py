"""Unit tests for the Definition-1 dissimilarity and adversary-estimate matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.mdav import MDAVAnonymizer
from repro.exceptions import MetricError
from repro.metrics.dissimilarity import (
    adversary_estimate_matrix,
    dissimilarity_after_fusion,
    dissimilarity_before_fusion,
    mean_square_dissimilarity,
    private_matrix,
)

from builders import naive_release


class TestMeanSquareDissimilarity:
    def test_identical_matrices_have_zero_dissimilarity(self, rng):
        matrix = rng.normal(size=(10, 3))
        assert mean_square_dissimilarity(matrix, matrix) == pytest.approx(0.0)

    def test_matches_definition(self):
        first = np.array([[1.0, 2.0], [3.0, 4.0]])
        second = np.array([[1.0, 0.0], [0.0, 4.0]])
        delta = first - second
        expected = np.trace(delta.T @ delta) / 2.0
        assert mean_square_dissimilarity(first, second) == pytest.approx(expected)

    def test_symmetry(self, rng):
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(8, 2))
        assert mean_square_dissimilarity(a, b) == pytest.approx(mean_square_dissimilarity(b, a))

    def test_scales_with_squared_error(self):
        truth = np.zeros((5, 1))
        assert mean_square_dissimilarity(truth, truth + 2.0) == pytest.approx(4.0)
        assert mean_square_dissimilarity(truth, truth + 4.0) == pytest.approx(16.0)

    def test_vector_inputs_accepted(self):
        assert mean_square_dissimilarity(np.zeros(4), np.ones(4)) == pytest.approx(1.0)

    def test_validation(self, rng):
        with pytest.raises(MetricError):
            mean_square_dissimilarity(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(MetricError):
            mean_square_dissimilarity(np.zeros((0, 2)), np.zeros((0, 2)))
        with_nan = np.array([[np.nan, 1.0]])
        with pytest.raises(MetricError):
            mean_square_dissimilarity(with_nan, np.zeros((1, 2)))


class TestPrivateMatrix:
    def test_contains_qis_and_sensitive(self, simple_table):
        matrix = private_matrix(simple_table)
        assert matrix.shape == (6, 2)  # age + salary ('city' is categorical)
        assert matrix[0, 1] == 52_000.0


class TestAdversaryEstimateMatrix:
    def test_before_fusion_uses_assumed_midpoint(self, simple_table):
        release = naive_release(simple_table).release
        estimate = adversary_estimate_matrix(
            simple_table, release, assumed_sensitive_range=(0.0, 100_000.0)
        )
        assert np.allclose(estimate[:, -1], 50_000.0)
        # quasi-identifiers pass through exactly for a naive release
        assert np.allclose(estimate[:, 0], simple_table.numeric_column("age"))

    def test_after_fusion_uses_estimates(self, simple_table):
        release = naive_release(simple_table).release
        estimates = np.linspace(10_000.0, 60_000.0, 6)
        matrix = adversary_estimate_matrix(
            simple_table, release, sensitive_estimates=estimates
        )
        assert np.allclose(matrix[:, -1], estimates)

    def test_generalized_release_uses_midpoints(self, simple_table):
        release = MDAVAnonymizer().anonymize(simple_table, 3).release
        matrix = adversary_estimate_matrix(
            simple_table, release, assumed_sensitive_range=(0.0, 1.0)
        )
        assert matrix.shape == (6, 2)
        assert not np.isnan(matrix).any()

    def test_validation(self, simple_table):
        release = naive_release(simple_table).release
        with pytest.raises(MetricError):
            adversary_estimate_matrix(simple_table, release)
        with pytest.raises(MetricError):
            adversary_estimate_matrix(
                simple_table, release, assumed_sensitive_range=(2.0, 1.0)
            )
        with pytest.raises(MetricError):
            adversary_estimate_matrix(
                simple_table, release, sensitive_estimates=np.zeros(3)
            )
        short_release = release.take([0, 1, 2])
        with pytest.raises(MetricError):
            adversary_estimate_matrix(
                simple_table, short_release, assumed_sensitive_range=(0.0, 1.0)
            )


class TestBeforeAfterFusion:
    def test_perfect_estimates_leave_only_generalization_error(self, simple_table):
        release = MDAVAnonymizer().anonymize(simple_table, 2).release
        truth = simple_table.sensitive_vector()
        after = dissimilarity_after_fusion(simple_table, release, truth)
        before = dissimilarity_before_fusion(simple_table, release, (40_000.0, 110_000.0))
        assert after < before
        # perfect sensitive estimates leave only the (small) QI generalization error
        assert after < 1_000.0

    def test_before_fusion_grows_with_worse_assumed_range(self, simple_table):
        release = MDAVAnonymizer().anonymize(simple_table, 2).release
        close = dissimilarity_before_fusion(simple_table, release, (40_000.0, 110_000.0))
        far = dissimilarity_before_fusion(simple_table, release, (200_000.0, 400_000.0))
        assert far > close
