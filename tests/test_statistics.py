"""Unit tests for repro.dataset.statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.statistics import standardize_matrix
from repro.exceptions import MetricError


class TestStandardize:
    def test_standardized_columns_have_zero_mean_unit_std(self, rng):
        matrix = rng.normal(10, 3, size=(50, 4))
        standardized, means, stds = standardize_matrix(matrix)
        assert np.allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(standardized.std(axis=0), 1.0, atol=1e-9)
        assert means.shape == (4,)
        assert stds.shape == (4,)

    def test_constant_column_does_not_produce_nan(self):
        matrix = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        standardized, _, stds = standardize_matrix(matrix)
        assert not np.isnan(standardized).any()
        assert stds[0] == 1.0

    def test_requires_2d(self):
        with pytest.raises(MetricError):
            standardize_matrix(np.arange(5, dtype=float))
