"""Unit tests for fuzzy membership functions (called on scalars and arrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.membership import TrapezoidalMF, TriangularMF

from builders import GaussianMF


class TestTriangular:
    def test_peak_and_feet(self):
        mf = TriangularMF(0, 5, 10)
        assert mf(5) == pytest.approx(1.0)
        assert mf(0) == pytest.approx(0.0)
        assert mf(10) == pytest.approx(0.0)
        assert mf(2.5) == pytest.approx(0.5)
        assert mf(7.5) == pytest.approx(0.5)

    def test_outside_support_is_zero(self):
        mf = TriangularMF(0, 5, 10)
        assert mf(-1) == 0.0
        assert mf(11) == 0.0

    def test_degenerate_left_edge(self):
        mf = TriangularMF(0, 0, 10)
        assert mf(0) == pytest.approx(1.0)
        assert mf(5) == pytest.approx(0.5)

    def test_vectorized(self):
        mf = TriangularMF(0, 1, 2)
        values = mf(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert np.allclose(values, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_validation(self):
        with pytest.raises(FuzzyDefinitionError):
            TriangularMF(5, 4, 6)
        with pytest.raises(FuzzyDefinitionError):
            TriangularMF(1, 1, 1)


class TestTrapezoidal:
    def test_plateau(self):
        mf = TrapezoidalMF(0, 2, 4, 6)
        assert mf(2) == pytest.approx(1.0)
        assert mf(3) == pytest.approx(1.0)
        assert mf(4) == pytest.approx(1.0)
        assert mf(1) == pytest.approx(0.5)
        assert mf(5) == pytest.approx(0.5)

    def test_left_shoulder(self):
        mf = TrapezoidalMF(0, 0, 3, 6)
        assert mf(0) == pytest.approx(1.0)
        assert mf(4.5) == pytest.approx(0.5)

    def test_right_shoulder(self):
        mf = TrapezoidalMF(0, 3, 6, 6)
        assert mf(6) == pytest.approx(1.0)
        assert mf(1.5) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(FuzzyDefinitionError):
            TrapezoidalMF(0, 3, 2, 6)
        with pytest.raises(FuzzyDefinitionError):
            TrapezoidalMF(1, 1, 1, 1)

    def test_values_in_unit_interval(self):
        mf = TrapezoidalMF(0, 2, 4, 6)
        values = mf(np.linspace(-5, 11, 100))
        assert (values >= 0).all() and (values <= 1).all()


class TestGaussian:
    def test_peak_at_mean(self):
        mf = GaussianMF(mean=5, sigma=1)
        assert mf(5) == pytest.approx(1.0)
        assert mf(6) == pytest.approx(np.exp(-0.5))

    def test_symmetric(self):
        mf = GaussianMF(mean=0, sigma=2)
        assert mf(-3) == pytest.approx(mf(3))

    def test_validation(self):
        with pytest.raises(FuzzyDefinitionError):
            GaussianMF(0, 0)
