"""Unit tests for the weighted protection/utility objective."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import WeightedObjective
from repro.exceptions import FREDConfigurationError


class TestValidation:
    def test_negative_weights_rejected(self):
        with pytest.raises(FREDConfigurationError):
            WeightedObjective(-0.1, 0.5)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(FREDConfigurationError, match="finite"):
            WeightedObjective(protection_weight=weight)
        with pytest.raises(FREDConfigurationError, match="finite"):
            WeightedObjective(utility_weight=weight)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(FREDConfigurationError):
            WeightedObjective(0.0, 0.0)

    def test_unknown_normalization_rejected(self):
        with pytest.raises(FREDConfigurationError):
            WeightedObjective(normalization="zscore")

    def test_score_vector_validation(self):
        objective = WeightedObjective()
        with pytest.raises(FREDConfigurationError):
            objective.scores([1.0, 2.0], [1.0])
        with pytest.raises(FREDConfigurationError):
            objective.scores([], [])


class TestMinMaxScores:
    def test_balanced_weights_trade_off(self):
        objective = WeightedObjective(0.5, 0.5)
        protections = [1.0, 2.0, 3.0]
        utilities = [3.0, 2.0, 1.0]
        scores = objective.scores(protections, utilities)
        # perfectly anti-correlated inputs with equal weights -> flat objective
        assert np.allclose(scores, 0.5)

    def test_protection_heavy_weights_prefer_high_protection(self):
        objective = WeightedObjective(0.9, 0.1)
        scores = objective.scores([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert np.argmax(scores) == 2

    def test_utility_heavy_weights_prefer_high_utility(self):
        objective = WeightedObjective(0.1, 0.9)
        scores = objective.scores([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert np.argmax(scores) == 0

    def test_scores_bounded_by_weight_sum(self):
        objective = WeightedObjective(0.5, 0.5)
        scores = objective.scores([5.0, 1.0, 3.0], [0.1, 0.9, 0.5])
        assert (scores >= 0.0).all()
        assert (scores <= 1.0 + 1e-12).all()

    def test_constant_series_normalizes_to_half(self):
        objective = WeightedObjective(1.0, 0.0)
        scores = objective.scores([2.0, 2.0], [1.0, 5.0])
        assert np.allclose(scores, 0.5)


class TestRawScores:
    def test_raw_mode_is_plain_weighted_sum(self):
        objective = WeightedObjective(2.0, 3.0, normalization="none")
        scores = objective.scores([1.0, 2.0], [10.0, 20.0])
        assert scores.tolist() == [32.0, 64.0]

    def test_single_level_score(self):
        objective = WeightedObjective(0.5, 0.5)
        assert objective.score(10.0, 2.0) == pytest.approx(6.0)
