"""Non-fuzzy estimators of the sensitive attribute.

The paper's fusion system is a fuzzy inference engine; to judge how much of
the breach comes from the *fusion idea* rather than from the particular
engine, the benchmarks compare it against simpler estimators operating on the
same merged inputs (release quasi-identifiers + harvested web attributes):

* :class:`MidpointEstimator` — always guesses the middle of the assumed
  sensitive range (the zero-information floor);
* :class:`RankScalingEstimator` — unsupervised: each record's average
  percentile rank across the available inputs is scaled onto the assumed
  sensitive range.  Like the fuzzy system it needs no labeled data, only the
  ordinal "bigger inputs, bigger income" assumption.

Estimators consume the same column block as the fuzzy engines — one ``(N,)``
float array per input name, NaN for missing cells (see
:mod:`repro.fuzzy.batch`) — so any :class:`SensitiveEstimator` is a drop-in
replacement for them inside :class:`repro.fusion.attack.WebFusionAttack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.fuzzy.batch import as_columns

__all__ = [
    "SensitiveEstimator",
    "MidpointEstimator",
    "RankScalingEstimator",
    "columns_to_matrix",
]


class SensitiveEstimator(Protocol):
    """Anything that can turn merged fusion inputs into sensitive-value estimates."""

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """One estimate per row of the column block, in order."""
        ...  # pragma: no cover - protocol


def columns_to_matrix(
    columns: Mapping[str, np.ndarray], feature_names: Sequence[str]
) -> np.ndarray:
    """Stack a column block into an ``(n, features)`` matrix, NaN where missing.

    Columns are taken in ``feature_names`` order; absent ones are all NaN.
    """
    n, columns = as_columns(columns, feature_names)
    if not feature_names:
        return np.full((n, 0), np.nan, dtype=float)
    return np.column_stack([columns[name] for name in feature_names])


@dataclass
class MidpointEstimator:
    """Always predicts the midpoint of the assumed sensitive range."""

    output_universe: tuple[float, float]

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        n, _ = as_columns(columns, ())
        midpoint = (self.output_universe[0] + self.output_universe[1]) / 2.0
        return np.full(n, midpoint, dtype=float)


@dataclass
class RankScalingEstimator:
    """Unsupervised rank-average estimator.

    Each available feature value is converted to its percentile rank within the
    batch (reversed for features whose ``direction`` is -1); a record's score is
    the mean rank of its available features, and the estimate is that score
    scaled linearly onto ``output_universe``.  Records with no available
    features fall back to the range midpoint.
    """

    feature_names: tuple[str, ...]
    output_universe: tuple[float, float]
    directions: Mapping[str, int] = field(default_factory=dict)

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        matrix = columns_to_matrix(columns, self.feature_names)
        n = matrix.shape[0]
        if n == 0:
            return np.array([], dtype=float)
        ranks = np.full_like(matrix, np.nan)
        for j, name in enumerate(self.feature_names):
            column = matrix[:, j]
            available = ~np.isnan(column)
            if available.sum() <= 1:
                ranks[available, j] = 0.5
                continue
            order = column[available].argsort(kind="stable").argsort(kind="stable")
            normalized = order / (available.sum() - 1)
            if self.directions.get(name, 1) < 0:
                normalized = 1.0 - normalized
            ranks[available, j] = normalized
        low, high = self.output_universe
        midpoint = (low + high) / 2.0
        estimates = np.full(n, midpoint, dtype=float)
        available_counts = (~np.isnan(ranks)).sum(axis=1)
        rank_sums = np.nansum(np.nan_to_num(ranks, nan=0.0), axis=1)
        has_data = available_counts > 0
        mean_rank = np.zeros(n, dtype=float)
        mean_rank[has_data] = rank_sums[has_data] / available_counts[has_data]
        estimates[has_data] = low + mean_rank[has_data] * (high - low)
        return estimates
