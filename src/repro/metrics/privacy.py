"""Per-record privacy-breach metrics.

The paper's dissimilarity measure is an aggregate (mean squared error across
the whole population).  For a finer-grained view of the breach — which the
examples and ablation benchmarks use to tell *whose* income the adversary
pinned down — this module provides the standard disclosure-risk metrics from
the record-linkage / microdata-protection literature:

* relative error of each estimate;
* **breach rate**: the fraction of individuals whose estimate falls within a
  tolerance band around their true value (interval disclosure);
* Spearman rank correlation between true and estimated values (did the
  adversary learn the ordering, even if not the amounts?);
* re-identification risk of a release: the expected probability of singling a
  record out of its equivalence class (``mean(1 / |E|)``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import MetricError

__all__ = [
    "relative_errors",
    "breach_rate",
    "mean_absolute_error",
    "root_mean_square_error",
    "rank_correlation",
    "reidentification_risk",
]


def _validate_pair(true_values: np.ndarray, estimates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    true_values = np.asarray(true_values, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if true_values.shape != estimates.shape or true_values.ndim != 1:
        raise MetricError(
            f"true values and estimates must be equal-length vectors, got "
            f"{true_values.shape} vs {estimates.shape}"
        )
    if true_values.size == 0:
        raise MetricError("cannot compute breach metrics on empty vectors")
    return true_values, estimates


def relative_errors(true_values: Sequence[float], estimates: Sequence[float]) -> np.ndarray:
    """``|estimate - true| / |true|`` per record (records with true == 0 use absolute error)."""
    truth, guesses = _validate_pair(np.asarray(true_values), np.asarray(estimates))
    denominators = np.where(np.abs(truth) > 0, np.abs(truth), 1.0)
    return np.abs(guesses - truth) / denominators


def breach_rate(
    true_values: Sequence[float], estimates: Sequence[float], tolerance: float = 0.1
) -> float:
    """Fraction of records whose estimate lies within ``tolerance`` relative error."""
    if tolerance <= 0:
        raise MetricError("tolerance must be positive")
    errors = relative_errors(true_values, estimates)
    return float(np.mean(errors <= tolerance))


def mean_absolute_error(true_values: Sequence[float], estimates: Sequence[float]) -> float:
    """Mean absolute estimation error."""
    truth, guesses = _validate_pair(np.asarray(true_values), np.asarray(estimates))
    return float(np.mean(np.abs(guesses - truth)))


def root_mean_square_error(true_values: Sequence[float], estimates: Sequence[float]) -> float:
    """Root mean squared estimation error."""
    truth, guesses = _validate_pair(np.asarray(true_values), np.asarray(estimates))
    return float(np.sqrt(np.mean((guesses - truth) ** 2)))


def rank_correlation(true_values: Sequence[float], estimates: Sequence[float]) -> float:
    """Spearman rank correlation between true and estimated values.

    Returns 0 when either vector is constant (no ordering information).
    """
    truth, guesses = _validate_pair(np.asarray(true_values), np.asarray(estimates))
    if np.allclose(truth, truth[0]) or np.allclose(guesses, guesses[0]):
        return 0.0

    def _ranks(values: np.ndarray) -> np.ndarray:
        order = values.argsort(kind="stable")
        ranks = np.empty_like(order, dtype=float)
        ranks[order] = np.arange(len(values), dtype=float)
        # average ranks of ties
        unique, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        sums = np.zeros(len(unique))
        np.add.at(sums, inverse, ranks)
        return sums[inverse] / counts[inverse]

    truth_ranks = _ranks(truth)
    guess_ranks = _ranks(guesses)
    truth_centered = truth_ranks - truth_ranks.mean()
    guess_centered = guess_ranks - guess_ranks.mean()
    denominator = np.sqrt((truth_centered**2).sum() * (guess_centered**2).sum())
    if denominator <= 0:
        return 0.0
    return float((truth_centered * guess_centered).sum() / denominator)


def reidentification_risk(labels: np.ndarray) -> float:
    """Expected probability of singling a record out of its equivalence class.

    Each record in a class of size ``s`` is re-identified with probability
    ``1/s``, so the mean over the ``n`` rows of the ``(n,)`` row→class label
    array is the class count over the row count, ``m / n``.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise MetricError("no equivalence classes supplied")
    return float(np.count_nonzero(np.bincount(labels)) / labels.size)
