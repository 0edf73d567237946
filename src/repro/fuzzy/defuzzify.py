"""Defuzzification strategies.

The Mamdani engine produces one aggregated output membership curve per
record over the output universe (the "D E - F U Z Z I F I E R" stage of the
paper's Figure 2); defuzzification collapses each curve to a single crisp
estimate of the sensitive attribute.  Every strategy takes the shared
``(R,)`` output universe and an ``(N, R)`` block of curves, one row per
record, and returns the ``(N,)`` crisp outputs:

* ``centroid`` — centre of gravity of the aggregated curve (Matlab default,
  used as this library's default);
* ``bisector`` — the abscissa splitting the area under the curve in half;
* ``mom`` — mean of maxima.

The one-curve versions in ``tests/fuzzy_reference.py`` are the executable
specification: row ``i`` of a batch result agrees with them on
``membership[i]`` to 1e-9 (the row-wise reductions may reassociate
floating-point sums), pinned by ``tests/test_batch_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FuzzyEvaluationError

__all__ = [
    "centroid_batch",
    "bisector_batch",
    "mean_of_maxima_batch",
    "defuzzify_batch",
    "BATCH_STRATEGIES",
]


def centroid_batch(universe: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Row-wise centre of gravity of an ``(N, R)`` block of membership curves."""
    _validate_batch(universe, membership)
    totals = np.trapezoid(membership, universe, axis=1)
    if np.any(totals <= 0.0):
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    return np.trapezoid(membership * universe, universe, axis=1) / totals


def bisector_batch(universe: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Row-wise bisector of an ``(N, R)`` block of membership curves."""
    _validate_batch(universe, membership)
    segments = (membership[:, 1:] + membership[:, :-1]) / 2.0 * np.diff(universe)
    cumulative = np.concatenate(
        [np.zeros((membership.shape[0], 1)), np.cumsum(segments, axis=1)], axis=1
    )
    totals = cumulative[:, -1]
    if np.any(totals <= 0.0):
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    # Count of entries strictly below the half-area target: a row-wise
    # searchsorted (side='left').
    indices = (cumulative < (totals / 2.0)[:, None]).sum(axis=1)
    indices = np.clip(indices, 0, len(universe) - 1)
    return universe[indices].astype(float)


def mean_of_maxima_batch(universe: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Row-wise mean of maxima of an ``(N, R)`` block of membership curves."""
    _validate_batch(universe, membership)
    peaks = membership.max(axis=1)
    if np.any(peaks <= 0.0):
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    masks = np.isclose(membership, peaks[:, None])
    return (universe * masks).sum(axis=1) / masks.sum(axis=1)


BATCH_STRATEGIES = {
    "centroid": centroid_batch,
    "bisector": bisector_batch,
    "mom": mean_of_maxima_batch,
}


def defuzzify_batch(
    universe: np.ndarray, membership: np.ndarray, strategy: str = "centroid"
) -> np.ndarray:
    """Dispatch an ``(N, R)`` curve block to a registered strategy."""
    if strategy not in BATCH_STRATEGIES:
        raise FuzzyEvaluationError(
            f"unknown defuzzification strategy {strategy!r}; options: {sorted(BATCH_STRATEGIES)}"
        )
    return BATCH_STRATEGIES[strategy](universe, membership)


def _validate_batch(universe: np.ndarray, membership: np.ndarray) -> None:
    if universe.ndim != 1 or universe.size < 3:
        raise FuzzyEvaluationError("defuzzification needs a 1-D universe with >= 3 samples")
    if membership.ndim != 2 or membership.shape[1] != universe.size:
        raise FuzzyEvaluationError(
            f"batch membership must have shape (N, {universe.size}), "
            f"got {membership.shape}"
        )
