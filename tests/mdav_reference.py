"""The original MDAV grouping loop over a raw point matrix.

This is the arithmetic every MDAV partition is pinned to bit for bit: a
``remaining`` Python list in ascending row order, the centroid as
``points[remaining].mean(axis=0)``, squared distances as an ``einsum`` over
``points[remaining] - reference``, the farthest record as the first
``argmax`` and each group as the first ``k`` of a stable ``argsort`` with the
anchor's own distance set to ``-1``.  The golden tests and the equivalence
property both compare the live kernel with it.
"""

from __future__ import annotations

import numpy as np


def _sq_distances(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    deltas = points - reference
    return np.einsum("ij,ij->i", deltas, deltas)


def _take_group(points, remaining: list[int], anchor: int, k: int) -> list[int]:
    distances = _sq_distances(points[remaining], points[anchor])
    distances[remaining.index(anchor)] = -1.0
    order = np.argsort(distances, kind="stable")
    group = [remaining[int(i)] for i in order[:k]]
    for index in group:
        remaining.remove(index)
    return group


def _farthest_from(points, remaining: list[int], reference: np.ndarray) -> int:
    return remaining[int(np.argmax(_sq_distances(points[remaining], reference)))]


def seed_mdav_groups(points: np.ndarray, k: int) -> list[list[int]]:
    """MDAV groups of the rows of ``points``, in the order they are formed."""
    remaining = list(range(points.shape[0]))
    groups: list[list[int]] = []
    while len(remaining) >= 3 * k:
        r = _farthest_from(points, remaining, points[remaining].mean(axis=0))
        r_point = points[r].copy()
        groups.append(_take_group(points, remaining, r, k))
        s = _farthest_from(points, remaining, r_point)
        groups.append(_take_group(points, remaining, s, k))
    if len(remaining) >= 2 * k:
        r = _farthest_from(points, remaining, points[remaining].mean(axis=0))
        groups.append(_take_group(points, remaining, r, k))
    if remaining:
        groups.append(list(remaining))
    return groups
