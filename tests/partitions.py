"""Partition helpers shared by the golden, property and benchmark tests.

Anonymizers return a partition as a ``(n,)`` row→class label array; the seed
reference implementations return lists of row tuples.  :func:`classes_of`
turns the former into the latter so the two compare directly.
"""

from __future__ import annotations

import numpy as np


def classes_of(labels: np.ndarray) -> list[tuple[int, ...]]:
    """The classes of ``labels`` as row tuples: class ids ascending, rows ascending."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    boundaries = np.cumsum(np.bincount(labels))[:-1]
    return [tuple(rows.tolist()) for rows in np.split(order, boundaries)]
