"""Mondrian multidimensional k-anonymity (LeFevre, DeWitt & Ramakrishnan).

Mondrian is the greedy top-down partitioning baseline cited by the paper
([3] in its bibliography).  The algorithm recursively splits the record set on
the median of the quasi-identifier with the widest (normalized) range, as long
as both halves retain at least ``k`` records; leaves of the recursion become
the equivalence classes, each leaf's rows labelled with one class id in
recursion (left-first) order.

The recursion carries ``np.intp`` index arrays instead of Python lists: the
median comes from ``np.median`` (introselect partition under the hood), strict
splits are boolean-mask gathers on the index array, and relaxed splits use a
stable argsort of the candidate dimension — every partitioning step is a
vectorized numpy operation over the recursion's own index array.

Compared with MDAV (the scheme used by the paper's experiments) Mondrian tends
to produce classes of more uneven size, which is precisely why it is useful as
an ablation baseline for the utility and protection curves.
"""

from __future__ import annotations

import numpy as np

from repro.anonymize.base import BaseAnonymizer
from repro.dataset.table import Table
from repro.exceptions import AnonymizationError

__all__ = ["MondrianAnonymizer"]


_EMPTY = np.empty(0, dtype=np.intp)


class MondrianAnonymizer(BaseAnonymizer):
    """Greedy median-split multidimensional partitioning."""

    name = "mondrian"

    def __init__(self, release_style: str = "interval", strict: bool = True) -> None:
        """``strict`` partitioning forbids splitting a value across partitions."""
        super().__init__(release_style=release_style)
        self.strict = strict

    def partition(self, table: Table, k: int) -> np.ndarray:
        matrix = table.quasi_identifier_matrix()
        if np.isnan(matrix).any():
            raise AnonymizationError(
                "Mondrian requires fully numeric quasi-identifiers without missing values"
            )
        spans = matrix.max(axis=0) - matrix.min(axis=0)
        spans = np.where(spans <= 0, 1.0, spans)
        leaves: list[np.ndarray] = []
        self._split(matrix, spans, np.arange(table.num_rows, dtype=np.intp), k, leaves)
        labels = np.empty(table.num_rows, dtype=np.intp)
        for class_id, leaf in enumerate(leaves):
            labels[leaf] = class_id
        return labels

    def _split(
        self,
        matrix: np.ndarray,
        spans: np.ndarray,
        indices: np.ndarray,
        k: int,
        out: list[np.ndarray],
    ) -> None:
        if indices.size < 2 * k:
            out.append(indices)
            return

        subset = matrix[indices]
        normalized_ranges = (subset.max(axis=0) - subset.min(axis=0)) / spans
        for dimension in np.argsort(normalized_ranges)[::-1]:
            dimension = int(dimension)
            if normalized_ranges[dimension] <= 0:
                break
            left, right = self._partition_on(subset[:, dimension], indices, k)
            if left.size and right.size:
                self._split(matrix, spans, left, k, out)
                self._split(matrix, spans, right, k, out)
                return
        out.append(indices)

    def _partition_on(
        self, values: np.ndarray, indices: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split ``indices`` at the median of ``values``; empty arrays when invalid."""
        median = float(np.median(values))
        if self.strict:
            below = values <= median
            left = indices[below]
            right = indices[~below]
        else:
            order = np.argsort(values, kind="stable")
            half = indices.size // 2
            left = indices[order[:half]]
            right = indices[order[half:]]
        if left.size < k or right.size < k:
            return _EMPTY, _EMPTY
        return left, right
