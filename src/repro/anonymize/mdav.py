"""MDAV microaggregation (Maximum Distance to Average Vector).

The paper's experiments k-anonymize the non-sensitive attributes with
"microaggregation based k-anonymization proposed in [9]" (Domingo-Ferrer &
Mateo-Sanz).  MDAV is the canonical fixed-size microaggregation heuristic from
that line of work:

1. while at least ``3k`` records remain: compute the centroid of the remaining
   records, take the record ``r`` farthest from the centroid and group it with
   its ``k-1`` nearest neighbours; then take the record ``s`` farthest from
   ``r`` among the records still remaining and group it with its ``k-1``
   nearest neighbours;
2. if between ``2k`` and ``3k-1`` records remain: form one group of ``k``
   around the record farthest from the centroid, and a final group with the
   rest;
3. otherwise the remaining (``k`` to ``2k-1``) records form the last group.

Distances are Euclidean over the column-standardized numeric quasi-identifier
matrix.  All groups end up with between ``k`` and ``2k - 1`` records, the
property the discernibility utility metric and the dissimilarity measure rely
on.  The partition is a row→group label array: each group's id is written to
its rows as the group is formed.

**The reference arithmetic.**  Partitions are pinned bit for bit to the
original row-major formulation: the centroid is
``points[active].mean(axis=0)``, a squared distance is
``np.einsum("ij,ij->i", deltas, deltas)`` over ``deltas = rows - reference``,
the farthest record is the first ``argmax`` and a group is the first ``k`` of
a stable ``argsort`` with the anchor's own distance set to ``-1`` (ties go to
the lowest row).  ``einsum``'s summation order over the ``d`` columns depends
on the numpy build, so a faster layout cannot simply reproduce it.

**Filter, then verify.**  :class:`_ActiveSet` keeps the not-yet-grouped
records as a ``(d, n)`` C-contiguous column block (always a copy: for
``d = 1`` ``points.T`` is already contiguous and ``np.ascontiguousarray``
would return a view of the caller's matrix, which the retirement step then
overwrites) with their row ids alongside, both in ascending row order.  A
*bulk* distance pass subtracts each column's reference scalar, squares in
place and adds the ``d`` squares with ``np.add.reduce(axis=0)``: a handful of
long contiguous ufunc loops instead of loops whose inner length is ``d``.
Grouped records are retired by copying the ``k + 1`` segments between them
into the other of two ping-pong buffers.

Bulk values differ from the reference only by rounding, and the gap is
certified (Higham, *Accuracy and Stability of Numerical Algorithms*, §3-4,
``γ_m = mu / (1 - mu)`` with ``u = 2**-53``):

* *Same reference point.*  Both sides compute identical deltas and squares
  (one or two roundings each, or none with an FMA) and add ``d`` non-negative
  terms in some order, so each lies within a factor ``1 + γ_{d+2}`` of the
  exact sum ``P`` of the exact squares.  With ``ρ = 1 + 4(d + 2)u``,
  ``√ρ ≈ 1 + 2(d + 2)u`` leaves twice that room, so a bulk value ``a`` and
  the reference value ``e`` of the same record both lie in
  ``[P/√ρ, √ρ·P]`` and satisfy ``a ≤ ρe + t`` and ``e ≤ ρa + t``.  The absolute term ``t = 2**-1000``
  (far above the ``(d + 2)·2**-1074`` that gradual underflow can add) covers
  subnormal results, where relative bounds fail; the spare half of ``√ρ``
  absorbs the few roundings in computing the thresholds themselves.
* *Centroid reference.*  Both centroids sum the same ``n`` values in some
  order and divide by ``n``, so each is within
  ``γ_{n-1}·n·m_j/n + u·m_j ≤ (n + 2)u·m_j`` of the exact mean, where
  ``m_j = max_i |x_ij|``.  The bulk centroid ``c̃`` (pairwise column sums)
  and the reference ``c`` therefore differ by at most
  ``Δ = 2(n + 2)u·‖m‖₂`` in Euclidean norm, and by the triangle inequality
  ``|√P_i(c) - √P_i(c̃)| ≤ Δ`` for every record.

Each selection keeps a candidate set that provably contains the reference
answer, and computes reference values only when the set does not decide it:

* *k nearest of an anchor.*  Let ``τ`` be the ``k``-th smallest bulk value.
  Every record of the reference group has ``e ≤ e_(k) ≤ max over the bulk
  k-smallest of e ≤ ρτ + t`` and hence (``t`` being generous)
  ``a ≤ ρ²τ + 2t``, so the candidates
  ``a ≤ ρ²·max(τ, 0) + 2t`` contain the whole reference group (for ``k = 1``,
  ``τ = -1`` is the anchor).  Exactly ``k`` candidates *are* the group;
  otherwise the candidates are rescored with the reference expression and the
  first ``k`` of their stable argsort taken — the reference group is the
  ``k`` lexicographically smallest ``(e, row)`` pairs of the whole set and
  all of them are candidates, so it is also the smallest ``k`` among them.
* *Farthest record.*  With ``M`` the largest bulk value, the reference
  argmax ``i`` satisfies ``e_i ≥ e_m`` for the bulk argmax ``m``; the bounds
  above (each side within ``√ρ`` of its exact ``P``, and ``√P`` moving by at
  most ``Δ`` between the centroids) give ``√a_i ≥ √M/ρ - 2Δ - 4√t``
  (``Δ = 0`` for a point reference).
  One candidate is the answer.  Candidates that are all the same row
  (equal values give equal reference distances) resolve to the lowest one.
  Otherwise they are rescored — for a centroid reference only then is the
  reference centroid ``points[active].mean(axis=0)`` computed — and the
  first argmax taken.  The record farthest from ``r`` is read from ``r``'s
  own bulk buffer with the group's positions set to ``-inf``: no extra pass.

The rescoring gathers the candidate rows from the caller's (never written)
row-major matrix; ``einsum``'s per-row result does not depend on which other
rows are in the batch, so the rescored values are the reference values.
"""

from __future__ import annotations

import math

import numpy as np

from repro.anonymize.base import BaseAnonymizer, standardized_quasi_identifiers
from repro.dataset.table import Table

__all__ = ["MDAVAnonymizer"]

#: Unit roundoff of IEEE binary64.
_UNIT_ROUNDOFF = 2.0**-53
#: Absolute slack covering gradual underflow in the rounding bounds.
_UNDERFLOW = 2.0**-1000


class MDAVAnonymizer(BaseAnonymizer):
    """Fixed-group-size microaggregation over numeric quasi-identifiers."""

    name = "mdav"

    def __init__(self, release_style: str = "interval") -> None:
        super().__init__(release_style=release_style)

    def partition(self, table: Table, k: int) -> np.ndarray:
        return _mdav_groups(standardized_quasi_identifiers(table, "MDAV"), k)


class _ActiveSet:
    """The not-yet-grouped records of a row-major point matrix, column-major.

    ``positions`` below index the active set (ascending row order); ``rows``
    maps them to row indices of ``points``.  Only one bulk distance buffer
    exists: each :meth:`distances` call overwrites the previous result.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        count, dimension = self.points.shape
        self._columns = (
            np.array(self.points.T, order="C"),  # a copy, also when d == 1
            np.empty((dimension, count)),
        )
        self._rows = (np.arange(count, dtype=np.intp), np.empty(count, dtype=np.intp))
        self._side = 0
        self.size = count
        self._squares = np.empty((dimension, count))
        self._distances = np.empty(count)
        self._ranked = np.empty(count)
        self.rho = 1.0 + 4 * (dimension + 2) * _UNIT_ROUNDOFF
        # ‖m‖₂ over all rows bounds the active set's ‖m‖₂ in every round.
        self._magnitude = float(
            np.sqrt(np.square(np.abs(self.points).max(axis=0, initial=0.0)).sum())
        )

    @property
    def columns(self) -> np.ndarray:
        return self._columns[self._side][:, : self.size]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[self._side][: self.size]

    def centroid(self) -> tuple[np.ndarray, float]:
        """Bulk centroid ``c̃`` and the bound ``Δ`` on its distance to the reference's."""
        centroid = np.add.reduce(self.columns, axis=1) / self.size
        return centroid, 2 * (self.size + 2) * _UNIT_ROUNDOFF * self._magnitude

    def distances(self, reference: np.ndarray) -> np.ndarray:
        """Bulk squared distances from every active record to ``reference``."""
        squares = self._squares[:, : self.size]
        np.subtract(self.columns, reference[:, np.newaxis], out=squares)
        np.square(squares, out=squares)
        return np.add.reduce(squares, axis=0, out=self._distances[: self.size])

    def reference_distances(self, positions: np.ndarray, reference: np.ndarray) -> np.ndarray:
        """The reference squared distances of the records at ``positions``."""
        deltas = self.points[self.rows[positions]] - reference
        return np.einsum("ij,ij->i", deltas, deltas)

    def k_nearest(
        self, bulk: np.ndarray, k: int, reference: np.ndarray, anchor: int | None = None
    ) -> np.ndarray:
        """Sorted positions of the reference's ``k`` nearest records to ``reference``.

        ``bulk`` holds the bulk distances to ``reference`` and has more than
        ``k`` entries.  When ``reference`` is the record at position
        ``anchor``, that record's distance is set to ``-1`` so it is picked
        first; otherwise ties go to the lowest rows.
        """
        if anchor is not None:
            bulk[anchor] = -1.0
        ranked = self._ranked[: bulk.size]
        np.copyto(ranked, bulk)
        ranked.partition(k - 1)
        bound = self.rho * self.rho * max(float(ranked[k - 1]), 0.0) + 2 * _UNDERFLOW
        candidates = np.flatnonzero(bulk <= bound)
        if candidates.size == k:
            return candidates
        exact = self.reference_distances(candidates, reference)
        if anchor is not None:
            exact[candidates == anchor] = -1.0
        return np.sort(candidates[np.argsort(exact, kind="stable")[:k]])

    def farthest(
        self, bulk: np.ndarray, reference: np.ndarray | None, slack: float = 0.0
    ) -> int:
        """Position of the reference's first argmax among the finite bulk values.

        ``reference`` is the point the reference distances are measured from;
        ``None`` stands for the active set's reference centroid, in which case
        ``slack`` is the bound ``Δ`` returned by :meth:`centroid`.
        """
        position = int(np.argmax(bulk))
        root = math.sqrt(bulk[position]) / self.rho - 2 * slack - 4 * math.sqrt(_UNDERFLOW)
        candidates = np.flatnonzero(bulk >= (root * root if root > 0 else 0.0))
        if candidates.size == 1:
            return position
        values = self.columns[:, candidates]
        if (values == values[:, :1]).all():
            return int(candidates[0])
        if reference is None:
            reference = self.points[self.rows].mean(axis=0)
        return int(candidates[np.argmax(self.reference_distances(candidates, reference))])

    def retire(self, positions: np.ndarray) -> None:
        """Drop the records at the sorted ``positions``, keeping row order."""
        source_columns, source_rows = self._columns[self._side], self._rows[self._side]
        target_columns, target_rows = self._columns[1 - self._side], self._rows[1 - self._side]
        written = start = 0
        for stop in [*positions.tolist(), self.size]:
            length = stop - start
            if length:
                target_columns[:, written : written + length] = source_columns[:, start:stop]
                target_rows[written : written + length] = source_rows[start:stop]
                written += length
            start = stop + 1
        self._side = 1 - self._side
        self.size = written


def _mdav_groups(points: np.ndarray, k: int) -> np.ndarray:
    """Run the MDAV grouping loop over row vectors ``points`` (never written).

    Returns the ``(n,)`` row→group label array, groups numbered in the order
    they are formed.
    """
    active = _ActiveSet(points)
    labels = np.empty(active.size, dtype=np.intp)
    formed = 0

    def farthest_from_centroid() -> int:
        centroid, slack = active.centroid()
        return active.farthest(active.distances(centroid), None, slack)

    def take_group(anchor: int) -> tuple[np.ndarray, np.ndarray]:
        """Group ``anchor`` with its ``k-1`` nearest; returns the group and the bulk buffer."""
        nonlocal formed
        point = active.points[active.rows[anchor]]
        bulk = active.distances(point)
        chosen = active.k_nearest(bulk, k, point, anchor)
        labels[active.rows[chosen]] = formed
        formed += 1
        return chosen, bulk

    while active.size >= 3 * k:
        r_position = farthest_from_centroid()
        r_point = active.points[active.rows[r_position]]
        chosen, from_r = take_group(r_position)
        from_r[chosen] = -np.inf
        s_position = active.farthest(from_r, r_point)
        active.retire(chosen)
        s_position -= int(np.searchsorted(chosen, s_position))
        chosen, _ = take_group(s_position)
        active.retire(chosen)

    if active.size >= 2 * k:
        chosen, _ = take_group(farthest_from_centroid())
        active.retire(chosen)

    if active.size:
        labels[active.rows] = formed

    return labels
