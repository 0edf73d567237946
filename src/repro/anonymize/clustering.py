"""Greedy clustering-based anonymization (r-gather style).

The paper's taxonomy of partitioning schemes includes clustering-based
approaches (Aggarwal et al., "Achieving anonymity via clustering").  This
module provides a simple greedy variant: repeatedly pick an unassigned seed
record (the one farthest from the global centroid), gather its ``k-1`` nearest
unassigned records into a cluster, and attach any final leftovers to their
nearest cluster.  It differs from MDAV by growing one cluster at a time from a
single seed instead of two per iteration, which yields a slightly different
utility/protection trade-off and serves as an additional ablation baseline.
The partition is a row→cluster label array, clusters numbered in the order
they are gathered.

The gathering loop runs on MDAV's column-major active set
(:class:`repro.anonymize.mdav._ActiveSet`): bulk distances, the certified
farthest-record and k-nearest selections and segment-copy retirement, so
clusters are identical to the original row-major einsum-and-stable-argsort
loop.
"""

from __future__ import annotations

import numpy as np

from repro.anonymize.base import BaseAnonymizer, standardized_quasi_identifiers
from repro.anonymize.mdav import _ActiveSet
from repro.dataset.table import Table

__all__ = ["GreedyClusterAnonymizer"]


class GreedyClusterAnonymizer(BaseAnonymizer):
    """Single-seed greedy k-gather clustering over quasi-identifiers."""

    name = "greedy-cluster"

    def partition(self, table: Table, k: int) -> np.ndarray:
        points = standardized_quasi_identifiers(table, "clustering anonymization")
        centroid = points.mean(axis=0)

        active = _ActiveSet(points)
        labels = np.full(active.size, -1, dtype=np.intp)
        formed = 0
        while active.size >= 2 * k:
            seed = active.farthest(active.distances(centroid), centroid)
            seed_point = points[active.rows[seed]]
            chosen = active.k_nearest(active.distances(seed_point), k, seed_point)
            labels[active.rows[chosen]] = formed
            formed += 1
            active.retire(chosen)

        if active.size >= k or not formed:
            labels[active.rows] = formed
        else:
            # Fewer than k leftovers: each joins the cluster holding its
            # nearest member, counting leftovers attached before it.
            for index in active.rows.tolist():
                assigned = np.flatnonzero(labels >= 0)
                deltas = points[assigned] - points[index]
                nearest = np.full(formed, np.inf)
                np.minimum.at(nearest, labels[assigned], np.einsum("ij,ij->i", deltas, deltas))
                labels[index] = int(np.argmin(nearest))

        return labels
