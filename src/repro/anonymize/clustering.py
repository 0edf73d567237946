"""Greedy clustering-based anonymization (r-gather style).

The paper's taxonomy of partitioning schemes includes clustering-based
approaches (Aggarwal et al., "Achieving anonymity via clustering").  This
module provides a simple greedy variant: repeatedly pick an unassigned seed
record (the one farthest from the global centroid), gather its ``k-1`` nearest
unassigned records into a cluster, and attach any final leftovers to their
nearest cluster.  It differs from MDAV by growing one cluster at a time from a
single seed instead of two per iteration, which yields a slightly different
utility/protection trade-off and serves as an additional ablation baseline.

The gathering loop runs on MDAV's column-major active set
(:class:`repro.anonymize.mdav._ActiveSet`): bulk distances, the certified
farthest-record and k-nearest selections and segment-copy retirement, so
clusters are identical to the original row-major einsum-and-stable-argsort
loop.
"""

from __future__ import annotations

import numpy as np

from repro.anonymize.base import BaseAnonymizer, EquivalenceClass, standardized_quasi_identifiers
from repro.anonymize.mdav import _ActiveSet
from repro.dataset.table import Table

__all__ = ["GreedyClusterAnonymizer"]


class GreedyClusterAnonymizer(BaseAnonymizer):
    """Single-seed greedy k-gather clustering over quasi-identifiers."""

    name = "greedy-cluster"

    def partition(self, table: Table, k: int) -> list[EquivalenceClass]:
        points = standardized_quasi_identifiers(table, "clustering anonymization")
        centroid = points.mean(axis=0)

        active = _ActiveSet(points)
        clusters: list[list[int]] = []
        while active.size >= 2 * k:
            seed = active.farthest(active.distances(centroid), centroid)
            seed_point = points[active.rows[seed]]
            chosen = active.k_nearest(active.distances(seed_point), k, seed_point)
            clusters.append(active.rows[chosen].tolist())
            active.retire(chosen)

        if active.size:
            if active.size >= k or not clusters:
                clusters.append(active.rows.tolist())
            else:
                for index in active.rows.tolist():
                    nearest = min(
                        range(len(clusters)),
                        key=lambda c: _nearest_sq_distance(points[clusters[c]], points[index]),
                    )
                    clusters[nearest].append(index)

        return [EquivalenceClass(tuple(sorted(cluster))) for cluster in clusters]


def _nearest_sq_distance(members: np.ndarray, point: np.ndarray) -> float:
    """Smallest squared distance from ``point`` to a cluster's member rows."""
    deltas = members - point
    return float(np.einsum("ij,ij->i", deltas, deltas).min())
