"""Column standardization for distance-based anonymization.

MDAV microaggregation and greedy clustering standardize the quasi-identifier
columns before computing distances, as is standard in the microaggregation
literature, so no attribute dominates the metric by its scale alone.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetricError

__all__ = ["standardize_matrix"]


def standardize_matrix(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-standardize ``matrix``; returns ``(standardized, means, stds)``.

    Columns with zero variance are left centered but unscaled (their std is
    reported as 1.0) so that constant quasi-identifiers do not produce NaNs in
    distance computations.
    """
    if matrix.ndim != 2:
        raise MetricError(f"expected a 2-D matrix, got shape {matrix.shape}")
    means = np.nanmean(matrix, axis=0)
    stds = np.nanstd(matrix, axis=0)
    stds = np.where(stds <= 0.0, 1.0, stds)
    standardized = (matrix - means) / stds
    return standardized, means, stds
