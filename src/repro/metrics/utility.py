"""Utility metrics for anonymized releases.

The paper measures release utility with the **discernibility metric** of
Bayardo & Agrawal ([22])::

    C_DM(k) = sum_{|E| >= k} |E|^2  +  sum_{|E| < k} |D| * |E|

(each record costs the size of its equivalence class, or ``|D|`` times that
when the class violates k-anonymity), and defines the utility of a release as
``U_k = 1 / C_DM(k)`` (Figure 7).  The normalized-certainty-penalty style
generalized loss frequently used in this literature is also provided, which
the ablation benchmarks use to confirm the FRED optimum is not an artifact of
the particular utility metric.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.anonymize.base import AnonymizationResult
from repro.dataset.generalization import Interval, Suppressed
from repro.dataset.table import Table
from repro.exceptions import MetricError

__all__ = [
    "discernibility_cost",
    "discernibility_utility",
    "generalized_information_loss",
    "utility_of_result",
]


def discernibility_cost(class_sizes: Sequence[int], total_records: int, k: int) -> float:
    """``C_DM``: the discernibility cost of a partition (vectorized over classes)."""
    if total_records <= 0:
        raise MetricError("total_records must be positive")
    if k < 1:
        raise MetricError("k must be >= 1")
    sizes = np.asarray(class_sizes, dtype=float)
    if int(sizes.sum()) != total_records:
        raise MetricError(
            f"class sizes sum to {int(sizes.sum())}, expected {total_records}"
        )
    if sizes.size and (sizes <= 0).any():
        raise MetricError("equivalence class sizes must be positive")
    return float(np.sum(np.where(sizes >= k, sizes**2, float(total_records) * sizes)))


def discernibility_utility(class_sizes: Sequence[int], total_records: int, k: int) -> float:
    """``U = 1 / C_DM`` (Figure 7)."""
    return 1.0 / discernibility_cost(class_sizes, total_records, k)


def _cell_loss(cell: object, column_range: float) -> float:
    if isinstance(cell, Interval):
        return cell.width / column_range
    return 1.0 if isinstance(cell, Suppressed) else 0.0


def generalized_information_loss(original: Table, release: Table) -> float:
    """Normalized information loss of the generalized quasi-identifiers in ``[0, 1]``.

    Each numeric quasi-identifier cell contributes ``interval width / column
    range`` (0 for an exact value, 1 for a suppressed cell); the loss is the
    average over all quasi-identifier cells.
    """
    if original.num_rows != release.num_rows:
        raise MetricError("original and release must have the same number of rows")
    qi_names = [
        name
        for name in original.schema.numeric_quasi_identifiers
        if name in release.schema
    ]
    if not qi_names:
        raise MetricError("no shared numeric quasi-identifiers to compute loss over")
    total = 0.0
    cells = 0
    for name in qi_names:
        column = original.numeric_column(name)
        column_range = float(column.max() - column.min())
        if column_range <= 0:
            column_range = 1.0
        array = release.column_array(name)
        cells += release.num_rows
        if array.dtype != object:
            continue  # exact numeric cells carry no loss
        codes, distinct = release.factorize(name)
        losses = np.array(
            [_cell_loss(cell, column_range) for cell in distinct], dtype=np.float64
        )
        # Summed in row order, one cell at a time, exactly as a per-row loop.
        for loss in losses[codes].tolist():
            total += loss
    return total / cells


def utility_of_result(result: AnonymizationResult) -> float:
    """Discernibility utility ``U_k`` of an anonymization result."""
    return discernibility_utility(
        result.class_sizes, result.original.num_rows, result.k
    )
