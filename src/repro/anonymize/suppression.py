"""Cell- and column-level suppression utilities.

The paper's introduction walks through the naive release strategies an
enterprise might try before k-anonymizing: drop the sensitive column and
publish the rest verbatim, drop the identifiers, or suppress individual cells.
These helpers implement those strategies so the examples and benchmarks can
compare them with the principled releases produced by the anonymizers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.anonymize.base import AnonymizationResult
from repro.dataset.generalization import SUPPRESSED
from repro.dataset.table import Table
from repro.exceptions import AnonymizationError

__all__ = [
    "drop_sensitive",
    "drop_identifiers",
    "suppress_cells",
    "naive_release",
]


def drop_sensitive(table: Table) -> Table:
    """Release strategy 1: publish identifiers + exact QIs, drop the sensitive column."""
    return table.release_view(keep_sensitive=False)


def drop_identifiers(table: Table) -> Table:
    """Release strategy 2: drop identifiers (pseudonymization) but keep everything else.

    The paper argues this is not viable for enterprise releases whose purpose
    requires the identifiers; it is still useful as a comparison point.
    """
    identifiers = list(table.schema.identifiers)
    if not identifiers:
        raise AnonymizationError("table has no identifier columns to drop")
    return table.drop_columns(identifiers)


def suppress_cells(table: Table, rows: Sequence[int], columns: Sequence[str]) -> Table:
    """Suppress (replace with ``*``) the given cells of ``table``."""
    result = table
    row_list = sorted(set(rows))
    for i in row_list:
        if not 0 <= i < table.num_rows:
            raise AnonymizationError(f"row index {i} out of range")
    for name in columns:
        column = np.empty(table.num_rows, dtype=object)
        column[:] = result.column(name)
        column[row_list] = SUPPRESSED
        result = result.replace_column(name, column)
    return result


def naive_release(table: Table) -> AnonymizationResult:
    """The "remove the salary column, publish the rest" strategy as a result object.

    Every record is its own equivalence class (k = 1), which lets the naive
    release flow through the same metrics and attack pipeline as the real
    anonymizations — this is the weakest baseline in the experiments.
    """
    return AnonymizationResult(
        original=table,
        release=drop_sensitive(table),
        labels=np.arange(table.num_rows),
        k=1,
        anonymizer="naive",
    )
