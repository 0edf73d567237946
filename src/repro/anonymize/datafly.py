"""Datafly-style full-domain generalization with suppression.

Datafly (Sweeney) is the classic generalization/suppression scheme behind the
original k-anonymity papers ([2] in the paper's bibliography).  The algorithm
keeps a per-attribute generalization level (over the numeric hierarchies of
:mod:`repro.dataset.hierarchy`, one per numeric quasi-identifier) and
repeatedly generalizes the quasi-identifier with the largest number of
distinct values until the number of records whose generalized signature
occurs fewer than ``k`` times is small enough to be suppressed (at most
``max_suppression_fraction`` of the table, by :func:`suppress_cells`).

Unlike MDAV and Mondrian, Datafly's equivalence classes are induced by the
generalized *values* rather than by an explicit grouping, so the partition's
labels are read off the generalized table
(:func:`~repro.anonymize.kanonymity.release_class_labels`, classes numbered by
first appearance).  Suppressed records form their own class and are reported
via ``AnonymizationResult.suppressed``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.anonymize.base import AnonymizationResult, BaseAnonymizer, validate_k
from repro.anonymize.kanonymity import release_class_labels, release_signature_codes
from repro.dataset.generalization import SUPPRESSED
from repro.dataset.hierarchy import NumericHierarchy
from repro.dataset.table import Table
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError

__all__ = ["DataflyAnonymizer", "default_hierarchies", "suppress_cells"]


def default_hierarchies(table: Table, levels: int = 6) -> dict[str, NumericHierarchy]:
    """Build default numeric hierarchies for every numeric quasi-identifier.

    The level-1 bin width is 1/16 of the column range, doubling per level, so
    the hierarchy offers a reasonable spread of granularities for Datafly to
    walk through.
    """
    hierarchies: dict[str, NumericHierarchy] = {}
    for name in table.schema.numeric_quasi_identifiers:
        values = table.numeric_column(name)
        low, high = float(values.min()), float(values.max())
        if (high - low) / 16.0 <= 0.0:
            # A constant column, or a range so narrow its bin width underflows.
            high = low + 1.0
        hierarchies[name] = NumericHierarchy(
            low=low, high=high, base_width=(high - low) / 16.0, branching=2, levels=levels
        )
    return hierarchies


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


class DataflyAnonymizer(BaseAnonymizer):
    """Greedy full-domain generalization with record suppression.

    Every numeric quasi-identifier is generalized along its
    :func:`default_hierarchies` hierarchy.
    """

    name = "datafly"

    def __init__(self, max_suppression_fraction: float = 0.05) -> None:
        super().__init__(release_style="interval")
        if not 0.0 <= max_suppression_fraction <= 1.0:
            raise AnonymizationError("max_suppression_fraction must lie in [0, 1]")
        self.max_suppression_fraction = max_suppression_fraction

    # The partition interface is satisfied by deriving labels from the final
    # generalized release, so ``anonymize`` is overridden wholesale.
    def partition(self, table: Table, k: int) -> np.ndarray:  # pragma: no cover
        return self.anonymize(table, k).labels

    def anonymize(self, table: Table, k: int) -> AnonymizationResult:
        validate_k(table, k)
        hierarchies = default_hierarchies(table)
        qi_names = [n for n in table.schema.quasi_identifiers if n in hierarchies]
        if not qi_names:
            raise AnonymizationError("Datafly requires a hierarchy for at least one quasi-identifier")

        levels = {name: 0 for name in qi_names}
        max_suppressed = int(self.max_suppression_fraction * table.num_rows)

        while True:
            release = self._generalize(table, hierarchies, levels)
            small_rows = self._rows_below_k(release, k)
            if len(small_rows) <= max_suppressed or k <= 1:
                break
            candidate = self._most_distinct_attribute(release, qi_names, levels, hierarchies)
            if candidate is None:
                if len(small_rows) > max_suppressed:
                    raise InfeasibleAnonymizationError(
                        f"Datafly exhausted all hierarchies and still has "
                        f"{len(small_rows)} records below k={k}"
                    )
                break
            levels[candidate] += 1

        release, suppressed = self._suppress(release, small_rows if k > 1 else [])
        return AnonymizationResult(
            original=table,
            release=release,
            labels=release_class_labels(release),
            k=k,
            anonymizer=self.name,
            suppressed=tuple(sorted(suppressed)),
        )

    # Internal steps ------------------------------------------------------------

    def _generalize(
        self,
        table: Table,
        hierarchies: Mapping[str, NumericHierarchy],
        levels: Mapping[str, int],
    ) -> Table:
        release = table.release_view()
        for name, level in levels.items():
            hierarchy = hierarchies[name]
            capped = min(level, hierarchy.levels - 1)
            if capped == 0:
                continue  # level 0 keeps the exact column
            generalized = hierarchy.generalize_column(table.column_array(name), capped)
            release = release.replace_column(name, generalized)
        return release

    def _rows_below_k(self, release: Table, k: int) -> list[int]:
        codes = release_signature_codes(release)
        if codes.size == 0:
            return []
        class_sizes = np.bincount(codes)
        return np.nonzero(class_sizes[codes] < k)[0].tolist()

    def _most_distinct_attribute(
        self,
        release: Table,
        qi_names: list[str],
        levels: Mapping[str, int],
        hierarchies: Mapping[str, NumericHierarchy],
    ) -> str | None:
        candidates = [
            name for name in qi_names if levels[name] < hierarchies[name].levels - 1
        ]
        if not candidates:
            return None
        distinct: dict[str, int] = {}
        for name in candidates:
            array = release.column_array(name)
            if array.dtype.kind in "if":
                distinct[name] = int(np.unique(array).size)
            else:
                distinct[name] = len({str(cell) for cell in release.factorize(name)[1]})
        return max(candidates, key=lambda name: distinct[name])

    def _suppress(self, release: Table, rows: list[int]) -> tuple[Table, list[int]]:
        if not rows:
            return release, []
        suppressed = sorted(set(rows))
        release = suppress_cells(release, suppressed, release.schema.quasi_identifiers)
        return release, suppressed
