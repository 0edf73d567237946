"""Numeric generalization hierarchies (value generalization taxonomies).

Full-domain generalization schemes in the k-anonymity literature (Samarati &
Sweeney; Datafly) generalize each quasi-identifier along a *domain
generalization hierarchy*.  :class:`NumericHierarchy` bins a numeric attribute
into progressively wider ranges: level ``0`` is the exact value, level ``i``
bins the domain into intervals of width ``base_width * branching**(i-1)``, and
the final level suppresses the value entirely (``*``).

These hierarchies power the :class:`repro.anonymize.datafly.DataflyAnonymizer`
baseline, which builds one per numeric quasi-identifier; the paper's own
experiments use microaggregation (MDAV), which does not need hierarchies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dataset.generalization import SUPPRESSED, Interval
from repro.exceptions import HierarchyError

__all__ = ["NumericHierarchy"]


@dataclass
class NumericHierarchy:
    """Interval-binning hierarchy for numeric attributes.

    Parameters
    ----------
    low, high:
        Domain bounds.  Values outside the domain are clamped into it before
        binning (real data occasionally exceeds the declared domain).
    base_width:
        Bin width at level 1.
    branching:
        Factor by which the bin width grows per additional level.
    levels:
        Total number of levels including level 0 (exact) and the top
        suppression level.  Must be at least 2.
    """

    low: float
    high: float
    base_width: float
    branching: int = 2
    levels: int = 5

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise HierarchyError("numeric hierarchy requires high > low")
        if self.base_width <= 0:
            raise HierarchyError("base_width must be positive")
        if self.branching < 2:
            raise HierarchyError("branching factor must be >= 2")
        if self.levels < 2:
            raise HierarchyError("a hierarchy needs at least 2 levels (exact + suppressed)")

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.levels:
            raise HierarchyError(
                f"generalization level {level} out of range [0, {self.levels - 1}]"
            )

    def width_at(self, level: int) -> float:
        """Bin width used at ``level`` (level >= 1)."""
        self._check_level(level)
        if level == 0:
            return 0.0
        return self.base_width * (self.branching ** (level - 1))

    def generalize(self, value: object, level: int) -> object:
        """Generalize ``value`` to ``level``.

        Level ``0`` returns the value unchanged; the maximum level returns
        :data:`~repro.dataset.generalization.SUPPRESSED`.
        """
        self._check_level(level)
        if level == 0:
            return value
        if level == self.levels - 1:
            return SUPPRESSED
        numeric = float(value)  # type: ignore[arg-type]
        numeric = min(max(numeric, self.low), self.high)
        width = self.width_at(level)
        bin_index = math.floor((numeric - self.low) / width)
        return self._bin_interval(bin_index, width)

    def _bin_interval(self, bin_index: int, width: float) -> Interval:
        """The interval of one bin (the top edge folds into the last bin)."""
        bin_low = self.low + bin_index * width
        bin_high = min(bin_low + width, self.high)
        if bin_low >= bin_high:  # value sits exactly on the top edge
            bin_low = max(self.low, self.high - width)
            bin_high = self.high
        return Interval(bin_low, bin_high)

    def generalize_column(self, values: Sequence[object] | np.ndarray, level: int) -> np.ndarray:
        """Vectorized binning of a whole numeric column.

        Bin indices are computed for every cell at once; one
        :class:`~repro.dataset.generalization.Interval` is built per occupied
        bin (with the same bounds the scalar :meth:`generalize` produces) and
        fanned out to its rows.  Object storage is read through ``float``,
        as the scalar path reads each cell.
        """
        self._check_level(level)
        array = np.asarray(values)
        if level == 0:
            out = np.empty(array.shape[0], dtype=object)
            out[:] = array.tolist()
            return out
        if level == self.levels - 1:
            return np.full(array.shape[0], SUPPRESSED, dtype=object)

        numeric = array.astype(float, copy=False)
        if np.isnan(numeric).any():
            raise HierarchyError("cannot generalize missing (NaN) numeric values")
        clipped = np.clip(numeric, self.low, self.high)
        width = self.width_at(level)
        bins = np.floor((clipped - self.low) / width).astype(np.int64)
        out = np.empty(array.shape[0], dtype=object)
        for bin_index in np.unique(bins):
            out[bins == bin_index] = self._bin_interval(int(bin_index), width)
        return out
