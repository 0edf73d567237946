"""Generalized value domains used by partitioning-based anonymization.

K-anonymity style releases replace precise quasi-identifier values by coarser
values: numeric values become **intervals** (``[5-10]`` in the paper's
Table III), categorical values become **taxonomy nodes** (e.g. ``Engineering``
generalizing ``{ECE, CSE}``), and fully suppressed cells become ``*``.

These value types are shared by every anonymizer in :mod:`repro.anonymize` and
are understood by the metrics in :mod:`repro.metrics` (e.g. the dissimilarity
measure evaluates an interval by its midpoint, matching how the paper feeds a
k-anonymized release into the fuzzy fusion system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import HierarchyError

__all__ = [
    "Interval",
    "CategorySet",
    "Suppressed",
    "SUPPRESSED",
    "numeric_representative",
    "value_to_text",
]


@dataclass(frozen=True)
class Interval:
    """A closed numeric interval ``[low, high]``.

    Intervals are the generalized form of numeric quasi-identifiers.  The
    *representative* value used when a downstream consumer needs a single
    number (the fuzzy fusion system, the dissimilarity metric) is the interval
    midpoint.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise HierarchyError("interval bounds must not be NaN")
        if self.low > self.high:
            raise HierarchyError(f"invalid interval: low={self.low} > high={self.high}")

    @property
    def midpoint(self) -> float:
        """Midpoint of the interval, the numeric representative of the cell."""
        return (self.low + self.high) / 2.0

    @property
    def width(self) -> float:
        """Width ``high - low`` of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the closed interval."""
        return self.low <= value <= self.high

    def merge(self, other: "Interval") -> "Interval":
        """Smallest interval covering both ``self`` and ``other``."""
        return Interval(min(self.low, other.low), max(self.high, other.high))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Interval":
        """Tightest interval covering ``values``.

        Raises :class:`~repro.exceptions.HierarchyError` when ``values`` is
        empty.
        """
        values = list(values)
        if not values:
            raise HierarchyError("cannot build an interval from an empty value set")
        return cls(float(min(values)), float(max(values)))

    def __str__(self) -> str:
        def _format_bound(value: float) -> str:
            return str(int(value)) if float(value).is_integer() else repr(float(value))

        return f"[{_format_bound(self.low)}-{_format_bound(self.high)}]"


@dataclass(frozen=True)
class CategorySet:
    """A set of categorical values generalized into one cell.

    The set may carry a ``label`` naming the generalizing taxonomy node
    (e.g. ``"Engineering"`` for ``{"ECE", "CSE"}``).  When no taxonomy is
    available the label is the sorted, brace-delimited member list.
    """

    members: tuple[str, ...]
    label: str = ""

    def __init__(self, members: Iterable[str], label: str = "") -> None:
        member_tuple = tuple(sorted({str(m) for m in members}))
        if not member_tuple:
            raise HierarchyError("a CategorySet must contain at least one member")
        object.__setattr__(self, "members", member_tuple)
        object.__setattr__(self, "label", label or "{" + ", ".join(member_tuple) + "}")

    def contains(self, value: str) -> bool:
        """Whether ``value`` is one of the generalized members."""
        return str(value) in self.members

    def merge(self, other: "CategorySet") -> "CategorySet":
        """Union of the two member sets (label recomputed unless equal)."""
        label = self.label if self.label == other.label else ""
        return CategorySet(self.members + other.members, label=label)

    @property
    def size(self) -> int:
        """Number of distinct original values covered by the cell."""
        return len(self.members)

    def __str__(self) -> str:
        return self.label


class Suppressed:
    """Singleton marker for a fully suppressed cell (rendered as ``*``)."""

    _instance: "Suppressed | None" = None

    def __new__(cls) -> "Suppressed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "Suppressed()"

    def __str__(self) -> str:
        return "*"


#: The canonical suppressed-cell marker.
SUPPRESSED = Suppressed()


def numeric_representative(value: object) -> float:
    """Numeric representative of a (possibly generalized) cell.

    * plain numbers map to themselves;
    * :class:`Interval` maps to its midpoint;
    * :class:`Suppressed` and :class:`CategorySet` map to ``nan`` (no numeric
      information survives).

    This is the value the adversary plugs into the fusion system for a
    generalized release cell, and the value the dissimilarity metric uses.
    """
    if isinstance(value, Interval):
        return value.midpoint
    if isinstance(value, (Suppressed, CategorySet)):
        return float("nan")
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return float("nan")


def value_to_text(value: object) -> str:
    """Render a cell for textual table output (paper-style ``[5-10]`` / ``*``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def cover_values(values: Sequence[object]) -> object:
    """Smallest generalized cell covering ``values``.

    Numeric inputs produce an :class:`Interval`; strings produce a
    :class:`CategorySet`; a mixture raises
    :class:`~repro.exceptions.HierarchyError`.  A single distinct value is
    returned unchanged (no generalization needed).
    """
    values = list(values)
    if not values:
        raise HierarchyError("cannot generalize an empty value set")
    distinct = set(values)
    if len(distinct) == 1:
        return values[0]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return Interval.from_values(float(v) for v in values)
    if all(isinstance(v, str) for v in values):
        return CategorySet(values)
    raise HierarchyError(f"cannot generalize mixed-type values: {sorted(map(str, distinct))}")
