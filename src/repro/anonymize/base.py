"""Common interfaces for partitioning-based anonymization.

Every anonymizer in this package follows the same two-step contract:

1. **partition** the records into equivalence classes of size at least ``k``
   using only the quasi-identifier attributes;
2. **build a release** in which, within each equivalence class, the
   quasi-identifier cells are replaced by a class-level generalized value
   (an interval covering the class, the class centroid, or a taxonomy node)
   while the identifier columns are kept verbatim and the sensitive column is
   dropped.

The second step is shared (:func:`build_release`); anonymizers only implement
the partitioning step.  This mirrors the paper's use of
``Basic_Anonymization(P, level)`` as a pluggable primitive inside Algorithm 1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dataset.generalization import Interval, cover_values
from repro.dataset.statistics import standardize_matrix
from repro.dataset.table import Table, _py_value
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError

__all__ = [
    "EquivalenceClass",
    "AnonymizationResult",
    "BaseAnonymizer",
    "build_release",
    "standardized_quasi_identifiers",
    "validate_k",
]


@dataclass(frozen=True)
class EquivalenceClass:
    """A group of row indices that share the same generalized quasi-identifiers."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise AnonymizationError("an equivalence class cannot be empty")
        if len(set(self.indices)) != len(self.indices):
            raise AnonymizationError("an equivalence class cannot repeat row indices")

    @property
    def size(self) -> int:
        """Number of records in the class."""
        return len(self.indices)


@dataclass
class AnonymizationResult:
    """The outcome of anonymizing a private table.

    Attributes
    ----------
    original:
        The private table ``P`` that was anonymized (identifiers, QIs and the
        sensitive column).
    release:
        The enterprise release ``P'``: identifiers kept, quasi-identifiers
        generalized per equivalence class, sensitive column removed.
    classes:
        The equivalence classes over the rows of ``original`` (indices refer
        to ``original`` and ``release`` alike — row order is preserved).
    k:
        The requested anonymity parameter.
    anonymizer:
        Name of the algorithm that produced the partition.
    suppressed:
        Indices of rows whose quasi-identifiers were fully suppressed (only
        used by generalization/suppression schemes such as Datafly).
    """

    original: Table
    release: Table
    classes: list[EquivalenceClass]
    k: int
    anonymizer: str
    suppressed: tuple[int, ...] = field(default_factory=tuple)

    @property
    def class_sizes(self) -> list[int]:
        """Sizes of all equivalence classes."""
        return [c.size for c in self.classes]

    @property
    def minimum_class_size(self) -> int:
        """Size of the smallest equivalence class (the achieved anonymity)."""
        return min(self.class_sizes)

    def class_of(self, row_index: int) -> EquivalenceClass:
        """The equivalence class containing ``row_index``."""
        for equivalence_class in self.classes:
            if row_index in equivalence_class.indices:
                return equivalence_class
        raise AnonymizationError(f"row {row_index} is not covered by any equivalence class")


def validate_k(table: Table, k: int) -> None:
    """Validate an anonymity parameter against a table.

    ``k`` must be at least 1 and at most the number of records; ``k`` larger
    than the table is infeasible (no partition can have classes of size ``k``).
    """
    if k < 1:
        raise AnonymizationError(f"k must be >= 1, got {k}")
    if table.num_rows == 0:
        raise AnonymizationError("cannot anonymize an empty table")
    if k > table.num_rows:
        raise InfeasibleAnonymizationError(
            f"k={k} exceeds the number of records ({table.num_rows})"
        )


def standardized_quasi_identifiers(table: Table, scheme: str) -> np.ndarray:
    """The column-standardized numeric quasi-identifier matrix of ``table``.

    Distance-based schemes (``scheme`` names one in the error) need every
    standardized cell finite: a missing value, an infinity or a finite value
    that overflows while standardizing (such as ``1e308``) turns its whole
    column non-finite, and a grouping loop over it would select nothing and
    never shrink.  Hence the test runs on the standardized matrix too.
    """
    matrix = table.quasi_identifier_matrix()
    finite = np.isfinite(matrix).all(axis=0)
    if finite.all():
        with np.errstate(over="ignore", invalid="ignore"):
            matrix, _, _ = standardize_matrix(matrix)
        finite = np.isfinite(matrix).all(axis=0)
    if not finite.all():
        column = table.schema.numeric_quasi_identifiers[int(np.argmin(finite))]
        raise AnonymizationError(
            f"{scheme} requires finite numeric quasi-identifiers; column {column!r} "
            "has missing, infinite or overflowing values"
        )
    return matrix


def _validate_partition(table: Table, classes: Sequence[EquivalenceClass], k: int) -> None:
    covered = [i for equivalence_class in classes for i in equivalence_class.indices]
    if sorted(covered) != list(range(table.num_rows)):
        raise AnonymizationError(
            "equivalence classes must cover every row exactly once "
            f"(covered {len(covered)} of {table.num_rows})"
        )
    undersized = [c.size for c in classes if c.size < k]
    if undersized and k > 1:
        raise AnonymizationError(
            f"partition violates k={k}: class sizes {sorted(undersized)} below k"
        )


def build_release(
    table: Table,
    classes: Sequence[EquivalenceClass],
    k: int,
    style: str = "interval",
    keep_sensitive: bool = False,
    validate: bool = True,
) -> Table:
    """Build the enterprise release ``P'`` from a partition of ``table``.

    Quasi-identifier columns are generalized in bulk: one generalized cell is
    computed per (class, column) pair — a class-covering interval from
    vectorized per-class min/max for numeric columns, the class mean for
    centroid releases — and fanned out to the class rows with fancy-index
    assignments, instead of visiting every cell through per-row Python loops.

    Parameters
    ----------
    table:
        The private table ``P``.
    classes:
        Equivalence classes over the rows of ``table``.
    k:
        Requested anonymity (used only for validation).
    style:
        ``"interval"`` replaces each numeric quasi-identifier cell by the
        interval covering its class (Table III of the paper);
        ``"centroid"`` replaces it by the class mean (microaggregation-style
        release).  Categorical quasi-identifiers are always generalized to the
        covering :class:`~repro.dataset.generalization.CategorySet`.
    keep_sensitive:
        Keep the sensitive column in the release (used to construct
        ground-truth-bearing releases in tests); default drops it as the paper
        prescribes.
    validate:
        Check the partition covers every record and respects ``k``.
    """
    if style not in ("interval", "centroid"):
        raise AnonymizationError(f"unknown release style: {style!r}")
    if validate:
        _validate_partition(table, classes, k)

    schema = table.schema
    release = table if keep_sensitive else table.drop_columns(list(schema.sensitive_attributes))
    qi_names = release.schema.quasi_identifiers

    class_indices = [
        np.asarray(equivalence_class.indices, dtype=np.intp)
        for equivalence_class in classes
    ]
    covered = np.zeros(table.num_rows, dtype=bool)
    for indices in class_indices:
        covered[indices] = True
    covers_all_rows = bool(covered.all())

    for name in qi_names:
        attribute = release.schema[name]
        source = table.column_array(name)
        numeric_storage = source.dtype.kind in "if"

        generalized_column = np.empty(table.num_rows, dtype=object)
        if not covers_all_rows:
            # Partial partitions (validate=False) keep their uncovered cells.
            generalized_column[:] = table.column(name)

        if numeric_storage and style == "interval":
            for indices in class_indices:
                values = source[indices]
                low, high = values.min(), values.max()
                if low == high:
                    generalized: object = _py_value(source[indices[0]])
                else:
                    generalized = Interval(float(low), float(high))
                generalized_column[indices] = generalized
        elif attribute.is_numeric and style == "centroid":
            if numeric_storage:
                for indices in class_indices:
                    generalized_column[indices] = float(np.mean(source[indices]))
            else:
                values_list = table.column(name)
                for indices in class_indices:
                    numeric = np.array(
                        [float(values_list[i]) for i in indices], dtype=float
                    )
                    generalized_column[indices] = float(np.mean(numeric))
        else:
            values_list = table.column(name)
            for indices in class_indices:
                generalized_column[indices] = cover_values(
                    [values_list[i] for i in indices]
                )

        release = release.replace_column(name, generalized_column)

    return release


class BaseAnonymizer(abc.ABC):
    """Abstract base class of all partitioning-based anonymizers.

    Subclasses implement :meth:`partition`; :meth:`anonymize` composes the
    partition with :func:`build_release`.
    """

    #: Human-readable algorithm name recorded in results.
    name: str = "base"

    def __init__(self, release_style: str = "interval") -> None:
        if release_style not in ("interval", "centroid"):
            raise AnonymizationError(f"unknown release style: {release_style!r}")
        self.release_style = release_style

    @abc.abstractmethod
    def partition(self, table: Table, k: int) -> list[EquivalenceClass]:
        """Partition the rows of ``table`` into classes of size at least ``k``."""

    def anonymize(self, table: Table, k: int) -> AnonymizationResult:
        """Anonymize ``table`` to anonymity level ``k`` and build the release."""
        validate_k(table, k)
        if k == 1:
            classes = [EquivalenceClass((i,)) for i in range(table.num_rows)]
        else:
            classes = self.partition(table, k)
        release = build_release(
            table, classes, k, style=self.release_style, keep_sensitive=False
        )
        return AnonymizationResult(
            original=table,
            release=release,
            classes=classes,
            k=k,
            anonymizer=self.name,
        )
