"""Common interfaces for partitioning-based anonymization.

Every anonymizer in this package follows the same two-step contract:

1. **partition** the records into equivalence classes of size at least ``k``
   using only the quasi-identifier attributes, returned as one ``(n,)``
   integer label array: ``labels[row]`` is the row's class id, and ids
   ``0..m-1`` follow the order in which the anonymizer forms its classes;
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
import numpy as np

from repro.dataset.generalization import Interval, cover_values
from repro.dataset.statistics import standardize_matrix
from repro.dataset.table import Table
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError

__all__ = [
    "AnonymizationResult",
    "BaseAnonymizer",
    "build_release",
    "standardized_quasi_identifiers",
    "validate_k",
]


@dataclass(eq=False)
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
    labels:
        The partition as a ``(n,)`` integer array: ``labels[row]`` is the
        equivalence class of row ``row`` of ``original`` and ``release`` alike
        (row order is preserved); class ids ``0..m-1`` follow the order in
        which the anonymizer emitted its classes.
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
    labels: np.ndarray
    k: int
    anonymizer: str
    suppressed: tuple[int, ...] = field(default_factory=tuple)

    @property
    def class_sizes(self) -> list[int]:
        """Sizes of all equivalence classes, in class-id order."""
        return np.bincount(self.labels).tolist()

    @property
    def minimum_class_size(self) -> int:
        """Size of the smallest equivalence class (the achieved anonymity)."""
        return min(self.class_sizes)


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


def _class_sizes_of(table: Table, labels: np.ndarray, k: int) -> np.ndarray:
    """Check that ``labels`` is a partition of ``table`` into classes of size >= ``k``.

    Returns the class sizes, indexed by class id.
    """
    if labels.shape != (table.num_rows,):
        raise AnonymizationError(
            f"partition labels must have shape ({table.num_rows},), got {labels.shape}"
        )
    if labels.dtype.kind not in "iu":
        raise AnonymizationError(
            f"partition labels must be integer class ids, got dtype {labels.dtype}"
        )
    if labels.size and int(labels.min()) < 0:
        raise AnonymizationError(
            f"partition labels must be non-negative, got class id {int(labels.min())}"
        )
    sizes = np.bincount(labels.astype(np.intp, copy=False))
    unused = np.flatnonzero(sizes == 0)
    if unused.size:
        raise AnonymizationError(
            f"partition labels must number classes 0..{sizes.size - 1} without gaps; "
            f"class {int(unused[0])} has no rows"
        )
    undersized = sizes[sizes < k]
    if undersized.size and k > 1:
        raise AnonymizationError(
            f"partition violates k={k}: class sizes {sorted(undersized.tolist())} below k"
        )
    return sizes


def build_release(
    table: Table,
    labels: np.ndarray,
    k: int,
    style: str = "interval",
    keep_sensitive: bool = False,
) -> Table:
    """Build the enterprise release ``P'`` from a partition of ``table``.

    Quasi-identifier columns are generalized per class: one generalized cell
    is computed for each (class, column) pair and gathered to the rows with
    ``cells[labels]``, so all rows of a class share one cell object.  Numeric
    interval cells come from per-class ``np.minimum.reduceat`` /
    ``np.maximum.reduceat`` over the rows sorted stably by label.  Centroid
    cells are ``float(np.mean(...))`` of each class's rows: a ``reduceat``
    sum divided by the class size rounds differently, even for small classes.

    Parameters
    ----------
    table:
        The private table ``P``.
    labels:
        The partition: a ``(n,)`` integer array of class ids ``0..m-1``, one
        per row of ``table``, with every id used.
    k:
        Requested anonymity: every class must hold at least ``k`` rows.
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
    """
    if style not in ("interval", "centroid"):
        raise AnonymizationError(f"unknown release style: {style!r}")
    labels = np.asarray(labels)
    sizes = _class_sizes_of(table, labels, k)

    schema = table.schema
    release = table if keep_sensitive else table.drop_columns(list(schema.sensitive_attributes))

    # Rows grouped by class, ascending inside each class.
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes

    def class_rows():
        for start, size in zip(starts.tolist(), sizes.tolist()):
            yield order[start : start + size]

    for name in release.schema.quasi_identifiers:
        attribute = release.schema[name]
        source = table.column_array(name)
        numeric_storage = source.dtype.kind in "if"
        cells = np.empty(sizes.size, dtype=object)

        if numeric_storage and style == "interval":
            if sizes.size:
                grouped = source[order]
                lows = np.minimum.reduceat(grouped, starts).tolist()
                highs = np.maximum.reduceat(grouped, starts).tolist()
                firsts = grouped[starts].tolist()
                cells[:] = [
                    first if low == high else Interval(float(low), float(high))
                    for first, low, high in zip(firsts, lows, highs)
                ]
        elif attribute.is_numeric and style == "centroid":
            if numeric_storage:
                for class_id, rows in enumerate(class_rows()):
                    cells[class_id] = float(np.mean(source[rows]))
            else:
                values_list = table.column(name)
                for class_id, rows in enumerate(class_rows()):
                    numeric = np.array([float(values_list[i]) for i in rows], dtype=float)
                    cells[class_id] = float(np.mean(numeric))
        else:
            values_list = table.column(name)
            for class_id, rows in enumerate(class_rows()):
                cells[class_id] = cover_values([values_list[i] for i in rows])

        release = release.replace_column(name, cells[labels])

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
    def partition(self, table: Table, k: int) -> np.ndarray:
        """Partition the rows of ``table`` into classes of size at least ``k``.

        Returns the ``(n,)`` row→class label array, class ids ``0..m-1`` in
        the order the classes are formed.
        """

    def anonymize(self, table: Table, k: int) -> AnonymizationResult:
        """Anonymize ``table`` to anonymity level ``k`` and build the release."""
        validate_k(table, k)
        if k == 1:
            labels = np.arange(table.num_rows)
        else:
            labels = self.partition(table, k)
        release = build_release(
            table, labels, k, style=self.release_style, keep_sensitive=False
        )
        return AnonymizationResult(
            original=table,
            release=release,
            labels=labels,
            k=k,
            anonymizer=self.name,
        )
