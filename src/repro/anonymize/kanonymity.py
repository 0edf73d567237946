"""K-anonymity predicates and equivalence-class extraction.

These functions check the anonymity of a *release* (a table whose
quasi-identifier cells may be generalized) independently of which algorithm
produced it.  They are used by the test-suite invariants and by Datafly,
whose partition is the one its generalized release induces.

Class extraction is vectorized over the columnar table core: each
quasi-identifier column is encoded into an integer *signature code* array
(``np.unique`` for numeric columns; for object columns, one canonical form per
distinct cell of :meth:`~repro.dataset.table.Table.factorize`, gathered by
its codes), the per-column codes are folded into one row-signature code, and
the row→class label array (:func:`release_class_labels`) falls out of a
single ``np.unique`` pass — no per-row tuple building.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.dataset.generalization import CategorySet, Interval, Suppressed
from repro.dataset.table import Table

__all__ = [
    "release_signature_codes",
    "release_class_labels",
    "anonymity_level",
    "is_k_anonymous",
]


def _cell_signature(value: object) -> Hashable:
    """A hashable canonical form of a release cell."""
    if isinstance(value, Interval):
        return ("interval", value.low, value.high)
    if isinstance(value, CategorySet):
        return ("categories", value.members)
    if isinstance(value, Suppressed):
        return ("suppressed",)
    if isinstance(value, float) and value.is_integer():
        return ("value", int(value))
    return ("value", value)


def _column_signature_codes(table: Table, name: str) -> np.ndarray:
    """Integer codes such that two rows share a code iff their cells match.

    Numeric columns go through one ``np.unique``; ``NaN`` cells are kept
    distinct (a ``NaN`` quasi-identifier never matches another row).  Object
    columns canonicalize each distinct cell of :meth:`Table.factorize` once,
    number the signatures in order of first appearance and gather by the
    codes, so cells match by :func:`_cell_signature` equality.
    """
    array = table.column_array(name)
    if array.dtype.kind in "if":
        _, codes = np.unique(array, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
        if array.dtype.kind == "f":
            missing = np.isnan(array)
            if missing.any():
                base = int(codes.max(initial=-1)) + 1
                codes[missing] = base + np.arange(int(missing.sum()))
        return codes

    codes, cells = table.factorize(name)
    by_signature: dict[Hashable, int] = {}
    cell_codes = [
        by_signature.setdefault(_cell_signature(cell), len(by_signature)) for cell in cells
    ]
    return np.array(cell_codes, dtype=np.int64)[codes]


def release_signature_codes(release: Table) -> np.ndarray:
    """Row-signature codes over the quasi-identifiers of a release.

    Two rows receive the same code iff their generalized quasi-identifier
    signatures are identical.  Codes are compacted after every column fold so
    they stay below the row count (no overflow for wide quasi-identifier
    sets).
    """
    qi_names = release.schema.quasi_identifiers
    combined = np.zeros(release.num_rows, dtype=np.int64)
    for name in qi_names:
        column_codes = _column_signature_codes(release, name)
        cardinality = int(column_codes.max(initial=-1)) + 1
        _, combined = np.unique(
            combined * cardinality + column_codes, return_inverse=True
        )
        combined = combined.astype(np.int64, copy=False)
    return combined


def release_class_labels(release: Table) -> np.ndarray:
    """The partition a release induces: rows with identical (generalized)
    quasi-identifier signatures share a class.

    Returns the ``(n,)`` row→class label array with classes numbered in order
    of first appearance.
    """
    codes = release_signature_codes(release)
    _, first_seen = np.unique(codes, return_index=True)
    appearance = np.empty(first_seen.size, dtype=np.intp)
    appearance[np.argsort(first_seen)] = np.arange(first_seen.size)
    return appearance[codes]


def anonymity_level(release: Table) -> int:
    """The k-anonymity level actually achieved by a release.

    This is the size of the smallest equivalence class induced by the
    generalized quasi-identifier signatures.  An empty release has level 0.
    """
    if release.num_rows == 0:
        return 0
    codes = release_signature_codes(release)
    return int(np.bincount(codes).min())


def is_k_anonymous(release: Table, k: int) -> bool:
    """Whether the release satisfies k-anonymity for the given ``k``."""
    if k <= 1:
        return release.num_rows > 0 or k <= 0
    return anonymity_level(release) >= k
