"""Column-oriented in-memory table, the substrate every subsystem operates on.

The reproduction does not depend on pandas; instead this module provides a
small, well-tested, column-oriented :class:`Table` with exactly the operations
the paper's pipeline needs:

* schema-aware construction (identifier / quasi-identifier / sensitive roles);
* row and column access, projection, row gathers and appends;
* extraction of the numeric quasi-identifier block as a ``numpy`` matrix
  (generalized cells are resolved to their numeric representative — interval
  midpoints — which is exactly the information an adversary has);
* derivation of the *enterprise release* (keep identifiers, generalize
  quasi-identifiers, drop the sensitive column).

Columnar storage
----------------
Each column is a typed ``numpy`` array: ``int64`` when every cell is a plain
integer, ``float64`` when every cell is numeric (``nan`` marking missing
values), and ``object`` for identifiers, categoricals and generalized cells
(:class:`~repro.dataset.generalization.Interval`, ``CategorySet``, ``*``).
Relational operations (``take``, ``project``, ``concat``) move whole arrays —
projections share the underlying arrays outright, row gathers are single
fancy-index calls — instead of rebuilding ``list[object]`` columns cell by
cell.  Numeric views (``numeric_column`` and friends) are
computed once per column and cached, so the anonymizers, metrics and the
fusion attack all read from the same float buffers.

A release shares one generalized cell object per equivalence class;
:meth:`Table.factorize` owns that layout, so the numeric view, CSV renderer,
signature codes, loss metric and spill codec each work once per distinct cell.

Tables are value-semantics objects: every operation returns a new table, the
internal arrays are never mutated after construction, and sequences handed to
the constructor are copied.  Accessors (``column``, ``row``, ``cell``) return
plain Python values, never numpy scalars, so downstream type dispatch
(``isinstance(v, (int, float))``) behaves exactly as it did with list-backed
columns.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.generalization import (
    CategorySet,
    Interval,
    Suppressed,
    numeric_representative,
    value_to_text,
)
from repro.dataset.schema import Schema
from repro.exceptions import SchemaError, TableError

__all__ = ["Table", "chain_fingerprints"]


def chain_fingerprints(base: str, delta: str) -> str:
    """The chained fingerprint of appending a ``delta`` table onto ``base``.

    ``sha256(base_fp ‖ delta_fp)`` over the two hex digests: the identity of
    an appended table is a pure function of the identities of its parts, so
    appending N rows costs O(N) hashing (the delta's own digest) instead of
    re-canonicalizing every cell of the combined table.  The chain is
    order-sensitive — ``append(a, b)`` and ``append(b, a)`` differ — and a
    chained fingerprint deliberately differs from the canonical content
    digest of the equivalent monolithic table: the service treats an
    appended dataset as a *new* dataset whose caches start cold.
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro.table.append.v1")
    hasher.update(base.encode("ascii"))
    hasher.update(delta.encode("ascii"))
    return hasher.hexdigest()


def _as_column_array(values: Sequence[object] | np.ndarray) -> np.ndarray:
    """Coerce a column to its typed storage array (int64 / float64 / object)."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TableError(f"columns must be one-dimensional, got shape {values.shape}")
        kind = values.dtype.kind
        if kind in ("i", "u"):
            return values.astype(np.int64)
        if kind == "f":
            return values.astype(np.float64)
        if values.dtype == object:
            return values.copy()
        values = values.tolist()
    else:
        values = list(values)

    all_int = True
    numeric = bool(values)
    for value in values:
        if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            numeric = False
            break
        if not isinstance(value, (int, np.integer)):
            all_int = False

    if numeric:
        try:
            return np.array(values, dtype=np.int64 if all_int else np.float64)
        except (OverflowError, ValueError):
            pass  # e.g. integers beyond int64: keep exact objects
    array = np.empty(len(values), dtype=object)
    if len(values):
        try:
            array[:] = values
        except ValueError:  # cells that look like nested sequences to numpy
            for i, value in enumerate(values):
                array[i] = value
    return array


def _py_value(value: object) -> object:
    """Unwrap numpy scalars so accessors hand out plain Python values."""
    return value.item() if isinstance(value, np.generic) else value


def _column_to_list(array: np.ndarray) -> list[object]:
    """A fresh Python list of a storage array's values."""
    return array.tolist() if array.dtype != object else list(array)


def _cells_equal(left: object, right: object) -> bool:
    """Scalar cell equality that treats NaN as equal to NaN."""
    if left is right:
        return True
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) and math.isnan(right):
            return True
    return bool(left == right)


def _arrays_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """NaN-aware equality of two storage arrays (possibly of different dtypes)."""
    if left.shape != right.shape:
        return False
    left_kind, right_kind = left.dtype.kind, right.dtype.kind
    if left_kind == "i" and right_kind == "i":
        return bool(np.array_equal(left, right))
    if left_kind == "f" and right_kind == "f":
        return bool(np.array_equal(left, right, equal_nan=True))
    # Mixed dtypes (int vs float, object vs anything): exact scalar
    # comparison — casting int64 to float64 would conflate integers that
    # differ beyond 2**53.
    return all(
        _cells_equal(a, b) for a, b in zip(_column_to_list(left), _column_to_list(right))
    )


class Table:
    """An immutable, schema-aware, column-oriented table.

    Parameters
    ----------
    schema:
        The :class:`~repro.dataset.schema.Schema` describing the columns.
    columns:
        Mapping of column name to a sequence of values.  Every schema
        attribute must be present and all columns must share the same length.
    """

    __slots__ = (
        "_schema", "_columns", "_num_rows", "_numeric_views", "_factorized", "_fingerprint"
    )

    def __init__(self, schema: Schema, columns: Mapping[str, Sequence[object]]) -> None:
        self._schema = schema
        missing = [name for name in schema.names if name not in columns]
        if missing:
            raise TableError(f"missing columns for schema attributes: {missing}")
        extra = [name for name in columns if name not in schema]
        if extra:
            raise TableError(f"columns not declared in schema: {extra}")

        arrays = {name: _as_column_array(columns[name]) for name in schema.names}
        lengths = {name: array.shape[0] for name, array in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise TableError(f"columns have inconsistent lengths: {lengths}")

        self._columns: dict[str, np.ndarray] = arrays
        self._num_rows = next(iter(lengths.values())) if lengths else 0
        self._numeric_views: dict[str, np.ndarray] = {}
        self._factorized: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._fingerprint: str | None = None

    @classmethod
    def _from_arrays(
        cls, schema: Schema, arrays: dict[str, np.ndarray], num_rows: int
    ) -> "Table":
        """Internal zero-copy constructor: ``arrays`` are adopted, not copied.

        Callers must hand over storage arrays that are never mutated again —
        this is how projections and gathers share column buffers.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._columns = arrays
        table._num_rows = num_rows
        table._numeric_views = {}
        table._factorized = {}
        table._fingerprint = None
        return table

    # Construction helpers ------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[object] | Mapping[str, object]]) -> "Table":
        """Build a table from an iterable of rows (sequences or mappings)."""
        columns: dict[str, list[object]] = {name: [] for name in schema.names}
        for row in rows:
            if isinstance(row, Mapping):
                for name in schema.names:
                    if name not in row:
                        raise TableError(f"row is missing column {name!r}: {row!r}")
                    columns[name].append(row[name])
            else:
                values = list(row)
                if len(values) != len(schema.names):
                    raise TableError(
                        f"row has {len(values)} values, schema has {len(schema.names)} columns"
                    )
                for name, value in zip(schema.names, values):
                    columns[name].append(value)
        return cls(schema, columns)

    # Basic protocol ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema.names != other._schema.names:
            return False
        return all(
            _arrays_equal(self._columns[name], other._columns[name])
            for name in self._schema.names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(rows={self.num_rows}, columns={list(self._schema.names)})"

    # Content identity -----------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """A stable content fingerprint of the table (sha256 hex digest).

        The fingerprint hashes the schema (column names, roles, kinds, in
        order) together with the *values* of every column buffer.  It is a
        pure function of content: a buffer-sharing full :meth:`project` and
        independently constructed tables with equal cells produce the same
        fingerprint, while any cell edit, row reorder, or schema change
        produces a different one.  Numeric cells are canonicalized before hashing —
        ``5`` and ``5.0`` hash identically (matching ``__eq__`` and the CSV
        round trip), every NaN hashes the same, and ``-0.0`` hashes as
        ``0.0`` — so the digest does not depend on whether a column happens
        to be stored as ``int64``, ``float64`` or ``object``.

        This is the dataset identity the anonymization service keys its
        release/result caches on.
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(b"repro.table.v1")
            for attribute in self._schema.attributes:
                declaration = (
                    f"{attribute.name}\x1f{attribute.role.value}\x1f{attribute.kind.value}"
                ).encode("utf-8")
                hasher.update(len(declaration).to_bytes(4, "big"))
                hasher.update(declaration)
                hasher.update(_column_digest(self._columns[attribute.name]))
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    # Access ---------------------------------------------------------------------

    def column(self, name: str) -> list[object]:
        """A copy of the values of column ``name``."""
        return _column_to_list(self.column_array(name))

    def column_array(self, name: str) -> np.ndarray:
        """The typed storage array of column ``name``.

        The returned array is the table's own buffer — treat it as read-only.
        Numeric columns are ``int64``/``float64``; identifier, categorical and
        generalized columns are ``object``.
        """
        array = self._columns.get(name)
        if array is None:
            raise TableError(f"unknown column: {name!r}")
        return array

    def numeric_column(self, name: str) -> np.ndarray:
        """Column ``name`` as a float array, resolving generalized cells.

        Intervals map to their midpoints; suppressed / categorical cells map
        to ``nan``.  The conversion is cached per column; callers receive a
        fresh copy they are free to mutate.
        """
        return self._numeric_view(name).copy()

    def _numeric_view(self, name: str) -> np.ndarray:
        """The cached float view of a column.  Internal callers must not mutate."""
        view = self._numeric_views.get(name)
        if view is None:
            array = self.column_array(name)
            if array.dtype.kind in "if":
                view = array.astype(np.float64, copy=False)
            else:
                codes, cells = self.factorize(name)
                view = np.array(
                    [numeric_representative(cell) for cell in cells], dtype=np.float64
                )[codes]
            self._numeric_views[name] = view
        return view

    def factorize(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Object column ``name`` as ``(codes, cells)`` with ``cells[codes][i] is column[i]``.

        ``cells`` holds the ``m`` distinct cell objects (by identity: release
        rows share one cell per class) in order of first appearance; ``codes``
        is the ``(n,) intp`` gather index.  Cached per column and read-only;
        ``int64``/``float64`` columns raise :class:`TableError`.
        """
        pair = self._factorized.get(name)
        if pair is None:
            array = self.column_array(name)
            if array.dtype != object:
                raise TableError(f"column {name!r} is {array.dtype}, not an object column")
            # The array keeps every cell alive, so ids are stable for the pass.
            ids = np.fromiter(map(id, array), dtype=np.uint64, count=array.shape[0])
            _, first, by_address = np.unique(ids, return_index=True, return_inverse=True)
            # np.unique numbers cells by address; renumber by first appearance.
            order = np.argsort(first)
            rank = np.empty(order.shape[0], dtype=np.intp)
            rank[order] = np.arange(order.shape[0])
            codes = rank[by_address]
            cells = array[first[order]]
            codes.flags.writeable = False
            cells.flags.writeable = False
            pair = (codes, cells)
            self._factorized[name] = pair
        return pair

    def row(self, index: int) -> dict[str, object]:
        """Row ``index`` as a ``{column: value}`` dict."""
        if not 0 <= index < self._num_rows:
            raise TableError(f"row index {index} out of range [0, {self._num_rows})")
        return {
            name: _py_value(self._columns[name][index]) for name in self._schema.names
        }

    def rows(self) -> list[dict[str, object]]:
        """All rows as dicts (in row order)."""
        names = self._schema.names
        if not names:
            return []
        columns = [self.column(name) for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def cell(self, index: int, name: str) -> object:
        """The single cell at (``index``, ``name``)."""
        array = self.column_array(name)
        if not 0 <= index < self._num_rows:
            raise TableError(f"row index {index} out of range [0, {self._num_rows})")
        return _py_value(array[index])

    # Relational operations --------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the columns in ``names`` (schema roles are preserved).

        Column buffers are shared with the parent table (zero-copy).
        """
        schema = self._schema.project(names)
        arrays = {name: self._columns[name] for name in names}
        return Table._from_arrays(schema, arrays, self._num_rows)

    def drop_columns(self, names: Sequence[str]) -> "Table":
        """Drop the columns in ``names`` (remaining buffers are shared)."""
        schema = self._schema.drop(names)
        arrays = {name: self._columns[name] for name in schema.names}
        return Table._from_arrays(schema, arrays, self._num_rows)

    def take(self, indices: Sequence[int]) -> "Table":
        """Rows at ``indices`` in the given order (one fancy-index per column)."""
        index_array = np.asarray(indices, dtype=np.intp)
        if index_array.ndim != 1:
            raise TableError(f"row indices must be one-dimensional, got {index_array.shape}")
        if index_array.size:
            bad = (index_array < 0) | (index_array >= self._num_rows)
            if bad.any():
                offender = int(index_array[bad][0])
                raise TableError(
                    f"row index {offender} out of range [0, {self._num_rows})"
                )
        arrays = {name: array[index_array] for name, array in self._columns.items()}
        return Table._from_arrays(self._schema, arrays, int(index_array.size))

    def replace_column(self, name: str, values: Sequence[object]) -> "Table":
        """A new table with column ``name`` replaced by ``values``."""
        if name not in self._schema:
            raise TableError(f"unknown column: {name!r}")
        array = _as_column_array(values)
        if array.shape[0] != self._num_rows:
            raise TableError(
                f"replacement column has {array.shape[0]} values, table has {self._num_rows} rows"
            )
        arrays = dict(self._columns)
        arrays[name] = array
        return Table._from_arrays(self._schema, arrays, self._num_rows)

    def concat(self, other: "Table") -> "Table":
        """Vertical concatenation of two tables with identical schemas."""
        if self._schema.names != other._schema.names:
            raise TableError("cannot concatenate tables with different schemas")
        arrays: dict[str, np.ndarray] = {}
        for name in self._schema.names:
            left, right = self._columns[name], other._columns[name]
            if left.dtype == right.dtype and left.dtype != object:
                arrays[name] = np.concatenate([left, right])
            else:
                arrays[name] = _as_column_array(
                    _column_to_list(left) + _column_to_list(right)
                )
        return Table._from_arrays(
            self._schema, arrays, self._num_rows + other._num_rows
        )

    def append(self, other: "Table") -> "Table":
        """Append ``other``'s rows, chaining the content fingerprint.

        Array mechanics are exactly :meth:`concat`; the difference is
        identity.  The result's fingerprint is pre-seeded with
        :func:`chain_fingerprints` of the two operands' fingerprints, so the
        cost of identifying the appended table is O(delta rows) — only the
        delta's columns are ever canonicalized — instead of O(total rows).
        The appended schema must match (same names, roles and kinds): a
        chained fingerprint asserts the schema declaration bytes of both
        operands, and diverging roles would silently change what the hash
        covers.
        """
        mine = [(a.name, a.role, a.kind) for a in self._schema.attributes]
        theirs = [(a.name, a.role, a.kind) for a in other._schema.attributes]
        if mine != theirs:
            raise TableError("cannot append a table with a different schema")
        combined = self.concat(other)
        combined._fingerprint = chain_fingerprints(self.fingerprint, other.fingerprint)
        return combined

    def numeric_columns(self, names: Sequence[str]) -> dict[str, np.ndarray]:
        """Several columns as ``(rows,)`` float arrays, resolving generalized cells.

        This is the column-wise access path of the batch fusion engine: the
        attack assembles its inputs directly from these arrays (NaN marking
        suppressed / non-numeric cells) instead of iterating per-record dicts.
        """
        return {name: self.numeric_column(name) for name in names}

    # Privacy-specific views --------------------------------------------------------

    def quasi_identifier_matrix(self) -> np.ndarray:
        """The numeric quasi-identifier block as a ``(rows, qi)`` float matrix.

        Categorical quasi-identifiers are excluded; generalized numeric cells
        resolve to interval midpoints (``nan`` when suppressed).
        """
        names = self._schema.numeric_quasi_identifiers
        if not names:
            raise SchemaError("table has no numeric quasi-identifier columns")
        return np.column_stack([self._numeric_view(name) for name in names])

    def sensitive_vector(self) -> np.ndarray:
        """The (single) sensitive column as a float vector."""
        return self.numeric_column(self._schema.sensitive_attribute)

    def identifier_column(self) -> list[object]:
        """The first identifier column (the 'Name' column of the paper)."""
        identifiers = self._schema.identifiers
        if not identifiers:
            raise SchemaError("table has no identifier column")
        return self.column(identifiers[0])

    def release_view(self, keep_sensitive: bool = False) -> "Table":
        """The enterprise-release view: identifiers + quasi-identifiers.

        The sensitive column is dropped unless ``keep_sensitive`` is set.  Note
        this does **not** anonymize the quasi-identifiers; anonymizers in
        :mod:`repro.anonymize` produce generalized releases from this view.
        """
        schema = self._schema.release_schema(keep_sensitive=keep_sensitive)
        return self.project(list(schema.names))

    # Rendering -----------------------------------------------------------------------

    def to_text(self, max_rows: int | None = 20) -> str:
        """ASCII rendering of the table (used by the experiment harness)."""
        names = list(self._schema.names)
        limit = self._num_rows if max_rows is None else min(max_rows, self._num_rows)
        columns = [
            [value_to_text(value) for value in _column_to_list(self.column_array(name)[:limit])]
            for name in names
        ]
        rendered_rows = [list(row) for row in zip(*columns)] if columns else []
        widths = [
            max(len(name), *(len(row[j]) for row in rendered_rows)) if rendered_rows else len(name)
            for j, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(widths[j]) for j, name in enumerate(names))
        separator = "-+-".join("-" * w for w in widths)
        lines = [header, separator]
        for row in rendered_rows:
            lines.append(" | ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if limit < self._num_rows:
            lines.append(f"... ({self._num_rows - limit} more rows)")
        return "\n".join(lines)


def _canonical_float_bytes(array: np.ndarray) -> bytes:
    """Raw bytes of a float column with NaN and signed-zero canonicalized."""
    canonical = array.astype(np.float64, copy=True)
    canonical += 0.0  # -0.0 -> +0.0
    nan_mask = np.isnan(canonical)
    if nan_mask.any():
        canonical[nan_mask] = np.nan  # one NaN bit pattern for all NaNs
    return canonical.tobytes()


def _cell_token(value: object) -> bytes:
    """Canonical byte token of one object-column cell for fingerprinting.

    Integral floats collapse onto their integer token so a cell compares the
    same way it hashes (``5 == 5.0``); NaN maps to a dedicated token.
    """
    if value is None:
        return b"N"
    if isinstance(value, Suppressed):
        return b"*"
    if isinstance(value, Interval):
        return f"I\x1f{_number_token(value.low)}\x1f{_number_token(value.high)}".encode()
    if isinstance(value, CategorySet):
        members = "\x1f".join(value.members)
        return f"C\x1f{value.label}\x1f{members}".encode("utf-8")
    if isinstance(value, (bool, np.bool_)):
        return b"b1" if value else b"b0"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return b"n" + _number_token(value).encode("utf-8")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    return b"r" + repr(value).encode("utf-8")


def _number_token(value: object) -> str:
    """Canonical text of a number: equal values (int or float) share one token.

    Integers tokenize exactly; an integral float tokenizes as the integer it
    exactly equals (floats are exact rationals, so ``int(number)`` is exact at
    any magnitude); non-integral floats use their shortest round-trip repr.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    number = float(value)  # type: ignore[arg-type]
    if math.isnan(number):
        return "nan"
    if math.isinf(number):
        return "inf" if number > 0 else "-inf"
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _float_exactly_represents(value: object) -> bool:
    """Whether ``float(value)`` preserves the numeric value exactly."""
    if isinstance(value, (float, np.floating)):
        return True
    try:
        return int(float(int(value))) == int(value)  # type: ignore[arg-type]
    except OverflowError:
        return False


def _column_digest(array: np.ndarray) -> bytes:
    """Content digest of one storage array, independent of its dtype.

    Integer columns whose values survive the ``float64`` round trip hash via
    the same canonical float buffer as float columns (so ``[1, 2]`` and
    ``[1.0, 2.0]`` collide on purpose, exactly as they compare equal);
    everything else hashes per-cell canonical tokens.
    """
    hasher = hashlib.sha256()
    kind = array.dtype.kind
    if array.shape[0] == 0:
        # Empty columns digest identically whatever their storage dtype
        # (the constructor stores them as object, gathers keep them typed).
        hasher.update(b"empty")
    elif kind == "f":
        hasher.update(b"num")
        hasher.update(_canonical_float_bytes(array))
    elif kind in "iu":
        # |v| <= 2**53 is always float64-exact (the vectorized common case);
        # larger magnitudes are verified per value through exact Python ints —
        # a float64->int64 round-trip cast would hit undefined overflow near
        # the int64 boundary and emit RuntimeWarnings.
        in_safe_range = bool(
            ((array >= -(2**53)) & (array <= 2**53)).all()
        )
        if in_safe_range or all(_float_exactly_represents(v) for v in array.tolist()):
            hasher.update(b"num")
            hasher.update(array.astype(np.float64).tobytes())
        else:  # integers float64 cannot represent: exact per-value tokens
            hasher.update(b"obj")
            for value in array.tolist():
                token = _cell_token(value)
                hasher.update(len(token).to_bytes(4, "big"))
                hasher.update(token)
    else:
        values = list(array)
        if values and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, (bool, np.bool_))
            and _float_exactly_represents(v)
            for v in values
        ):
            # Plain-number object columns (e.g. ungeneralized release cells)
            # hash exactly like their typed int64/float64 counterparts; the
            # exact-representation test mirrors the int64 branch above, so the
            # float-buffer/token decision depends only on the values.
            hasher.update(b"num")
            hasher.update(
                _canonical_float_bytes(np.array([float(v) for v in values], dtype=np.float64))
            )
        else:
            hasher.update(b"obj")
            for value in values:
                token = _cell_token(value)
                hasher.update(len(token).to_bytes(4, "big"))
                hasher.update(token)
    return hasher.digest()
