"""CSV persistence for :class:`~repro.dataset.table.Table`.

A table round-trips with its schema as ordinary CSV with a two-line header:
the first line holds the column names, the second line holds ``role:kind``
declarations so that a round-tripped file reconstructs the same schema.
Generalized cells are rendered with the paper's textual syntax (``[5-10]``,
``*``) and parsed back.

Streaming ingest
----------------
:func:`stream_csv` consumes any iterable of text lines — a file handle, an
HTTP request body decoded chunk by chunk — so a dataset larger than any
single request buffer never exists as one Python string. It is one loop:
``csv.reader`` tokenizes every line (quoted delimiters and quoted line
breaks included), ``chunk_rows`` non-blank rows at a time are flattened and
sliced into column chunks, and :func:`_fast_parse_column` types each chunk —
one vectorized ``float64`` parse for a plain numeric chunk, the cells
verbatim for a plain text chunk, and :func:`parse_cell` per cell for any
chunk with special content (empty cells, ``*``, intervals, category sets,
padding). The typed chunks are concatenated at the end. ``read_csv(path)``
is a thin wrapper over the same loop, and the result equals the per-cell
reference parser in ``tests/csv_reference.py`` (property-tested on table,
fingerprint and dtype). Malformed CSV (for example a field over
``csv.field_size_limit()``) is a :class:`~repro.exceptions.TableError`
naming the source and line.
"""

from __future__ import annotations

import csv
import io as _io
import math
import re
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table, _as_column_array
from repro.exceptions import TableError

__all__ = [
    "write_csv",
    "read_csv",
    "append_csv",
    "render_csv",
    "stream_csv",
    "parse_cell",
    "render_cell",
]

_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_INTERVAL_RE = re.compile(rf"^\[(?P<low>{_NUMBER})-(?P<high>{_NUMBER})\]$")
_CATEGORY_RE = re.compile(r"^\{(?P<members>.+)\}$")
_NUMBER_RE = re.compile(rf"^{_NUMBER}$")

#: One cell :func:`_fast_parse_column` may hand to ``float64`` verbatim:
#: exactly the grammar :data:`_NUMBER_RE` accepts, plus the lowercase special
#: floats :func:`render_cell` emits.  Anything else (empty cells, ``*``,
#: intervals, padding spaces, ``+5``-style text) falls back to
#: :func:`parse_cell`, which NumPy's parser would otherwise treat differently.
_FAST_NUMBER = rf"{_NUMBER}|nan|inf|-inf"
_FAST_NUMERIC_COLUMN_RE = re.compile(rf"(?:{_FAST_NUMBER})(?:\n(?:{_FAST_NUMBER}))*")

#: Characters of a *plain decimal* column chunk: digits, sign, dot and the
#: cell separator.  Within this charset, the only strings NumPy's float
#: parser accepts but :data:`_NUMBER_RE` rejects are leading/trailing-dot
#: forms (``.5``, ``5.``, ``-.5``), so a chunk passing the charclass scan and
#: :func:`_plain_decimal_column`'s dot checks can skip the full grammar regex
#: — NumPy's own ``ValueError`` rejects everything else (``1-2``, ``1.2.3``,
#: empty cells), which then re-parses cell by cell.
_FAST_PLAIN_CHARS_RE = re.compile(r"[0-9.\-\n]+")

#: One text cell a column chunk may keep verbatim: non-empty, no leading or
#: trailing whitespace, and not opening with generalized syntax — exactly the
#: cells :func:`parse_cell` returns stripped-and-unchanged.  A column chunk
#: whose joined cells fullmatch this grammar needs no per-cell work at all.
_FAST_TEXT_CELL = r"[^\s*\[{](?:[^\n]*[^\s\n])?"
_FAST_TEXT_COLUMN_RE = re.compile(rf"(?:{_FAST_TEXT_CELL})(?:\n(?:{_FAST_TEXT_CELL}))*")

#: Largest float64 magnitude narrowed to ``int64`` (all integral
#: float64 values below it convert exactly).
_INT64_LIMIT = float(2**63)

#: Rows accumulated per column chunk before coercion to a typed array.
DEFAULT_CHUNK_ROWS = 4096


def render_cell(value: object) -> str:
    """Render a single cell to its CSV text form."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value.is_integer():
            return str(int(value))
    return str(value)


def parse_cell(text: str, kind: AttributeKind) -> object:
    """Parse a CSV cell back into a Python value or generalized cell."""
    text = text.strip()
    if text == "":
        return None
    if text == "*":
        return SUPPRESSED
    interval_match = _INTERVAL_RE.match(text)
    if interval_match:
        return Interval(float(interval_match.group("low")), float(interval_match.group("high")))
    category_match = _CATEGORY_RE.match(text)
    if category_match:
        members = [m.strip() for m in category_match.group("members").split(",")]
        return CategorySet(members)
    if kind is AttributeKind.NUMERIC:
        if _NUMBER_RE.match(text):
            value = float(text)
            return int(value) if value.is_integer() else value
        lowered = text.lower()
        if lowered == "nan":
            return float("nan")
        if lowered in ("inf", "+inf", "infinity", "+infinity"):
            return float("inf")
        if lowered in ("-inf", "-infinity"):
            return float("-inf")
    return text


# --------------------------------------------------------------------------
# Shared schema-header handling and chunked column assembly.
# --------------------------------------------------------------------------


def _schema_from_declarations(
    names: list[str], declarations: list[str], source: str
) -> Schema:
    if len(declarations) != len(names):
        raise TableError(
            f"CSV header mismatch in {source}: {len(names)} names, "
            f"{len(declarations)} declarations"
        )
    attributes = []
    for name, declaration in zip(names, declarations):
        try:
            role_text, kind_text = declaration.split(":")
            attributes.append(
                Attribute(name, AttributeRole(role_text), AttributeKind(kind_text))
            )
        except ValueError as exc:
            raise TableError(
                f"invalid role:kind declaration {declaration!r} for column {name!r}"
            ) from exc
    return Schema(attributes)


def _concatenate_chunks(chunks: list[np.ndarray]) -> np.ndarray:
    """Join the typed chunks of one column.

    Numeric chunks concatenate directly; chunks whose dtypes disagree in kind
    are rebuilt from their Python values, which reproduces exactly what a
    single whole-column coercion would have produced.
    """
    if not chunks:
        return _as_column_array([])
    if len(chunks) == 1:
        return chunks[0]
    if all(chunk.dtype.kind in "iuf" for chunk in chunks):
        return np.concatenate(chunks)
    values: list[object] = []
    for chunk in chunks:
        values.extend(chunk.tolist() if chunk.dtype != object else list(chunk))
    return _as_column_array(values)


# --------------------------------------------------------------------------
# CSV.
# --------------------------------------------------------------------------


def _quote_cells(cells: list[str]) -> list[str]:
    """Apply ``csv.writer``'s QUOTE_MINIMAL quoting to a column of cells.

    One disjoint-membership scan over the joined column proves the common
    case — no delimiter, quote or line-break anywhere — and returns the
    cells untouched; only columns actually containing special characters pay
    the per-cell pass.
    """
    probe = "\x00".join(cells)
    if (
        '"' not in probe
        and "," not in probe
        and "\r" not in probe
        and "\n" not in probe
    ):
        return cells
    quoted = []
    for cell in cells:
        if '"' in cell:
            quoted.append('"' + cell.replace('"', '""') + '"')
        elif "," in cell or "\r" in cell or "\n" in cell:
            quoted.append('"' + cell + '"')
        else:
            quoted.append(cell)
    return quoted


def _format_int_column(array: np.ndarray) -> list[str]:
    # One vectorized cast: the ``U21`` strings of an int64 array are exactly
    # ``str(value)`` for every representable value.
    return array.astype("U21").tolist()


def _format_float_column(array: np.ndarray) -> list[str]:
    """Format a float64 column with :func:`render_cell` semantics.

    Integral values (including whole-number floats beyond int64, which
    ``str(int(v))`` expands rather than showing ``1e+30``) render as
    integers; non-finite values use the fixed ``nan``/``inf`` spellings;
    everything else is the shortest-repr ``str(value)``.
    """
    finite = np.isfinite(array)
    integral = finite & (array == np.floor(array))
    if integral.all():
        if (np.abs(array) < _INT64_LIMIT).all():
            return array.astype(np.int64).astype("U21").tolist()
    elif finite.all() and not integral.any():
        return [str(value) for value in array.tolist()]
    values = array.tolist()
    flags = integral.tolist()
    cells = []
    for value, is_integral in zip(values, flags):
        if is_integral:
            cells.append(str(int(value)))
        elif value == value and not math.isinf(value):
            cells.append(str(value))
        elif value != value:
            cells.append("nan")
        else:
            cells.append("inf" if value > 0 else "-inf")
    return cells


def render_csv(table: Table) -> str:
    """Render ``table`` to CSV text (exactly the bytes :func:`write_csv` writes).

    The anonymization service uses this to serve releases: rendering once and
    caching the text guarantees every client of a cached release receives
    byte-identical output.

    The rendering is **columnar**: a numeric column formats in one vectorized
    pass, an object column renders and quotes each distinct cell of
    :meth:`Table.factorize` once and gathers the text by the codes, and the body
    assembles with bulk ``str.join`` — byte-identical to a row-by-row
    ``csv.writer`` over :meth:`Table.rows` (property-tested), at a fraction
    of the object churn.
    """
    header = _io.StringIO()
    writer = csv.writer(header)
    writer.writerow(table.schema.names)
    writer.writerow(
        [f"{attr.role.value}:{attr.kind.value}" for attr in table.schema.attributes]
    )
    if table.num_rows == 0:
        return header.getvalue()
    columns: list[list[str]] = []
    for name in table.schema.names:
        array = table.column_array(name)
        if array.dtype.kind == "i":
            columns.append(_format_int_column(array))
        elif array.dtype.kind == "f":
            columns.append(_format_float_column(array))
        else:
            codes, cells = table.factorize(name)
            rendered = _quote_cells([render_cell(cell) for cell in cells])
            if len(rendered) < table.num_rows:  # rows share cells: gather
                rendered = np.array(rendered, dtype=object)[codes].tolist()
            columns.append(rendered)
    body = "\r\n".join(",".join(cells) for cells in zip(*columns))
    return header.getvalue() + body + "\r\n"


def write_csv(table: Table, path: str | Path) -> Path:
    """Write ``table`` to ``path`` as :func:`render_csv` text and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(render_csv(table))
    return path


def _read_csv_header(reader, source: str) -> tuple[list[str], list[str]]:
    """Consume the two header rows (names, role:kind declarations)."""
    try:
        names = next(reader)
        declarations = next(reader)
    except StopIteration as exc:
        raise TableError(
            f"CSV document {source} is missing its two header lines"
        ) from exc
    return names, declarations


def _plain_decimal_column(joined: str) -> bool:
    """True when the joined chunk is plain signed decimals, cheaply.

    A charclass fullmatch plus a handful of substring scans (every pass at C
    speed) replaces the full number-grammar regex for the overwhelmingly
    common chunk shape.  The dot checks reject exactly the NumPy-accepted,
    grammar-rejected forms: a dot must have a digit on both sides, i.e. it
    may not touch a cell boundary, a sign, or another dot.
    """
    if not _FAST_PLAIN_CHARS_RE.fullmatch(joined):
        return False
    if "." in joined:
        if joined[0] == "." or joined[-1] == ".":
            return False
        for bad in ("..", "-.", ".-", ".\n", "\n."):
            if bad in joined:
                return False
    return True


def _fast_parse_column(cells: list[str], kind: AttributeKind) -> np.ndarray:
    """Type one column chunk, vectorizing the all-plain-content cases.

    The joined chunk must pass the plain-decimal scan or fullmatch the
    number grammar (numeric columns), or fullmatch the plain-text grammar
    (everything else), for the vectorized conversion to be trusted; any
    other content — empty cells, generalized syntax, padding, spellings
    NumPy and :func:`parse_cell` disagree on — re-parses the chunk with
    :func:`parse_cell` cell by cell.
    """
    if kind is AttributeKind.NUMERIC:
        joined = "\n".join(cells)
        values = None
        if _plain_decimal_column(joined) or _FAST_NUMERIC_COLUMN_RE.fullmatch(joined):
            try:
                values = np.asarray(cells, dtype=np.float64)
            except ValueError:
                # NumPy is the arbiter of structure the scans don't check
                # ("1-2", "1.2.3", a quoted cell holding a line break):
                # re-parse cell by cell.
                values = None
        if values is not None:
            if bool(np.isfinite(values).all()) and bool(
                (values == np.floor(values)).all()
            ):
                # parse_cell returns ints for integral numbers ("5", "5.0",
                # "1e3"); mirror that as an int64 chunk whenever the
                # conversion is exact.  An all-integral chunk reaching past
                # int64 becomes an exact-python-int object column under
                # parse_cell, so re-parse it per cell to match dtypes.
                if bool((np.abs(values) < _INT64_LIMIT).all()):
                    return values.astype(np.int64)
            else:
                return values
        return _as_column_array([parse_cell(cell, kind) for cell in cells])
    # Non-numeric columns: an ordinary cell — non-empty once stripped, not
    # starting with generalized syntax — is its stripped text verbatim.  One
    # regex scan proves a chunk is all-ordinary (and already stripped), so
    # only chunks with a special minority pay the per-cell probes.
    if _FAST_TEXT_COLUMN_RE.fullmatch("\n".join(cells)):
        return _as_column_array(cells)
    parsed: list[object] = []
    for cell in cells:
        text = cell.strip()
        if text and text[0] not in "*[{":
            parsed.append(text)
        else:
            parsed.append(parse_cell(text, kind))
    return _as_column_array(parsed)


def _data_rows(reader, width: int, source: str) -> Iterator[list[str]]:
    """The non-blank rows of ``reader``, each checked to hold ``width`` cells."""
    for row in reader:
        if len(row) != width:
            if not row:  # blank line (e.g. the one implied by a trailing newline)
                continue
            raise TableError(
                f"line {reader.line_num} of {source} has {len(row)} cells, "
                f"expected {width}"
            )
        yield row


def stream_csv(
    lines: Iterable[str],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    source: str = "<stream>",
) -> Table:
    """Parse CSV text arriving as an iterable of lines into a table.

    ``lines`` may be a file handle (opened with ``newline=""``) or any
    iterator of decoded text lines; a quoted field may span lines.  Rows are
    typed in ``chunk_rows``-sized column chunks; the result is identical to
    parsing the whole document in memory.

    Raises :class:`~repro.exceptions.TableError` for an empty document, a
    document whose two header lines are missing or inconsistent, a row with
    the wrong number of cells, or text ``csv.reader`` rejects (for example a
    field longer than ``csv.field_size_limit()``); a header-only document
    yields an empty (zero-row) table, and blank lines produce no rows.
    """
    if chunk_rows < 1:
        raise TableError(f"chunk_rows must be >= 1, got {chunk_rows}")
    reader = csv.reader(lines)
    try:
        names, declarations = _read_csv_header(reader, source)
        schema = _schema_from_declarations(names, declarations, source)
        kinds = [schema[name].kind for name in names]
        width = len(names)
        chunks: list[list[np.ndarray]] = [[] for _ in names]
        rows = _data_rows(reader, width, source)
        num_rows = 0
        # Flattening drops each row list as soon as it is read, so a chunk
        # never holds thousands of live lists for the cyclic GC to traverse;
        # column ``i`` is then the strided slice ``cells[i::width]``.
        while cells := list(chain.from_iterable(islice(rows, chunk_rows))):
            num_rows += len(cells) // width
            for index, (column_chunks, kind) in enumerate(zip(chunks, kinds)):
                column_chunks.append(_fast_parse_column(cells[index::width], kind))
    except csv.Error as exc:
        raise TableError(
            f"malformed CSV at line {reader.line_num} of {source}: {exc}"
        ) from exc
    arrays = {name: _concatenate_chunks(c) for name, c in zip(names, chunks)}
    return Table._from_arrays(schema, arrays, num_rows)


def read_csv(path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Table:
    """Read a table previously written by :func:`write_csv`."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        return stream_csv(handle, chunk_rows=chunk_rows, source=str(path))


def append_csv(
    path: str | Path, table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Table:
    """Append the delta rows of the CSV at ``path`` onto ``table``.

    The delta document carries the same two header lines as any other table
    CSV and must declare the same schema; its rows stream through
    :func:`stream_csv` exactly like a cold ingest, so parsing cost is
    O(delta).  The result is :meth:`Table.append` of the two tables — the
    fingerprint is the *chained* digest of the base and delta fingerprints,
    making the append identity O(delta) end to end.
    """
    return table.append(read_csv(path, chunk_rows=chunk_rows))
