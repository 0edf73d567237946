"""CSV persistence for :class:`~repro.dataset.table.Table`.

A table round-trips with its schema as ordinary CSV with a two-line header:
the first line holds the column names, the second line holds ``role:kind``
declarations so that a round-tripped file reconstructs the same schema.
Generalized cells are rendered with the paper's textual syntax (``[5-10]``,
``*``) and parsed back.

Streaming ingest
----------------
The reader is built on a *streaming* parser (:func:`stream_csv`) that
consumes any iterable of text lines — a file handle, an HTTP request body
decoded chunk by chunk — and assembles the table in fixed-size column chunks
(``chunk_rows`` at a time, each chunk coerced to its typed array and
concatenated at the end).  Registration in the anonymization service feeds
this parser directly from the socket, so a dataset larger than any single
request buffer never has to exist as one Python string.  ``read_csv(path)``
is a thin wrapper over the same code path, which is what makes the chunked
and in-memory results identical by construction (and property-tested to
stay that way).

Chunked NumPy fast path
-----------------------
Numeric-heavy CSVs dominate ingest, and for them the per-cell machinery —
``csv.reader`` tokenization plus up to three regex probes and a ``float()``
call per cell — is pure overhead.  :func:`stream_csv` therefore parses
quote-free lines on a *fast path* that never touches lines individually:
each ``chunk_rows`` block is one joined string, the whole cell grid comes
from a single ``replace`` + ``split(",")`` pass over it, and every column is
a strided slice of the flat cell list.  A numeric column chunk that passes a
charclass + dot-position scan (or fullmatches the full number grammar) is
converted with one vectorized ``float64`` parse (then narrowed to ``int64``
exactly when the line-by-line parser would have produced integers); a text
column chunk that fullmatches the plain-text grammar is kept verbatim; and
only chunks with special cells (empty, ``*``, intervals, category sets,
padding) fall back to per-cell :func:`parse_cell`.  The first quote
character seen hands everything not yet parsed to the historical
``csv.reader`` path, so quoted delimiters and quoted embedded newlines
behave exactly as before, and blocks the flat view cannot represent (bare
``\r`` endings, unterminated lines, blank interior lines, ragged rows) take
the historical per-line split.  The two paths are property-tested
equivalent (``fast=False`` forces the line-by-line parser).
"""

from __future__ import annotations

import csv
import io as _io
import math
import re
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping

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

#: One cell the numeric fast path may hand to ``astype(float64)`` verbatim:
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

#: One text cell the fast path may keep verbatim: non-empty, no leading or
#: trailing whitespace, and not opening with generalized syntax — exactly the
#: cells :func:`parse_cell` returns stripped-and-unchanged.  A column chunk
#: whose joined cells fullmatch this grammar needs no per-cell work at all.
_FAST_TEXT_CELL = r"[^\s*\[{](?:[^\n]*[^\s\n])?"
_FAST_TEXT_COLUMN_RE = re.compile(rf"(?:{_FAST_TEXT_CELL})(?:\n(?:{_FAST_TEXT_CELL}))*")

#: Largest float64 magnitude the fast path narrows to ``int64`` (all integral
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


class _ChunkedColumns:
    """Assemble columns from streamed rows, ``chunk_rows`` rows at a time.

    Each full chunk is coerced to its typed storage array immediately, so the
    per-cell Python values of a large ingest are released as parsing
    proceeds; :meth:`finish` concatenates the typed chunks (or falls back to
    an object rebuild when chunk dtypes disagree, which reproduces exactly
    what a single whole-column coercion would have produced).
    """

    def __init__(self, names: list[str], chunk_rows: int) -> None:
        if chunk_rows < 1:
            raise TableError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self._names = names
        self._chunk_rows = chunk_rows
        self._pending: dict[str, list[object]] = {name: [] for name in names}
        self._chunks: dict[str, list[np.ndarray]] = {name: [] for name in names}
        self._pending_rows = 0

    def append_row(self, values: Iterable[object]) -> None:
        for name, value in zip(self._names, values):
            self._pending[name].append(value)
        self._pending_rows += 1
        if self._pending_rows >= self._chunk_rows:
            self._flush()

    def _flush(self) -> None:
        if not self._pending_rows:
            return
        for name in self._names:
            self._chunks[name].append(_as_column_array(self._pending[name]))
            self._pending[name] = []
        self._pending_rows = 0

    def append_chunk(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Append one pre-parsed typed chunk (one equal-length array per column).

        This is the fast-path entry: a whole block of rows arrives as typed
        arrays, bypassing the per-row pending buffer.  Any rows still pending
        are flushed first so row order is preserved when fast and slow chunks
        interleave (e.g. a quoted region in the middle of a numeric file).
        """
        self._flush()
        for name in self._names:
            self._chunks[name].append(arrays[name])

    def finish(self, schema: Schema) -> Table:
        self._flush()
        arrays: dict[str, np.ndarray] = {}
        num_rows = 0
        for name in self._names:
            chunks = self._chunks[name]
            if not chunks:
                array = _as_column_array([])
            elif len(chunks) == 1:
                array = chunks[0]
            elif all(chunk.dtype.kind in "iuf" for chunk in chunks):
                array = np.concatenate(chunks)
            else:
                values: list[object] = []
                for chunk in chunks:
                    values.extend(
                        chunk.tolist() if chunk.dtype != object else list(chunk)
                    )
                array = _as_column_array(values)
            arrays[name] = array
            num_rows = array.shape[0]
        return Table._from_arrays(schema, arrays, num_rows)


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


def _parse_csv_rows(
    reader,
    columns: _ChunkedColumns,
    names: list[str],
    kinds: list[AttributeKind],
    source: str,
    line_offset: int = 0,
) -> None:
    """Consume a ``csv.reader`` into the column assembler (the slow path)."""
    for row in reader:
        if not row:  # blank line (e.g. the one implied by a trailing newline)
            continue
        if len(row) != len(names):
            raise TableError(
                f"line {reader.line_num + line_offset} of {source} has "
                f"{len(row)} cells, expected {len(names)}"
            )
        columns.append_row(
            parse_cell(cell, kind) for cell, kind in zip(row, kinds)
        )


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
    """Parse one column chunk, vectorizing the all-plain-content cases.

    The joined chunk must pass the plain-decimal scan or fullmatch the
    number grammar (numeric columns), or fullmatch the plain-text grammar
    (everything else), for the vectorized conversion to be trusted; any
    other content — empty cells, generalized syntax, padding, spellings
    NumPy and :func:`parse_cell` disagree on — re-parses the chunk cell by
    cell, which is exactly the line-by-line path.
    """
    if kind is AttributeKind.NUMERIC:
        joined = "\n".join(cells)
        values = None
        if _plain_decimal_column(joined):
            try:
                values = np.asarray(cells, dtype=np.float64)
            except ValueError:
                # NumPy is the arbiter of structure the scans don't check
                # ("1-2", "1.2.3", empty cells): re-parse cell by cell.
                values = None
        elif _FAST_NUMERIC_COLUMN_RE.fullmatch(joined):
            values = np.asarray(cells, dtype=np.float64)
        if values is not None:
            if bool(np.isfinite(values).all()) and bool(
                (values == np.floor(values)).all()
            ):
                # parse_cell returns ints for integral numbers ("5", "5.0",
                # "1e3"); mirror that as an int64 chunk whenever the
                # conversion is exact.  An all-integral chunk reaching past
                # int64 becomes an exact-python-int object column on the
                # line-by-line path, so re-parse it per cell to match dtypes.
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


def _append_fast_chunk_rows(
    columns: _ChunkedColumns,
    chunk_lines: list[str],
    names: list[str],
    kinds: list[AttributeKind],
    source: str,
    start_line: int,
) -> None:
    """Split, transpose and parse a quote-free block line by line.

    This is the exact-error path: it tolerates blank lines, bare ``\\r``
    endings and lines without terminators, and reports the precise document
    line of a row with the wrong cell count.
    """
    expected = len(names)
    rows: list[list[str]] = []
    for offset, raw in enumerate(chunk_lines):
        text = raw.rstrip("\r\n")
        if not text:  # blank line (e.g. the one implied by a trailing newline)
            continue
        cells = text.split(",")
        if len(cells) != expected:
            raise TableError(
                f"line {start_line + offset} of {source} has {len(cells)} cells, "
                f"expected {expected}"
            )
        rows.append(cells)
    if not rows:
        return
    columns.append_chunk(
        {
            name: _fast_parse_column(list(column_cells), kind)
            for name, kind, column_cells in zip(names, kinds, zip(*rows))
        }
    )


def _append_fast_chunk(
    columns: _ChunkedColumns,
    chunk_lines: list[str],
    names: list[str],
    kinds: list[AttributeKind],
    source: str,
    start_line: int,
    block: str | None = None,
) -> None:
    """Split, transpose and parse one quote-free block of raw lines.

    The common case never touches the lines individually: the block is one
    joined string, the whole cell grid comes from a single ``replace`` +
    ``split(",")`` pass over it, and each column is a strided slice of the
    flat cell list.  Anything the flat view cannot represent bit-identically
    — a missing line terminator, a bare ``\\r`` ending, a blank interior
    line, a row with the wrong cell count — falls back to
    :func:`_append_fast_chunk_rows`, which also owns the exact error
    messages.
    """
    if not chunk_lines:
        return
    if block is None:
        block = "".join(chunk_lines)
    if not block.endswith("\n"):
        block += "\n"
    if "\r" in block:
        block = block.replace("\r\n", "\n")
    if (
        "\r" in block  # a bare \r ending survived CRLF normalization
        or block.count("\n") != len(chunk_lines)  # unterminated line mid-chunk
        or block.startswith("\n")  # blank first line
        or "\n\n" in block  # blank interior/trailing line
    ):
        _append_fast_chunk_rows(columns, chunk_lines, names, kinds, source, start_line)
        return
    body = block[:-1]
    expected = len(names)
    if expected == 1:
        if "," in body:  # some row has more than one cell: exact error path
            _append_fast_chunk_rows(
                columns, chunk_lines, names, kinds, source, start_line
            )
            return
        flat = body.split("\n")
    else:
        row_strings = body.split("\n")
        counts = set(map(str.count, row_strings, repeat(",")))
        if counts != {expected - 1}:
            _append_fast_chunk_rows(
                columns, chunk_lines, names, kinds, source, start_line
            )
            return
        flat = body.replace("\n", ",").split(",")
    columns.append_chunk(
        {
            name: _fast_parse_column(flat[index::expected], kind)
            for index, (name, kind) in enumerate(zip(names, kinds))
        }
    )


def stream_csv(
    lines: Iterable[str],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    source: str = "<stream>",
    fast: bool = True,
) -> Table:
    """Parse CSV text arriving as an iterable of lines into a table.

    ``lines`` may be a file handle (opened with ``newline=""``) or any
    iterator of decoded text lines — quoted delimiters and quoted embedded
    newlines are handled by the ``csv`` machinery even when a quoted field
    spans lines.  Rows are assembled in ``chunk_rows``-sized column chunks;
    the result is identical to parsing the whole document in memory.

    With ``fast`` set (the default), quote-free lines take the chunked NumPy
    fast path described in the module docstring; the first quote character
    hands the rest of the stream to the line-by-line parser.  ``fast=False``
    forces the line-by-line parser throughout — the two modes are equivalent
    by property test, so the flag only exists for benchmarking and pinning.

    Raises :class:`~repro.exceptions.TableError` for an empty document or a
    document whose two header lines are missing or inconsistent; a
    header-only document yields an empty (zero-row) table, and a trailing
    newline does not produce a phantom row.
    """
    iterator = iter(lines)
    if not fast:
        reader = csv.reader(iterator)
        names, declarations = _read_csv_header(reader, source)
        schema = _schema_from_declarations(names, declarations, source)
        kinds = [schema[name].kind for name in names]
        columns = _ChunkedColumns(list(names), chunk_rows)
        _parse_csv_rows(reader, columns, names, kinds, source)
        return columns.finish(schema)

    header_lines: list[str] = []
    for line in iterator:
        header_lines.append(line)
        if len(header_lines) == 2:
            break
    if any('"' in line for line in header_lines):
        # A quoted header cell may even span physical lines; restart the whole
        # parse on the csv machinery.
        return stream_csv(
            chain(header_lines, iterator), chunk_rows=chunk_rows, source=source,
            fast=False,
        )
    names, declarations = _read_csv_header(csv.reader(iter(header_lines)), source)
    schema = _schema_from_declarations(names, declarations, source)
    kinds = [schema[name].kind for name in names]
    columns = _ChunkedColumns(list(names), chunk_rows)

    chunk_start = 3  # 1-based line number of the first line in the chunk
    while True:
        chunk = list(islice(iterator, chunk_rows))
        if not chunk:
            break
        block = "".join(chunk)
        if '"' in block:
            # Quoted content (possibly spanning lines): parse the quote-free
            # prefix, then hand the rest — starting with the first quoted
            # line — to the csv machinery.
            quoted = next(
                index for index, line in enumerate(chunk) if '"' in line
            )
            _append_fast_chunk(
                columns, chunk[:quoted], names, kinds, source, chunk_start
            )
            _parse_csv_rows(
                csv.reader(chain(chunk[quoted:], iterator)),
                columns,
                names,
                kinds,
                source,
                line_offset=chunk_start + quoted - 1,
            )
            return columns.finish(schema)
        _append_fast_chunk(
            columns, chunk, names, kinds, source, chunk_start, block=block
        )
        chunk_start += len(chunk)
    return columns.finish(schema)


def read_csv(
    path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS, fast: bool = True
) -> Table:
    """Read a table previously written by :func:`write_csv`."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        return stream_csv(handle, chunk_rows=chunk_rows, source=str(path), fast=fast)


def append_csv(
    path: str | Path,
    table: Table,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    fast: bool = True,
) -> Table:
    """Append the delta rows of the CSV at ``path`` onto ``table``.

    The delta document carries the same two header lines as any other table
    CSV and must declare the same schema; its rows stream through the chunked
    NumPy fast path exactly like a cold ingest, so parsing cost is O(delta).
    The result is :meth:`Table.append` of the two tables — the fingerprint is
    the *chained* digest of the base and delta fingerprints, making the
    append identity O(delta) end to end.
    """
    delta = read_csv(path, chunk_rows=chunk_rows, fast=fast)
    return table.append(delta)
