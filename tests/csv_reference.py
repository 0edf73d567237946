"""The per-cell CSV parser that :func:`repro.dataset.io.stream_csv` is pinned to.

This is the simplest correct reading of a table CSV: ``csv.reader`` over the
whole document, the two header rows turned into a schema, blank rows
skipped, :func:`~repro.dataset.io.parse_cell` on every cell and one
whole-column coercion per column.  ``stream_csv`` types column chunks with
vectorized scans instead; the equivalence properties, the edge-case tests
and the ingest benchmark compare it with this reference on table,
fingerprint and per-column dtype.
"""

from __future__ import annotations

import csv
from typing import Iterable

from repro.dataset.io import _schema_from_declarations, parse_cell
from repro.dataset.table import Table, _as_column_array


def reference_stream_csv(lines: Iterable[str], source: str = "<reference>") -> Table:
    """Parse CSV text cell by cell (well-formed documents only)."""
    reader = csv.reader(lines)
    names, declarations = next(reader), next(reader)
    schema = _schema_from_declarations(names, declarations, source)
    rows = [row for row in reader if row]
    for row in rows:
        assert len(row) == len(names), f"ragged row {row!r} in {source}"
    columns = [list(cells) for cells in zip(*rows)] or [[] for _ in names]
    arrays = {
        name: _as_column_array([parse_cell(cell, schema[name].kind) for cell in cells])
        for name, cells in zip(names, columns)
    }
    return Table._from_arrays(schema, arrays, len(rows))
