"""Property-based tests for the serving tier's substrate.

Three families of invariants back the service:

* **Streaming ≡ in-memory ingest** — parsing a CSV document through the
  chunked streaming reader (any chunk size, including one row at a time) yields a table identical to parsing the whole document at once,
  including NaN, ``None`` and generalized-interval cells.  The service's
  upload path is exactly this code, so the property pins down registration
  correctness for arbitrarily framed request bodies.
* **Vectorized ≡ per-cell typing** — ``stream_csv`` equals the per-cell
  reference parser of ``tests/csv_reference.py`` on table, fingerprint and
  every column dtype, float bit patterns included.
* **Fingerprint semantics** — ``Table.fingerprint`` is invariant under
  buffer-sharing operations (full projection, rename round trips, identity
  gathers) and under rebuilding the same content from scratch, while any
  cell edit changes it.  The service's whole cache keying relies on these
  two directions.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval
from repro.dataset.io import render_cell, render_csv, stream_csv
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table

from csv_reference import reference_stream_csv

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

# Text cells avoid leading/trailing whitespace and the empty string: the CSV
# text format canonicalizes both away by design ("" round-trips to None).
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), whitelist_characters=", -_"),
    min_size=1,
    max_size=12,
).filter(lambda s: s == s.strip() and s != "")

_plain_numbers = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
)


def _interval_cells():
    return st.tuples(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ).map(lambda pair: Interval(float(pair[0]), float(pair[0] + pair[1])))


# Numeric quasi-identifier cells as the anonymization pipeline produces them:
# plain numbers, NaN, missing values, generalized intervals, suppression.
_numeric_cells = st.one_of(
    _plain_numbers,
    st.just(float("nan")),
    st.none(),
    _interval_cells(),
    st.just(SUPPRESSED),
)

_categorical_cells = st.one_of(
    _texts,
    st.none(),
    st.lists(_texts.filter(lambda s: "," not in s), min_size=1, max_size=3).map(CategorySet),
    st.just(SUPPRESSED),
)


@st.composite
def tables(draw, shared_cells=False):
    """Tables over a four-role schema.

    With ``shared_cells`` each column's rows are drawn from a small pool of
    cell objects, so rows repeat one object the way a release repeats one
    generalized cell per equivalence class (fewer distinct cells than rows).
    """
    rows = draw(st.integers(min_value=0, max_value=12))

    def column(cells):
        if not shared_cells:
            return draw(st.lists(cells, min_size=rows, max_size=rows))
        pool = draw(st.lists(cells, min_size=1, max_size=max(1, rows // 2)))
        picks = st.integers(min_value=0, max_value=len(pool) - 1)
        return [pool[i] for i in draw(st.lists(picks, min_size=rows, max_size=rows))]

    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("score", AttributeRole.QUASI_IDENTIFIER),
            Attribute("group", AttributeRole.QUASI_IDENTIFIER, AttributeKind.CATEGORICAL),
            Attribute("income", AttributeRole.SENSITIVE),
        ]
    )
    return Table(
        schema,
        {
            "name": column(_texts),
            "score": column(_numeric_cells),
            "group": column(_categorical_cells),
            "income": column(_plain_numbers),
        },
    )


# Raw cell text over the characters that steer the column typer: digits,
# number syntax, generalized syntax, padding, quotes and line breaks.
_raw_cells = st.one_of(
    st.text(alphabet='0123456789.-+eEnaif*[]{} ,"\n\rx', max_size=8),
    st.sampled_from(["nan", "-inf", "1e5", "[1-2]", "*", "{a, b}", " 5", "5\n", "\r\n7"]),
)


def _lines_of(text: str) -> list[str]:
    return text.splitlines(keepends=True)


# ---------------------------------------------------------------------------
# Streaming ingest ≡ in-memory ingest.
# ---------------------------------------------------------------------------


class TestStreamingEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(min_value=1, max_value=7))
    def test_csv_chunked_equals_in_memory(self, table, chunk_rows):
        text = render_csv(table)
        in_memory = stream_csv(io.StringIO(text))
        chunked = stream_csv(iter(_lines_of(text)), chunk_rows=chunk_rows)
        assert chunked == in_memory
        assert chunked.fingerprint == in_memory.fingerprint
        assert chunked.schema.names == in_memory.schema.names

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_csv_round_trip_is_stable(self, table):
        # CSV canonicalizes cell text, so one round trip may normalize cells
        # (e.g. integral floats); a second round trip must be a fixed point.
        once = stream_csv(io.StringIO(render_csv(table)))
        twice = stream_csv(io.StringIO(render_csv(once)))
        assert twice == once
        assert twice.fingerprint == once.fingerprint


# ---------------------------------------------------------------------------
# stream_csv ≡ the per-cell reference parser.
# ---------------------------------------------------------------------------


def _assert_same_parse(parsed: Table, reference: Table) -> None:
    assert parsed == reference
    assert parsed.fingerprint == reference.fingerprint
    assert parsed.schema.names == reference.schema.names
    for name in reference.schema.names:
        assert parsed.column_array(name).dtype == reference.column_array(name).dtype, name


class TestCsvFastPathEquivalence:
    """``stream_csv``'s vectorized column typing must be indistinguishable
    from the per-cell reference parser (``tests/csv_reference.py``) on
    arbitrary numeric / quoted / NaN tables, at every chunk size."""

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.integers(min_value=1, max_value=7))
    def test_fast_path_equals_line_by_line(self, table, chunk_rows):
        lines = _lines_of(render_csv(table))
        _assert_same_parse(
            stream_csv(iter(lines), chunk_rows=chunk_rows), reference_stream_csv(lines)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_raw_cells, _raw_cells), max_size=10),
        st.integers(min_value=1, max_value=4),
    )
    def test_quoted_line_breaks_and_padding_equal_reference(self, rows, chunk_rows):
        # Cells csv.writer must quote (line breaks, quotes, delimiters) and
        # cells parse_cell must strip reach the column typer inside one chunk.
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["label", "value"])
        writer.writerow(["identifier:text", "quasi_identifier:numeric"])
        writer.writerows(rows)
        text = buffer.getvalue()
        parsed = stream_csv(io.StringIO(text, newline=""), chunk_rows=chunk_rows)
        _assert_same_parse(parsed, reference_stream_csv(io.StringIO(text, newline="")))
        assert parsed.num_rows == len(rows)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=5),
    )
    def test_numeric_column_parse_is_bit_exact(self, values, chunk_rows):
        # Full-range floats (subnormals, huge exponents, NaN, inf): the
        # vectorized string->float64 conversion must agree with float() to
        # the last bit wherever both parsers store a float column.
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        lines = _lines_of(render_csv(Table(schema, {"x": values})))
        parsed = stream_csv(iter(lines), chunk_rows=chunk_rows)
        reference = reference_stream_csv(lines)
        _assert_same_parse(parsed, reference)
        parsed_column, reference_column = parsed.column_array("x"), reference.column_array("x")
        if parsed_column.dtype.kind == "f":
            assert (
                parsed_column.view(np.int64) == reference_column.view(np.int64)
            ).all(), "float bit patterns diverged"
        elif parsed_column.dtype.kind == "i":
            assert (parsed_column == reference_column).all()


# ---------------------------------------------------------------------------
# Fingerprint invariants.
# ---------------------------------------------------------------------------


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_invariant_under_buffer_sharing_operations(self, table):
        names = list(table.schema.names)
        assert table.project(names).fingerprint == table.fingerprint
        assert table.rename({}).fingerprint == table.fingerprint
        round_trip = table.rename({"score": "s"}).rename({"s": "score"})
        assert round_trip.fingerprint == table.fingerprint
        assert table.take(list(range(table.num_rows))).fingerprint == table.fingerprint

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_rebuilt_content_shares_the_fingerprint(self, table):
        rebuilt = Table(
            table.schema, {name: table.column(name) for name in table.schema.names}
        )
        assert rebuilt.fingerprint == table.fingerprint
        subset = table.project(["name", "score"])
        fresh = Table(
            table.schema.project(["name", "score"]),
            {"name": table.column("name"), "score": table.column("score")},
        )
        assert subset.fingerprint == fresh.fingerprint

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.data())
    def test_any_cell_edit_changes_the_fingerprint(self, table, data):
        if table.num_rows == 0:
            return
        row = data.draw(st.integers(min_value=0, max_value=table.num_rows - 1))
        name = data.draw(st.sampled_from(list(table.schema.names)))
        values = table.column(name)
        original = values[row]
        replacement = "\x00edited-cell\x00"
        if isinstance(original, str) and original == replacement:
            return
        values[row] = replacement
        edited = table.replace_column(name, values)
        assert edited.fingerprint != table.fingerprint

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_renaming_a_column_changes_the_fingerprint(self, table):
        renamed = table.rename({"score": "other_score"})
        assert renamed.fingerprint != table.fingerprint

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_row_reorder_changes_the_fingerprint(self, table):
        if table.num_rows < 2:
            return
        reversed_rows = table.take(list(range(table.num_rows - 1, -1, -1)))
        if reversed_rows == table:  # palindromic content really is identical
            assert reversed_rows.fingerprint == table.fingerprint
        else:
            assert reversed_rows.fingerprint != table.fingerprint

    def test_nan_and_signed_zero_canonicalization(self):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        computed_nan = float("inf") - float("inf")
        left = Table(schema, {"x": [0.0, float("nan")]})
        right = Table(schema, {"x": [-0.0, computed_nan]})
        assert math.isnan(computed_nan)
        assert left.fingerprint == right.fingerprint

    def test_int_and_float_storage_share_fingerprints(self):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        assert (
            Table(schema, {"x": [1, 2, 3]}).fingerprint
            == Table(schema, {"x": [1.0, 2.0, 3.0]}).fingerprint
        )

    def test_fingerprint_is_storage_independent_beyond_2_53(self):
        import numpy as np

        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        for values in ([10**16, 2**54], [2**54 + 1, 5], [2**53 + 1, 0]):
            typed = Table(schema, {"x": values})
            boxed = Table(schema, {"x": np.array(values, dtype=object)})
            assert typed == boxed
            assert typed.fingerprint == boxed.fingerprint
        # equal int/float cells in token columns agree too
        left = Table(schema, {"x": np.array([10**16, None], dtype=object)})
        right = Table(schema, {"x": np.array([1e16, None], dtype=object)})
        assert left == right
        assert left.fingerprint == right.fingerprint
        # ...and exact big integers that differ still hash differently
        assert (
            Table(schema, {"x": [2**54 + 1, 0]}).fingerprint
            != Table(schema, {"x": [2**54 + 2, 0]}).fingerprint
        )

    def test_int64_boundary_fingerprints_without_warnings(self):
        import warnings

        import numpy as np

        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        boundary = Table(schema, {"x": [2**63 - 1, -(2**63), 1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            digest = boundary.fingerprint
        assert len(digest) == 64
        assert digest != Table(schema, {"x": [2**63 - 2, -(2**63), 1]}).fingerprint
        # empty tables digest identically whether columns are typed or object
        empty_typed = boundary.take([])
        empty_object = Table(schema, {"x": []})
        assert empty_typed == empty_object
        assert empty_typed.fingerprint == empty_object.fingerprint


# ---------------------------------------------------------------------------
# Columnar CSV rendering ≡ csv.writer reference.
# ---------------------------------------------------------------------------


def _write_csv_to(handle, table: Table) -> None:
    """Stream ``table`` as CSV rows into an open text handle.

    This is the row-by-row ``csv.writer`` reference renderer; the columnar
    :func:`render_csv` is property-tested byte-identical to it.
    """
    writer = csv.writer(handle)
    writer.writerow(table.schema.names)
    writer.writerow(
        [f"{attr.role.value}:{attr.kind.value}" for attr in table.schema.attributes]
    )
    for row in table.rows():
        writer.writerow([render_cell(row[name]) for name in table.schema.names])


def _render_csv_reference(table: Table) -> str:
    """The historical row-by-row rendering (the property-test oracle)."""
    buffer = io.StringIO()
    _write_csv_to(buffer, table)
    return buffer.getvalue()


class TestColumnarRenderEquivalence:
    """The columnar ``render_csv`` must be byte-identical to the historical
    row-by-row ``csv.writer`` renderer on arbitrary tables — including cells
    that need QUOTE_MINIMAL quoting (commas, quotes, line breaks), extreme
    floats, and whole-number floats past int64."""

    @settings(max_examples=80, deadline=None)
    @given(tables())
    def test_columnar_equals_reference(self, table):
        assert render_csv(table) == _render_csv_reference(table)

    @settings(max_examples=80, deadline=None)
    @given(tables(shared_cells=True))
    def test_shared_cell_objects_match_reference(self, table):
        # Object columns render once per distinct cell and gather by codes.
        assert render_csv(table) == _render_csv_reference(table)

    _nasty_texts = st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "Nd"),
            whitelist_characters=', -_"\r\n\t;',
        ),
        min_size=1,
        max_size=16,
    )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_nasty_texts, min_size=1, max_size=20))
    def test_quoted_cells_match_reference(self, cells):
        schema = Schema(
            [Attribute("t", AttributeRole.QUASI_IDENTIFIER, AttributeKind.TEXT)]
        )
        table = Table(schema, {"t": cells})
        assert render_csv(table) == _render_csv_reference(table)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30
        )
    )
    def test_full_range_floats_match_reference(self, values):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        table = Table(schema, {"x": values})
        assert render_csv(table) == _render_csv_reference(table)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=1,
            max_size=30,
        )
    )
    def test_int64_boundary_ints_match_reference(self, values):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        table = Table(schema, {"x": values})
        assert render_csv(table) == _render_csv_reference(table)

    def test_integral_floats_beyond_int64_render_as_integers(self):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        table = Table(schema, {"x": [1e30, -1e300, 2.0**63, 0.5]})
        text = render_csv(table)
        assert text == _render_csv_reference(table)
        assert str(int(1e30)) in text
        assert "e+30" not in text

    def test_quoted_column_names_match_reference(self):
        schema = Schema(
            [Attribute('weird,"name"', AttributeRole.QUASI_IDENTIFIER)]
        )
        table = Table(schema, {'weird,"name"': [1, 2]})
        assert render_csv(table) == _render_csv_reference(table)

    def test_empty_table_matches_reference(self, simple_table):
        empty = simple_table.take([])
        assert render_csv(empty) == _render_csv_reference(empty)
