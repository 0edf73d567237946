"""Unit tests for repro.dataset.io (CSV round-tripping and streaming)."""

from __future__ import annotations

import io
import math

import pytest

from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval
from repro.dataset.io import (
    parse_cell,
    read_csv,
    render_cell,
    render_csv,
    stream_csv,
    write_csv,
)
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import TableError

from csv_reference import reference_stream_csv


class TestCellRendering:
    def test_render_plain_values(self):
        assert render_cell(5.0) == "5"
        assert render_cell(5.25) == "5.25"
        assert render_cell("text") == "text"
        assert render_cell(None) == ""

    def test_render_generalized(self):
        assert render_cell(Interval(1, 3)) == "[1-3]"
        assert render_cell(SUPPRESSED) == "*"

    def test_parse_numbers(self):
        assert parse_cell("5", AttributeKind.NUMERIC) == 5
        assert parse_cell("5.5", AttributeKind.NUMERIC) == 5.5
        assert parse_cell("-2", AttributeKind.NUMERIC) == -2

    def test_parse_interval(self):
        assert parse_cell("[1-3]", AttributeKind.NUMERIC) == Interval(1, 3)
        assert parse_cell("[1.5-2.5]", AttributeKind.NUMERIC) == Interval(1.5, 2.5)

    def test_parse_category_set(self):
        parsed = parse_cell("{a, b}", AttributeKind.CATEGORICAL)
        assert isinstance(parsed, CategorySet)
        assert parsed.members == ("a", "b")

    def test_parse_suppressed_and_empty(self):
        assert parse_cell("*", AttributeKind.NUMERIC) is SUPPRESSED
        assert parse_cell("", AttributeKind.NUMERIC) is None

    def test_parse_text_kind_keeps_digit_strings(self):
        assert parse_cell("007", AttributeKind.TEXT) == "007"


class TestRoundTrip:
    def test_plain_table_round_trip(self, simple_table, tmp_path):
        path = write_csv(simple_table, tmp_path / "table.csv")
        loaded = read_csv(path)
        assert loaded.schema.names == simple_table.schema.names
        assert loaded.num_rows == simple_table.num_rows
        assert loaded.column("name") == simple_table.column("name")
        assert loaded.numeric_column("salary").tolist() == simple_table.numeric_column("salary").tolist()

    def test_roles_survive_round_trip(self, simple_table, tmp_path):
        loaded = read_csv(write_csv(simple_table, tmp_path / "table.csv"))
        assert loaded.schema.identifiers == simple_table.schema.identifiers
        assert loaded.schema.sensitive_attributes == simple_table.schema.sensitive_attributes

    def test_generalized_cells_round_trip(self, simple_table, tmp_path):
        release = simple_table.replace_column(
            "age", [Interval(20, 30), Interval(30, 40), SUPPRESSED, 44, 52, 58]
        )
        loaded = read_csv(write_csv(release, tmp_path / "release.csv"))
        assert loaded.cell(0, "age") == Interval(20, 30)
        assert loaded.cell(2, "age") is SUPPRESSED
        assert loaded.cell(3, "age") == 44

    def test_exponent_interval_bounds_round_trip(self, simple_table, tmp_path):
        release = simple_table.replace_column(
            "age", [Interval(1e-05, 0.5), Interval(-2.5e-07, -1e-07), 37, 44, 52, 58]
        )
        assert render_cell(Interval(1e-05, 0.5)) == "[1e-05-0.5]"
        assert read_csv(write_csv(release, tmp_path / "release.csv")) == release

    def test_nested_directory_created(self, simple_table, tmp_path):
        path = write_csv(simple_table, tmp_path / "deep" / "dir" / "t.csv")
        assert path.exists()

    def test_file_bytes_are_render_csv(self, simple_table, tmp_path):
        release = simple_table.replace_column(
            "age", [Interval(20, 30), Interval(30, 40), SUPPRESSED, 44, 52, 58]
        )
        path = write_csv(release, tmp_path / "release.csv")
        assert path.read_bytes() == render_csv(release).encode("utf-8")


_HEADER = "name,age\nidentifier:text,quasi_identifier:numeric\n"


class TestStreamingEdgeCases:
    """Edge cases surfaced by the chunked streaming reader.

    The streaming and in-memory paths share one implementation, so each case
    is asserted through both a file read and a line-at-a-time stream.
    """

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TableError, match="header"):
            read_csv(path)
        with pytest.raises(TableError, match="header"):
            stream_csv(iter([]))

    def test_header_only_file_yields_empty_table(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(_HEADER, encoding="utf-8")
        table = read_csv(path)
        assert table.num_rows == 0
        assert table.schema.names == ("name", "age")
        streamed = stream_csv(iter(_HEADER.splitlines(keepends=True)), chunk_rows=1)
        assert streamed == table

    def test_trailing_newline_adds_no_phantom_row(self, tmp_path):
        body = _HEADER + "ann,30\nbob,41\n\n"
        path = tmp_path / "trailing.csv"
        path.write_text(body, encoding="utf-8")
        table = read_csv(path)
        assert table.num_rows == 2
        assert table.column("name") == ["ann", "bob"]
        assert stream_csv(iter(body.splitlines(keepends=True)), chunk_rows=1) == table

    def test_quoted_delimiters_in_object_cells(self, tmp_path):
        schema = Schema(
            [
                Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
                Attribute("dept", AttributeRole.QUASI_IDENTIFIER, AttributeKind.CATEGORICAL),
                Attribute("age", AttributeRole.QUASI_IDENTIFIER),
            ]
        )
        table = Table(
            schema,
            {
                "name": ['Smith, John', 'Quote "Q" Carter'],
                "dept": [CategorySet(["CSE", "ECE"]), "Math"],
                "age": [Interval(30, 40), 51],
            },
        )
        text = render_csv(table)
        loaded = stream_csv(io.StringIO(text))
        assert loaded.column("name") == ["Smith, John", 'Quote "Q" Carter']
        assert loaded.cell(0, "dept") == CategorySet(["CSE", "ECE"])
        assert loaded.cell(0, "age") == Interval(30, 40)
        # chunked streaming with the delimiter inside quotes agrees too
        assert stream_csv(iter(text.splitlines(keepends=True)), chunk_rows=1) == loaded
        assert read_csv(write_csv(table, tmp_path / "quoted.csv")) == loaded

    def test_nan_round_trips_as_numeric_nan(self, tmp_path):
        schema = Schema([Attribute("x", AttributeRole.QUASI_IDENTIFIER)])
        table = Table(schema, {"x": [1.5, float("nan")]})
        loaded = read_csv(write_csv(table, tmp_path / "nan.csv"))
        assert loaded.cell(0, "x") == 1.5
        assert isinstance(loaded.cell(1, "x"), float)
        assert math.isnan(loaded.cell(1, "x"))

    def test_infinities_round_trip(self):
        assert parse_cell("inf", AttributeKind.NUMERIC) == float("inf")
        assert parse_cell("-inf", AttributeKind.NUMERIC) == float("-inf")
        assert render_cell(float("inf")) == "inf"
        assert render_cell(float("-inf")) == "-inf"
        assert parse_cell("inf", AttributeKind.TEXT) == "inf"

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    def test_blank_lines_never_end_the_parse(self, chunk_rows):
        # Consecutive blank interior lines fill whole chunks with blank rows
        # at chunk_rows 1 and 2; the rows after them must still be read.
        body = (
            _HEADER + "ann,30\n\n\n\nbob,41\n\r\n\n\ncat,52\ndan,63\n\n\n\n"
        )
        lines = body.splitlines(keepends=True)
        table = stream_csv(iter(lines), chunk_rows=chunk_rows)
        reference = reference_stream_csv(lines)
        assert table.rows() == reference.rows()
        assert table.column("name") == ["ann", "bob", "cat", "dan"]
        assert table == reference
        assert table.fingerprint == reference.fingerprint

    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(TableError):
            stream_csv(io.StringIO(_HEADER), chunk_rows=0)


class TestReadErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("only-one-line\n", encoding="utf-8")
        with pytest.raises(TableError):
            read_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("a,b\nidentifier:text\n", encoding="utf-8")
        with pytest.raises(TableError):
            read_csv(path)

    def test_bad_declaration(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("a\nnot-a-declaration\n", encoding="utf-8")
        with pytest.raises(TableError):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "a,b\nidentifier:text,sensitive:numeric\nx,1,extra\n", encoding="utf-8"
        )
        with pytest.raises(TableError, match="line 3"):
            read_csv(path)


_LONG = "x" * 200_000  # beyond csv.field_size_limit()'s default of 131,072


class TestMalformedCsv:
    """Text ``csv.reader`` rejects is a ``TableError`` naming source and line."""

    @pytest.mark.parametrize(
        "row", [f'"{_LONG}",1\n', f"{_LONG},1\n"], ids=["quoted", "unquoted"]
    )
    def test_field_over_the_size_limit(self, row):
        lines = [*_HEADER.splitlines(keepends=True), "ann,30\n", row]
        with pytest.raises(TableError, match=r"malformed CSV at line 4 of <upload>"):
            stream_csv(iter(lines), source="<upload>")

    def test_bare_carriage_return_inside_an_unquoted_cell(self, tmp_path):
        # An HTTP body splits into lines on "\n" only, so the "\r" arrives
        # inside the cell; a file opened with newline="" ends a line there.
        lines = [*_HEADER.splitlines(keepends=True), "a\rb,1\n"]
        with pytest.raises(TableError, match="malformed CSV at line 3"):
            stream_csv(iter(lines))
        path = tmp_path / "carriage.csv"
        path.write_bytes((_HEADER + "a\rb,1\n").encode())
        with pytest.raises(TableError, match="line 3 .* has 1 cells, expected 2"):
            read_csv(path)
