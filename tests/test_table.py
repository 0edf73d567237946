"""Unit tests for repro.dataset.table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.generalization import SUPPRESSED, Interval
from repro.dataset.table import Table
from repro.exceptions import SchemaError, TableError


class TestConstruction:
    def test_from_columns(self, simple_schema):
        table = Table(
            simple_schema,
            {
                "name": ["A B", "C D"],
                "age": [30, 40],
                "city": ["X", "Y"],
                "salary": [50_000, 60_000],
            },
        )
        assert table.num_rows == 2
        assert len(table.schema) == 4

    def test_missing_column_rejected(self, simple_schema):
        with pytest.raises(TableError, match="missing columns"):
            Table(simple_schema, {"name": ["A"], "age": [1], "city": ["X"]})

    def test_extra_column_rejected(self, simple_schema):
        with pytest.raises(TableError, match="not declared"):
            Table(
                simple_schema,
                {
                    "name": ["A"],
                    "age": [1],
                    "city": ["X"],
                    "salary": [1],
                    "extra": [1],
                },
            )

    def test_ragged_columns_rejected(self, simple_schema):
        with pytest.raises(TableError, match="inconsistent lengths"):
            Table(
                simple_schema,
                {"name": ["A"], "age": [1, 2], "city": ["X"], "salary": [1]},
            )

    def test_from_rows_sequences(self, simple_schema):
        table = Table.from_rows(simple_schema, [["A", 1, "X", 10.0], ["B", 2, "Y", 20.0]])
        assert table.column("age") == [1, 2]

    def test_from_rows_wrong_arity(self, simple_schema):
        with pytest.raises(TableError):
            Table.from_rows(simple_schema, [["A", 1, "X"]])

    def test_from_rows_missing_key(self, simple_schema):
        with pytest.raises(TableError):
            Table.from_rows(simple_schema, [{"name": "A", "age": 1, "city": "X"}])

    def test_columns_are_copied(self, simple_schema):
        source = [1, 2]
        table = Table(
            simple_schema,
            {"name": ["A", "B"], "age": source, "city": ["X", "Y"], "salary": [1, 2]},
        )
        source.append(3)
        assert table.num_rows == 2
        column = table.column("age")
        column.append(99)
        assert table.column("age") == [1, 2]

    def test_equality(self, simple_table):
        same = Table(simple_table.schema, {n: simple_table.column(n) for n in simple_table.schema.names})
        assert simple_table == same
        assert simple_table != 5

    def test_equality_with_nan_cells(self, simple_table):
        # Regression: float("nan") != float("nan") used to make identical
        # tables with missing numeric cells compare unequal.
        with_nan = simple_table.replace_column(
            "salary", [52_000.0, float("nan"), 70_000.0, 83_000.0, float("nan"), 104_000.0]
        )
        again = simple_table.replace_column(
            "salary", [52_000.0, float("nan"), 70_000.0, 83_000.0, float("nan"), 104_000.0]
        )
        assert with_nan == again
        assert with_nan != simple_table

    def test_equality_with_nan_in_object_column(self, simple_table):
        # NaN-aware equality must also hold for object-dtype columns (a NaN
        # cell alongside generalized / None cells).
        mixed = [float("nan"), None, 37, 44, 52, 58]
        left = simple_table.replace_column("age", list(mixed))
        right = simple_table.replace_column("age", list(mixed))
        assert left == right
        assert left != simple_table.replace_column("age", [1, None, 37, 44, 52, 58])

    def test_storage_dtypes(self, simple_table):
        assert simple_table.column_array("age").dtype == np.int64
        assert simple_table.column_array("salary").dtype == np.float64
        assert simple_table.column_array("name").dtype == object

    def test_int_columns_round_trip_as_python_ints(self, simple_table):
        ages = simple_table.column("age")
        assert all(type(v) is int for v in ages)
        assert type(simple_table.cell(0, "age")) is int


class TestAccess:
    def test_row_and_cell(self, simple_table):
        row = simple_table.row(0)
        assert row["name"] == "Ana Ruiz"
        assert simple_table.cell(0, "age") == 25
        with pytest.raises(TableError):
            simple_table.row(99)
        with pytest.raises(TableError):
            simple_table.cell(0, "missing")
        with pytest.raises(TableError):
            simple_table.cell(99, "age")

    def test_rows_and_iteration(self, simple_table):
        rows = simple_table.rows()
        assert len(rows) == len(simple_table) == 6
        assert [r["name"] for r in simple_table] == [r["name"] for r in rows]

    def test_unknown_column(self, simple_table):
        with pytest.raises(TableError):
            simple_table.column("missing")

    def test_numeric_column_resolves_generalized_cells(self, simple_table):
        release = simple_table.replace_column("age", [Interval(20, 30)] * 6)
        values = release.numeric_column("age")
        assert np.allclose(values, 25.0)

    def test_numeric_column_nan_for_suppressed(self, simple_table):
        release = simple_table.replace_column("age", [SUPPRESSED] * 6)
        assert np.isnan(release.numeric_column("age")).all()


class TestRelationalOperations:
    def test_project_and_drop(self, simple_table):
        projected = simple_table.project(["name", "salary"])
        assert projected.schema.names == ("name", "salary")
        dropped = simple_table.drop_columns(["salary"])
        assert "salary" not in dropped.schema

    def test_take_preserves_order(self, simple_table):
        taken = simple_table.take([3, 0])
        assert [r["name"] for r in taken.rows()] == ["Dan Evans", "Ana Ruiz"]
        with pytest.raises(TableError):
            simple_table.take([99])

    def test_replace_column(self, simple_table):
        replaced = simple_table.replace_column("age", [0] * 6)
        assert set(replaced.column("age")) == {0}
        with pytest.raises(TableError):
            simple_table.replace_column("missing", [0] * 6)
        with pytest.raises(TableError):
            simple_table.replace_column("age", [0])

    def test_concat(self, simple_table):
        doubled = simple_table.concat(simple_table)
        assert doubled.num_rows == 12
        other = simple_table.project(["name", "age"])
        with pytest.raises(TableError):
            simple_table.concat(other)


class TestPrivacyViews:
    def test_quasi_identifier_matrix(self, simple_table):
        matrix = simple_table.quasi_identifier_matrix()
        assert matrix.shape == (6, 1)  # 'city' is categorical, excluded

    def test_quasi_identifier_matrix_requires_numeric_qi(self, simple_table):
        no_numeric = simple_table.project(["name", "city", "salary"])
        with pytest.raises(SchemaError):
            no_numeric.quasi_identifier_matrix()

    def test_sensitive_vector(self, simple_table):
        vector = simple_table.sensitive_vector()
        assert vector.shape == (6,)
        assert vector[0] == 52_000.0

    def test_identifier_column(self, simple_table):
        assert simple_table.identifier_column()[0] == "Ana Ruiz"
        no_identifier = simple_table.project(["age", "salary"])
        with pytest.raises(SchemaError):
            no_identifier.identifier_column()

    def test_release_view_drops_sensitive(self, simple_table):
        release = simple_table.release_view()
        assert "salary" not in release.schema
        assert release.num_rows == simple_table.num_rows

    def test_release_view_keep_sensitive(self, simple_table):
        assert "salary" in simple_table.release_view(keep_sensitive=True).schema


class TestRendering:
    def test_to_text_contains_all_columns(self, simple_table):
        text = simple_table.to_text()
        for name in simple_table.schema.names:
            assert name in text

    def test_to_text_truncates(self, simple_table):
        text = simple_table.to_text(max_rows=2)
        assert "more rows" in text

    def test_rows_round_trip(self, simple_table):
        rebuilt = Table.from_rows(simple_table.schema, simple_table.rows())
        assert rebuilt == simple_table
