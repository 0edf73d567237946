"""``Table.factorize`` and the consumers that compute once per distinct cell.

Every check here compares against a per-row reference: the factorized paths
must give exactly what a loop over every row gives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize.kanonymity import _cell_signature, release_signature_codes
from repro.dataset.generalization import (
    SUPPRESSED,
    CategorySet,
    Interval,
    Suppressed,
    numeric_representative,
)
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import TableError
from repro.metrics.utility import generalized_information_loss

_intervals = st.tuples(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
).map(lambda pair: Interval(pair[0], pair[0] + pair[1]))

_cells = st.one_of(
    _intervals,
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(CategorySet),
    st.just(SUPPRESSED),
    st.none(),
    st.text(max_size=4),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_infinity=False),
    st.sampled_from([float("nan"), -0.0, 0.0]),
    st.booleans(),
)

_SCHEMA = Schema(
    [
        Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
        Attribute("x", AttributeRole.QUASI_IDENTIFIER),
    ]
)


@st.composite
def shared_columns(draw):
    """An object column gathered from a small pool of shared cell objects."""
    pool = draw(st.lists(_cells, min_size=1, max_size=6))
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=20)
    )
    column = np.empty(len(picks), dtype=object)
    for row, pick in enumerate(picks):
        column[row] = pool[pick]
    return column


def _table(column: np.ndarray) -> Table:
    names = [f"r{row}" for row in range(column.shape[0])]
    return Table(_SCHEMA, {"name": names, "x": column})


def _first_appearance_codes(column: np.ndarray) -> list[int]:
    seen: dict[int, int] = {}
    return [seen.setdefault(id(value), len(seen)) for value in column]


class TestFactorizeContract:
    @settings(max_examples=150, deadline=None)
    @given(shared_columns())
    def test_identity_contract_and_first_appearance_numbering(self, column):
        table = _table(column)
        stored = table.column_array("x")
        codes, cells = table.factorize("x")
        assert codes.dtype == np.intp and codes.shape == (column.shape[0],)
        assert cells.dtype == object
        assert all(cells[code] is value for code, value in zip(codes, stored))
        assert codes.tolist() == _first_appearance_codes(stored)
        assert len({id(cell) for cell in cells}) == cells.shape[0]

    @settings(max_examples=50, deadline=None)
    @given(shared_columns())
    def test_outputs_are_read_only_and_cached(self, column):
        table = _table(column)
        codes, cells = table.factorize("x")
        assert not codes.flags.writeable and not cells.flags.writeable
        if codes.size:
            with pytest.raises(ValueError):
                codes[0] = 0
            with pytest.raises(ValueError):
                cells[0] = None
        again = table.factorize("x")
        assert again[0] is codes and again[1] is cells

    @settings(max_examples=80, deadline=None)
    @given(shared_columns(), st.data())
    def test_take_and_project_agree_with_their_column(self, column, data):
        table = _table(column)
        n = column.shape[0]
        rows = data.draw(
            st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=25)
            if n
            else st.just([])
        )
        for derived in (table.take(rows), table.project(["x"])):
            codes, cells = derived.factorize("x")
            stored = derived.column_array("x")
            assert all(cells[code] is value for code, value in zip(codes, stored))
            assert codes.tolist() == _first_appearance_codes(stored)

    def test_numeric_columns_raise(self):
        schema = Schema(
            [
                Attribute("i", AttributeRole.QUASI_IDENTIFIER),
                Attribute("f", AttributeRole.QUASI_IDENTIFIER),
            ]
        )
        table = Table(schema, {"i": [1, 2], "f": [1.5, float("nan")]})
        assert table.column_array("i").dtype == np.int64
        assert table.column_array("f").dtype == np.float64
        for name in ("i", "f"):
            with pytest.raises(TableError):
                table.factorize(name)
        with pytest.raises(TableError):
            table.factorize("missing")

    def test_release_classes_share_one_cell(self, simple_table):
        from repro.anonymize.base import build_release

        release = build_release(simple_table, np.array([0, 0, 0, 1, 1, 1]), k=3)
        codes, cells = release.factorize("age")
        assert codes.tolist() == [0, 0, 0, 1, 1, 1]
        assert all(isinstance(cell, Interval) for cell in cells)


class TestConsumersMatchPerRowReferences:
    @settings(max_examples=150, deadline=None)
    @given(shared_columns())
    def test_numeric_view(self, column):
        view = _table(column).numeric_column("x")
        reference = np.array([numeric_representative(v) for v in column], dtype=np.float64)
        assert np.array_equal(view, reference, equal_nan=True)
        assert np.array_equal(np.signbit(view), np.signbit(reference))

    @settings(max_examples=150, deadline=None)
    @given(shared_columns())
    def test_release_signature_codes(self, column):
        # One quasi-identifier: the row codes are the column's signature
        # numbering in order of first appearance.
        seen: dict[object, int] = {}
        reference = [seen.setdefault(_cell_signature(v), len(seen)) for v in column]
        codes = release_signature_codes(_table(column))
        assert codes.tolist() == reference

    @settings(max_examples=150, deadline=None)
    @given(shared_columns(), st.data())
    def test_generalized_information_loss(self, column, data):
        n = column.shape[0]
        if n == 0:
            return
        values = data.draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        original = Table(_SCHEMA, {"name": [f"r{i}" for i in range(n)], "x": values})
        release = _table(column)
        assert generalized_information_loss(original, release) == _seed_loss(
            original, release
        )


def _seed_loss(private: Table, release: Table) -> float:
    """The seed's per-row information-loss loop (``_seed_metrics`` in
    ``benchmarks/test_bench_anonymize.py``)."""
    total = 0.0
    cells = 0
    for name in private.schema.numeric_quasi_identifiers:
        column = private.numeric_column(name)
        column_range = float(column.max() - column.min()) or 1.0
        for i in range(release.num_rows):
            value = release.cell(i, name)
            if isinstance(value, Interval):
                total += value.width / column_range
            elif isinstance(value, Suppressed):
                total += 1.0
            cells += 1
    return total / cells

