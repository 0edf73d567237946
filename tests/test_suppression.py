"""Unit tests for cell suppression and the naive release baseline."""

from __future__ import annotations

import pytest

from repro.anonymize.datafly import suppress_cells
from repro.dataset.generalization import SUPPRESSED
from repro.exceptions import AnonymizationError

from builders import drop_sensitive, naive_release


class TestDropStrategies:
    def test_drop_sensitive(self, simple_table):
        release = drop_sensitive(simple_table)
        assert "salary" not in release.schema
        assert "name" in release.schema
        assert release.column("age") == simple_table.column("age")


class TestSuppressCells:
    def test_targets_only_requested_cells(self, simple_table):
        suppressed = suppress_cells(simple_table, rows=[0, 2], columns=["age"])
        assert suppressed.cell(0, "age") is SUPPRESSED
        assert suppressed.cell(2, "age") is SUPPRESSED
        assert suppressed.cell(1, "age") == 31
        assert suppressed.cell(0, "salary") == 52_000.0

    def test_out_of_range_row_rejected(self, simple_table):
        with pytest.raises(AnonymizationError):
            suppress_cells(simple_table, rows=[99], columns=["age"])

    def test_original_untouched(self, simple_table):
        suppress_cells(simple_table, rows=[0], columns=["age"])
        assert simple_table.cell(0, "age") == 25


class TestNaiveRelease:
    def test_every_record_is_its_own_class(self, simple_table):
        result = naive_release(simple_table)
        assert result.k == 1
        assert len(result.class_sizes) == simple_table.num_rows
        assert result.minimum_class_size == 1

    def test_release_keeps_exact_quasi_identifiers(self, simple_table):
        result = naive_release(simple_table)
        assert result.release.column("age") == simple_table.column("age")
        assert "salary" not in result.release.schema
