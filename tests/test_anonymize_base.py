"""Unit tests for repro.anonymize.base (partition labels, release building)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.base import AnonymizationResult, build_release, validate_k
from repro.dataset.generalization import CategorySet, Interval
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError


class TestValidateK:
    def test_accepts_feasible_k(self, simple_table):
        validate_k(simple_table, 1)
        validate_k(simple_table, 6)

    def test_rejects_nonpositive_k(self, simple_table):
        with pytest.raises(AnonymizationError):
            validate_k(simple_table, 0)

    def test_rejects_k_above_population(self, simple_table):
        with pytest.raises(InfeasibleAnonymizationError):
            validate_k(simple_table, 7)


class TestBuildRelease:
    @pytest.fixture()
    def classes(self):
        return np.array([0, 0, 0, 1, 1, 1])

    def test_interval_style(self, simple_table, classes):
        release = build_release(simple_table, classes, k=3, style="interval")
        assert "salary" not in release.schema
        cell = release.cell(0, "age")
        assert cell == Interval(25, 37)
        # every member of the class shares the generalized cell
        assert release.cell(1, "age") == cell
        assert release.cell(2, "age") == cell

    def test_categorical_cells_become_category_sets(self, simple_table, classes):
        release = build_release(simple_table, classes, k=3)
        city = release.cell(3, "city")
        assert isinstance(city, (CategorySet, str))
        if isinstance(city, CategorySet):
            assert set(city.members) <= {"Boston", "Albany"}

    def test_centroid_style(self, simple_table, classes):
        release = build_release(simple_table, classes, k=3, style="centroid")
        assert release.cell(0, "age") == pytest.approx(np.mean([25, 31, 37]))

    def test_identifiers_kept_verbatim(self, simple_table, classes):
        release = build_release(simple_table, classes, k=3)
        assert release.column("name") == simple_table.column("name")

    def test_keep_sensitive(self, simple_table, classes):
        release = build_release(simple_table, classes, k=3, keep_sensitive=True)
        assert "salary" in release.schema

    def test_unknown_style(self, simple_table, classes):
        with pytest.raises(AnonymizationError):
            build_release(simple_table, classes, k=3, style="average")

    def test_partition_must_cover_every_row(self, simple_table):
        with pytest.raises(AnonymizationError, match="shape"):
            build_release(simple_table, np.array([0, 0]), k=2)

    def test_partition_must_respect_k(self, simple_table):
        classes = np.array([0, 1, 1, 1, 1, 1])
        with pytest.raises(AnonymizationError, match="violates k"):
            build_release(simple_table, classes, k=2)
        # but k=1 allows singleton classes
        release = build_release(simple_table, classes, k=1)
        assert release.num_rows == 6

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0, 0, 0, 1, 1]), r"labels must have shape \(6,\), got \(5,\)"),
            (np.array([0, 0, 0, 1, 1, 1, 1]), r"labels must have shape \(6,\), got \(7,\)"),
            (np.zeros((6, 1), dtype=int), r"labels must have shape \(6,\), got \(6, 1\)"),
            (np.array([0.0, 0, 0, 1, 1, 1]), "labels must be integer class ids, got dtype float64"),
            (np.array([0, 0, 0, 1, 1, -1]), "labels must be non-negative, got class id -1"),
            (np.array([0, 0, 0, 2, 2, 2]), "class 1 has no rows"),
            (np.array([0, 0, 0, 0, 1, 1]), r"violates k=3: class sizes \[2\] below k"),
        ],
        ids=[
            "too-short", "too-long", "two-dimensional", "float", "negative", "unused",
            "undersized",
        ],
    )
    def test_malformed_labels_rejected_naming_the_problem(self, simple_table, labels, message):
        with pytest.raises(AnonymizationError, match=message):
            build_release(simple_table, labels, k=3)


class TestAnonymizationResult:
    def test_class_bookkeeping(self, simple_table):
        labels = np.array([0, 0, 0, 1, 1, 1])
        release = build_release(simple_table, labels, k=3)
        result = AnonymizationResult(
            original=simple_table, release=release, labels=labels, k=3, anonymizer="test"
        )
        assert result.class_sizes == [3, 3]
        assert result.minimum_class_size == 3
