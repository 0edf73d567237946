"""Unit tests for the MDAV microaggregation anonymizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.mdav import MDAVAnonymizer, _mdav_groups
from repro.dataset.generalization import SUPPRESSED, Interval
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError

from partitions import classes_of


class TestGroupingLoop:
    @pytest.mark.parametrize("n,k", [(10, 2), (11, 3), (20, 4), (7, 3), (6, 2), (5, 5)])
    def test_group_sizes_between_k_and_2k_minus_1(self, rng, n, k):
        points = rng.normal(size=(n, 3))
        sizes = np.bincount(_mdav_groups(points, k))
        assert sum(sizes) == n
        assert all(size >= k for size in sizes)
        assert all(size <= 2 * k - 1 for size in sizes)

    def test_every_index_exactly_once(self, rng):
        points = rng.normal(size=(23, 2))
        labels = _mdav_groups(points, 4)
        assert labels.shape == (23,)
        assert (np.bincount(labels) > 0).all()

    def test_groups_are_spatially_coherent(self):
        # Two well-separated blobs must not be mixed within a group when k
        # equals the blob size.
        blob_a = np.zeros((4, 2))
        blob_b = np.ones((4, 2)) * 100.0
        points = np.vstack([blob_a, blob_b])
        for group in classes_of(_mdav_groups(points, 4)):
            assert set(group) in ({0, 1, 2, 3}, {4, 5, 6, 7})


class TestAnonymizer:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_release_properties(self, faculty_population, k):
        result = MDAVAnonymizer().anonymize(faculty_population.private, k)
        assert result.k == k
        assert result.anonymizer == "mdav"
        assert result.minimum_class_size >= k
        assert max(result.class_sizes) <= 2 * k - 1
        assert "salary" not in result.release.schema
        assert result.release.num_rows == faculty_population.private.num_rows

    def test_k_equal_one_is_identity_partition(self, simple_table):
        result = MDAVAnonymizer().anonymize(simple_table, 1)
        assert result.minimum_class_size == 1
        assert len(result.class_sizes) == simple_table.num_rows
        # k=1 release keeps the exact quasi-identifier values
        assert result.release.column("age") == simple_table.column("age")

    def test_k_equal_population_size(self, simple_table):
        result = MDAVAnonymizer().anonymize(simple_table, simple_table.num_rows)
        assert result.class_sizes == [simple_table.num_rows]

    def test_k_above_population_rejected(self, simple_table):
        with pytest.raises(InfeasibleAnonymizationError):
            MDAVAnonymizer().anonymize(simple_table, simple_table.num_rows + 1)

    def test_interval_release_cells_cover_originals(self, simple_table):
        result = MDAVAnonymizer(release_style="interval").anonymize(simple_table, 2)
        for equivalence_class in classes_of(result.labels):
            for index in equivalence_class:
                cell = result.release.cell(index, "age")
                original = simple_table.cell(index, "age")
                if isinstance(cell, Interval):
                    assert cell.contains(float(original))
                else:
                    assert cell == original

    def test_centroid_release_cells_are_class_means(self, simple_table):
        result = MDAVAnonymizer(release_style="centroid").anonymize(simple_table, 3)
        for equivalence_class in classes_of(result.labels):
            expected = np.mean([simple_table.cell(i, "age") for i in equivalence_class])
            for index in equivalence_class:
                assert result.release.cell(index, "age") == pytest.approx(expected)

    def test_missing_values_rejected(self, simple_table):
        broken = simple_table.replace_column("age", [SUPPRESSED, 31, 37, 44, 52, 58])
        with pytest.raises(AnonymizationError):
            MDAVAnonymizer().anonymize(broken, 2)

    @pytest.mark.parametrize(
        "values",
        [
            [25, 31, float("inf"), 44, 52, 58],
            [25, 31, float("-inf"), 44, 52, 58],
            # Finite, but the column mean overflows while standardizing.
            [1e308, 1e308, 37, 44, 52, 58],
        ],
    )
    def test_non_finite_quasi_identifier_rejected_naming_the_column(self, simple_table, values):
        broken = simple_table.replace_column("age", values)
        with pytest.raises(AnonymizationError, match="'age'"):
            MDAVAnonymizer().anonymize(broken, 2)

    def test_deterministic(self, faculty_population):
        first = MDAVAnonymizer().anonymize(faculty_population.private, 4)
        second = MDAVAnonymizer().anonymize(faculty_population.private, 4)
        assert np.array_equal(first.labels, second.labels)

    def test_invalid_release_style(self):
        with pytest.raises(AnonymizationError):
            MDAVAnonymizer(release_style="bogus")
