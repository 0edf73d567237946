"""Unit tests for the Mondrian multidimensional anonymizer."""

from __future__ import annotations

import pytest

from repro.anonymize.kanonymity import is_k_anonymous
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.dataset.generalization import SUPPRESSED
from repro.exceptions import AnonymizationError, InfeasibleAnonymizationError


class TestMondrian:
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_partition_respects_k(self, faculty_population, k):
        result = MondrianAnonymizer().anonymize(faculty_population.private, k)
        assert result.minimum_class_size >= k
        assert sum(result.class_sizes) == faculty_population.private.num_rows

    @pytest.mark.parametrize("k", [2, 4])
    def test_release_is_k_anonymous(self, faculty_population, k):
        result = MondrianAnonymizer().anonymize(faculty_population.private, k)
        assert is_k_anonymous(result.release, k)

    def test_splits_produce_multiple_classes_for_small_k(self, faculty_population):
        result = MondrianAnonymizer().anonymize(faculty_population.private, 2)
        assert len(result.class_sizes) > 1

    def test_relaxed_mode_splits_ties(self, simple_table):
        constant = simple_table.replace_column("age", [30] * 6)
        strict = MondrianAnonymizer(strict=True).anonymize(constant, 2)
        relaxed = MondrianAnonymizer(strict=False).anonymize(constant, 2)
        # Strict partitioning cannot split a constant column; relaxed can.
        assert len(relaxed.class_sizes) >= len(strict.class_sizes)

    def test_k_above_population_rejected(self, simple_table):
        with pytest.raises(InfeasibleAnonymizationError):
            MondrianAnonymizer().anonymize(simple_table, 100)

    def test_missing_values_rejected(self, simple_table):
        broken = simple_table.replace_column("age", [SUPPRESSED, 31, 37, 44, 52, 58])
        with pytest.raises(AnonymizationError):
            MondrianAnonymizer().anonymize(broken, 2)

    def test_mondrian_utility_no_worse_than_single_class(self, faculty_population):
        from repro.metrics.utility import utility_of_result

        mondrian = MondrianAnonymizer().anonymize(faculty_population.private, 3)
        single_class_cost = float(faculty_population.private.num_rows) ** 2
        assert utility_of_result(mondrian) >= 1.0 / single_class_cost
