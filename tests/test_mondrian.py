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

    def test_constant_column_is_not_split(self, simple_table):
        # Splits are strict: a value never straddles two partitions, so a
        # constant quasi-identifier leaves the records in one class.
        constant = simple_table.replace_column("age", [30] * 6)
        result = MondrianAnonymizer().anonymize(constant, 2)
        assert result.class_sizes == [6]

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
