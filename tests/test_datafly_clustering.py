"""Unit tests for the Datafly and greedy-clustering anonymizers."""

from __future__ import annotations

import pytest

from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer, default_hierarchies
from repro.anonymize.kanonymity import anonymity_level
from repro.dataset.hierarchy import NumericHierarchy
from repro.exceptions import AnonymizationError

from partitions import classes_of


class TestDefaultHierarchies:
    def test_one_hierarchy_per_numeric_qi(self, faculty_population):
        hierarchies = default_hierarchies(faculty_population.private)
        assert set(hierarchies) == set(
            faculty_population.private.schema.numeric_quasi_identifiers
        )
        for hierarchy in hierarchies.values():
            assert isinstance(hierarchy, NumericHierarchy)
            assert hierarchy.levels >= 2

    def test_subnormal_range_gets_a_positive_bin_width(self, simple_table):
        # (5e-324 - 0.0) / 16 underflows to 0.0, which the hierarchy rejects.
        ages = [0.0, 0.0, 0.0, 5e-324, 0.0, 0.0]
        table = simple_table.replace_column("age", ages)
        hierarchy = default_hierarchies(table)["age"]
        assert hierarchy.base_width > 0
        result = DataflyAnonymizer(max_suppression_fraction=1.0).anonymize(table, 2)
        assert result.release.num_rows == table.num_rows


class TestDatafly:
    @pytest.mark.parametrize("k", [2, 4])
    def test_release_meets_k_up_to_suppression(self, faculty_population, k):
        result = DataflyAnonymizer(max_suppression_fraction=0.1).anonymize(
            faculty_population.private, k
        )
        # Non-suppressed records must satisfy k; the (single) suppressed class
        # is allowed to be smaller.
        suppressed = set(result.suppressed)
        for equivalence_class in classes_of(result.labels):
            if set(equivalence_class) & suppressed:
                continue
            assert len(equivalence_class) >= k

    def test_suppression_budget_respected(self, faculty_population):
        result = DataflyAnonymizer(max_suppression_fraction=0.1).anonymize(
            faculty_population.private, 3
        )
        assert len(result.suppressed) <= 0.1 * faculty_population.private.num_rows + 1

    def test_k1_release_is_untouched(self, faculty_population):
        result = DataflyAnonymizer().anonymize(faculty_population.private, 1)
        assert anonymity_level(result.release) >= 1
        assert result.suppressed == ()

    def test_invalid_suppression_fraction(self):
        with pytest.raises(AnonymizationError):
            DataflyAnonymizer(max_suppression_fraction=1.5)

    def test_requires_hierarchy_for_some_qi(self, simple_table):
        # Hierarchies are built for numeric quasi-identifiers only.
        no_numeric_qi = simple_table.project(["name", "city", "salary"])
        with pytest.raises(AnonymizationError, match="requires a hierarchy"):
            DataflyAnonymizer().anonymize(no_numeric_qi, 2)

    def test_sensitive_column_removed(self, faculty_population):
        result = DataflyAnonymizer().anonymize(faculty_population.private, 2)
        assert "salary" not in result.release.schema


class TestGreedyCluster:
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_cluster_sizes_at_least_k(self, faculty_population, k):
        result = GreedyClusterAnonymizer().anonymize(faculty_population.private, k)
        assert result.minimum_class_size >= k
        assert sum(result.class_sizes) == faculty_population.private.num_rows

    def test_differs_from_mdav_in_general(self, faculty_population):
        from repro.anonymize.mdav import MDAVAnonymizer

        greedy = GreedyClusterAnonymizer().anonymize(faculty_population.private, 4)
        mdav = MDAVAnonymizer().anonymize(faculty_population.private, 4)
        greedy_sets = {frozenset(c) for c in classes_of(greedy.labels)}
        mdav_sets = {frozenset(c) for c in classes_of(mdav.labels)}
        # The two heuristics need not agree; what matters is both are valid.
        assert greedy_sets and mdav_sets

    def test_missing_values_rejected(self, simple_table):
        from repro.dataset.generalization import SUPPRESSED

        broken = simple_table.replace_column("age", [SUPPRESSED, 31, 37, 44, 52, 58])
        with pytest.raises(AnonymizationError):
            GreedyClusterAnonymizer().anonymize(broken, 2)

    @pytest.mark.parametrize("bad", [float("inf"), 1e308])
    def test_non_finite_quasi_identifier_rejected_naming_the_column(self, simple_table, bad):
        broken = simple_table.replace_column("age", [bad, bad, 37, 44, 52, 58])
        with pytest.raises(AnonymizationError, match="'age'"):
            GreedyClusterAnonymizer().anonymize(broken, 2)
