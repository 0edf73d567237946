"""Unit tests for the synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.census import CensusConfig, generate_census
from repro.data.customers import (
    CustomerConfig,
    adversary_auxiliary_example,
    enterprise_customers_example,
    generate_customers,
    sensitive_medical_example,
)
from repro.data.faculty import FacultyConfig, generate_faculty
from repro.data.names import generate_names
from repro.data.webgen import corpus_for_customers
from repro.exceptions import ReproError
from repro.metrics.privacy import rank_correlation

from builders import corpus_for_census


class TestNames:
    def test_unique_and_deterministic(self):
        names = generate_names(200, seed=3)
        assert len(names) == len(set(names)) == 200
        assert names == generate_names(200, seed=3)
        assert names != generate_names(200, seed=4)

    def test_two_tokens(self):
        for name in generate_names(50, seed=1):
            assert len(name.split()) == 2

    def test_capacity_and_validation(self):
        with pytest.raises(ReproError):
            generate_names(2_000_000)  # beyond the double-initial-extended space
        with pytest.raises(ReproError):
            generate_names(-1)
        assert generate_names(0) == []

    def test_double_initial_extension_stays_unique_and_prefix_stable(self):
        # Beyond the single-middle-initial space (67,500 for the default name
        # pools) double initials take over; earlier names never change.
        names = generate_names(70_000, seed=0)
        assert len(set(names)) == 70_000
        assert names[:67_500] == generate_names(67_500, seed=0)
        assert all(len(name.split()) == 4 for name in names[67_500:])

    def test_extended_capacity_stays_unique_and_compatible(self):
        # Counts beyond the plain First-Last space extend with middle
        # initials; the base prefix is unchanged for a given seed.
        names = generate_names(10_000, seed=3)
        assert len(set(names)) == 10_000
        assert names[:2_500] == generate_names(2_500, seed=3)
        assert all(len(name.split()) == 3 for name in names[2_500:])


class TestPaperExamples:
    def test_table1_roles(self):
        table = sensitive_medical_example()
        assert table.num_rows == 4
        assert set(table.schema.identifiers) == {"name", "ssn"}
        assert table.schema.sensitive_attributes == ("condition",)

    def test_table2_values_match_paper(self):
        table = enterprise_customers_example()
        by_name = {row["name"]: row for row in table.rows()}
        assert by_name["Alice"]["income"] == 91_250
        assert by_name["Robert"]["valuation"] == 9
        assert by_name["Christine"]["invst_vol"] == 4

    def test_table4_values_match_paper(self):
        table = adversary_auxiliary_example()
        by_name = {row["name"]: row for row in table.rows()}
        assert by_name["Robert"]["property_holdings"] == 5430
        assert by_name["Alice"]["employment"] == "CEO, Deutsche Bank"


class TestFacultyGenerator:
    def test_shape_and_schema(self, faculty_population):
        private = faculty_population.private
        assert private.num_rows == 40
        assert private.schema.sensitive_attribute == "salary"
        assert set(private.schema.quasi_identifiers) == {
            "research_score", "teaching_score", "service_score", "years_of_service",
        }
        assert private.schema.identifiers == ("name",)

    def test_value_ranges(self, faculty_population):
        private = faculty_population.private
        for column in ("research_score", "teaching_score", "service_score"):
            values = private.numeric_column(column)
            assert values.min() >= 1.0 and values.max() <= 10.0
        salary = private.sensitive_vector()
        assert salary.min() > 30_000 and salary.max() < 300_000
        low, high = faculty_population.assumed_salary_range
        assert low <= salary.min() and salary.max() <= high

    def test_reviews_predict_salary(self, faculty_population):
        private = faculty_population.private
        mean_review = (
            private.numeric_column("research_score")
            + private.numeric_column("teaching_score")
            + private.numeric_column("service_score")
        ) / 3.0
        assert rank_correlation(mean_review, private.sensitive_vector()) > 0.2

    def test_profiles_align_with_table(self, faculty_population):
        names = [str(n) for n in faculty_population.private.identifier_column()]
        assert [p["name"] for p in faculty_population.profiles] == names
        for profile in faculty_population.profiles:
            assert set(faculty_population.auxiliary_attributes) <= set(profile)

    def test_web_covariates_track_salary(self, faculty_population):
        salary = faculty_population.private.sensitive_vector()
        property_values = np.array(
            [p["property_holdings"] for p in faculty_population.profiles]
        )
        assert rank_correlation(salary, property_values) > 0.4

    def test_deterministic(self):
        first = generate_faculty(FacultyConfig(count=20, seed=9))
        second = generate_faculty(FacultyConfig(count=20, seed=9))
        assert first.private == second.private

    def test_config_validation(self):
        with pytest.raises(ReproError):
            FacultyConfig(count=2)
        with pytest.raises(ReproError):
            FacultyConfig(web_signal_quality=1.5)
        with pytest.raises(ReproError):
            FacultyConfig(salary_noise=-0.1)


class TestCustomerGenerator:
    def test_shape_and_correlations(self):
        population = generate_customers(CustomerConfig(count=120, seed=2))
        private = population.private
        assert private.num_rows == 120
        income = private.sensitive_vector()
        low, high = population.config.income_range
        assert income.min() >= low and income.max() <= high
        assert rank_correlation(private.numeric_column("valuation"), income) > 0.4
        assert len(population.profiles) == 120

    def test_config_validation(self):
        with pytest.raises(ReproError):
            CustomerConfig(count=1)
        with pytest.raises(ReproError):
            CustomerConfig(income_range=(10.0, 5.0))
        with pytest.raises(ReproError):
            CustomerConfig(web_signal_quality=-0.1)


class TestCensusGenerator:
    def test_shape_and_correlations(self):
        population = generate_census(CensusConfig(count=150, seed=4))
        private = population.private
        assert private.num_rows == 150
        assert private.schema.sensitive_attribute == "income"
        income = private.sensitive_vector()
        education = private.numeric_column("education_years")
        assert rank_correlation(education, income) > 0.2
        low, high = population.assumed_income_range
        assert low <= income.min() and income.max() <= high

    def test_config_validation(self):
        with pytest.raises(ReproError):
            CensusConfig(count=2)


class TestCorpusBuilders:
    def test_faculty_corpus(self, faculty_population, faculty_corpus):
        names = [str(n) for n in faculty_population.private.identifier_column()]
        assert faculty_corpus.coverage_of(names) > 0.7
        assert set(faculty_corpus.attribute_names) == set(
            faculty_population.auxiliary_attributes
        )

    def test_customer_corpus(self):
        population = generate_customers(CustomerConfig(count=60, seed=2))
        corpus = corpus_for_customers(population)
        names = [str(n) for n in population.private.identifier_column()]
        assert 0.4 < corpus.coverage_of(names) <= 1.0

    def test_census_corpus(self):
        population = generate_census(CensusConfig(count=60, seed=4))
        corpus = corpus_for_census(population)
        assert corpus.size > 0
        assert "home_value" in corpus.attribute_names
