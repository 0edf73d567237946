"""Synthetic dataset and web-profile generators."""

from repro.data.census import CensusConfig, CensusPopulation, generate_census
from repro.data.customers import (
    CustomerConfig,
    CustomerPopulation,
    adversary_auxiliary_example,
    customer_schema,
    enterprise_customers_example,
    generate_customers,
    sensitive_medical_example,
)
from repro.data.faculty import FacultyConfig, FacultyPopulation, faculty_schema, generate_faculty
from repro.data.names import generate_names
from repro.data.webgen import (
    build_corpus,
    corpus_for_customers,
    corpus_for_faculty,
)

__all__ = [
    "generate_names",
    "FacultyConfig",
    "FacultyPopulation",
    "faculty_schema",
    "generate_faculty",
    "CustomerConfig",
    "CustomerPopulation",
    "customer_schema",
    "generate_customers",
    "sensitive_medical_example",
    "enterprise_customers_example",
    "adversary_auxiliary_example",
    "CensusConfig",
    "CensusPopulation",
    "generate_census",
    "build_corpus",
    "corpus_for_faculty",
    "corpus_for_customers",
]
