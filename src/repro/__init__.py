"""Reproduction of "On Breaching Enterprise Data Privacy Through Adversarial
Information Fusion" (Ganta & Acharya, 2008).

The package provides:

* :mod:`repro.dataset` — the enterprise-database substrate (schemas with
  identifier / quasi-identifier / sensitive roles, tables, generalization);
* :mod:`repro.anonymize` — partitioning-based anonymizers (MDAV
  microaggregation, Mondrian, Datafly, clustering) plus k-anonymity
  predicates;
* :mod:`repro.fuzzy` — the Mamdani / Sugeno fuzzy-inference engines used as
  the information-fusion system;
* :mod:`repro.fusion` — the Web-Based Information-Fusion Attack: simulated web
  corpus, attack pipeline and baseline estimators;
* :mod:`repro.linkage` — the batched record-linkage engine: normalization,
  q-gram blocking and vectorized similarity kernels behind the attack's
  harvest step;
* :mod:`repro.metrics` — dissimilarity, discernibility utility, information
  gain and breach metrics;
* :mod:`repro.core` — the FRED (Fusion Resilient Enterprise Data) optimizer;
* :mod:`repro.data` — synthetic dataset and web-profile generators;
* :mod:`repro.experiments` — runners regenerating every table and figure of
  the paper's evaluation;
* :mod:`repro.service` — the serving tier: a long-lived anonymization service
  with fingerprint-keyed release/result caching and asynchronous FRED jobs.

Quickstart
----------
>>> from repro import (generate_faculty, corpus_for_faculty, MDAVAnonymizer,
...                    AttackConfig, WebFusionAttack)
>>> population = generate_faculty()
>>> release = MDAVAnonymizer().anonymize(population.private, k=5).release
>>> corpus = corpus_for_faculty(population)
>>> config = AttackConfig(
...     release_inputs=("research_score", "teaching_score", "service_score", "years_of_service"),
...     auxiliary_inputs=population.auxiliary_attributes,
...     output_name="salary",
...     output_universe=population.assumed_salary_range,
... )
>>> estimates = WebFusionAttack(corpus, config).run(release).estimates
"""

from repro.anonymize import (
    AnonymizationResult,
    DataflyAnonymizer,
    GreedyClusterAnonymizer,
    MDAVAnonymizer,
    MondrianAnonymizer,
    anonymity_level,
    is_k_anonymous,
    naive_release,
)
from repro.core import FREDAnonymizer, FREDConfig, FREDResult, WeightedObjective
from repro.data import (
    corpus_for_census,
    corpus_for_customers,
    corpus_for_faculty,
    enterprise_customers_example,
    generate_census,
    generate_customers,
    generate_faculty,
)
from repro.dataset import Attribute, AttributeKind, AttributeRole, Interval, Schema, Table
from repro.exceptions import ReproError
from repro.fusion import (
    AttackConfig,
    AttackResult,
    SimulatedWebCorpus,
    WebFusionAttack,
)
from repro.fuzzy import FuzzyRule, LinguisticVariable, MamdaniSystem, SugenoSystem, parse_rules
from repro.linkage import LinkageIndex
from repro.metrics import (
    breach_rate,
    discernibility_utility,
    dissimilarity_after_fusion,
    dissimilarity_before_fusion,
    information_gain,
    mean_square_dissimilarity,
)

from repro.service import AnonymizationService, TwoTierCache, build_server

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ReproError",
    # dataset
    "Attribute",
    "AttributeKind",
    "AttributeRole",
    "Schema",
    "Table",
    "Interval",
    # anonymize
    "AnonymizationResult",
    "MDAVAnonymizer",
    "MondrianAnonymizer",
    "DataflyAnonymizer",
    "GreedyClusterAnonymizer",
    "anonymity_level",
    "is_k_anonymous",
    "naive_release",
    # fuzzy
    "LinguisticVariable",
    "FuzzyRule",
    "parse_rules",
    "MamdaniSystem",
    "SugenoSystem",
    # fusion
    "AttackConfig",
    "AttackResult",
    "WebFusionAttack",
    "SimulatedWebCorpus",
    # linkage
    "LinkageIndex",
    # metrics
    "mean_square_dissimilarity",
    "dissimilarity_before_fusion",
    "dissimilarity_after_fusion",
    "information_gain",
    "discernibility_utility",
    "breach_rate",
    # core
    "WeightedObjective",
    "FREDConfig",
    "FREDAnonymizer",
    "FREDResult",
    # data
    "generate_faculty",
    "generate_customers",
    "generate_census",
    "enterprise_customers_example",
    "corpus_for_faculty",
    "corpus_for_customers",
    "corpus_for_census",
    # service
    "AnonymizationService",
    "TwoTierCache",
    "build_server",
]
