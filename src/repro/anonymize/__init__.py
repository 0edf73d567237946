"""Partitioning-based anonymization substrate (MDAV, Mondrian, Datafly, ...)."""

from repro.anonymize.base import (
    AnonymizationResult,
    BaseAnonymizer,
    build_release,
    validate_k,
)
from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer, default_hierarchies
from repro.anonymize.kanonymity import (
    anonymity_level,
    class_size_histogram,
    is_k_anonymous,
    release_class_labels,
)
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.anonymize.suppression import (
    drop_identifiers,
    drop_sensitive,
    naive_release,
    suppress_cells,
)

__all__ = [
    "AnonymizationResult",
    "BaseAnonymizer",
    "build_release",
    "validate_k",
    "MDAVAnonymizer",
    "MondrianAnonymizer",
    "DataflyAnonymizer",
    "GreedyClusterAnonymizer",
    "default_hierarchies",
    "anonymity_level",
    "class_size_histogram",
    "release_class_labels",
    "is_k_anonymous",
    "drop_identifiers",
    "drop_sensitive",
    "naive_release",
    "suppress_cells",
]
