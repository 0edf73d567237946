"""Partitioning-based anonymization substrate (MDAV, Mondrian, Datafly, ...)."""

from repro.anonymize.base import (
    AnonymizationResult,
    BaseAnonymizer,
    build_release,
    validate_k,
)
from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.datafly import DataflyAnonymizer, default_hierarchies, suppress_cells
from repro.anonymize.kanonymity import anonymity_level, is_k_anonymous, release_class_labels
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer

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
    "release_class_labels",
    "is_k_anonymous",
    "suppress_cells",
]
