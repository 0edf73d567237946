"""Exception hierarchy shared by every subsystem of the reproduction.

All library-raised errors derive from :class:`ReproError` so that callers can
catch the library's failures without accidentally swallowing programming
errors (``TypeError``, ``KeyError`` from unrelated code, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "TableError",
    "HierarchyError",
    "AnonymizationError",
    "InfeasibleAnonymizationError",
    "FuzzyDefinitionError",
    "FuzzyEvaluationError",
    "LinkageError",
    "AuxiliarySourceError",
    "AttackConfigurationError",
    "MetricError",
    "FREDConfigurationError",
    "FREDInfeasibleError",
    "ExperimentError",
    "ServiceError",
    "UnknownDatasetError",
    "UnknownJobError",
    "PayloadTooLargeError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema definition or schema lookup is invalid.

    Raised for duplicate attribute names, unknown attributes, role
    mismatches (e.g. asking for the sensitive column of a schema that has
    none) and invalid attribute declarations.
    """


class TableError(ReproError):
    """A table operation is invalid (shape mismatch, unknown column, ...)."""


class HierarchyError(ReproError):
    """A generalization hierarchy is malformed or a value cannot be mapped."""


class AnonymizationError(ReproError):
    """An anonymizer received invalid parameters or produced an invalid result."""


class InfeasibleAnonymizationError(AnonymizationError):
    """The requested anonymization level cannot be met for the given data.

    For example ``k`` larger than the number of records, or a Datafly run
    whose hierarchies are exhausted with too many records still below ``k``.
    """


class FuzzyDefinitionError(ReproError):
    """A fuzzy variable, set or rule is ill-defined (bad ranges, unknown terms)."""


class FuzzyEvaluationError(ReproError):
    """A fuzzy system could not be evaluated for a given input."""


class LinkageError(ReproError):
    """Record linkage failed due to invalid configuration."""


class AuxiliarySourceError(ReproError):
    """An auxiliary (web) data source query was invalid."""


class AttackConfigurationError(ReproError):
    """The fusion attack was configured inconsistently with the release."""


class MetricError(ReproError):
    """A metric was evaluated on incompatible inputs."""


class FREDConfigurationError(ReproError):
    """The FRED optimizer configuration is invalid (weights, thresholds, sweep)."""


class FREDInfeasibleError(ReproError):
    """No anonymization level satisfies both the protection and utility thresholds."""


class ExperimentError(ReproError):
    """An experiment runner was asked for an unknown figure/table or bad parameters."""


class ServiceError(ReproError):
    """An anonymization-service request was invalid (bad parameters, bad payload)."""


class UnknownDatasetError(ServiceError):
    """A service request referenced a dataset fingerprint that is not registered."""


class UnknownJobError(ServiceError):
    """A service request referenced a job id that does not exist."""


class PayloadTooLargeError(ServiceError):
    """A service request body exceeded the configured size limit (HTTP 413)."""
