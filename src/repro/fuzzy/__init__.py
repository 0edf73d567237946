"""Fuzzy inference substrate (the paper's information-fusion engine)."""

from repro.fuzzy.batch import as_columns
from repro.fuzzy.defuzzify import (
    BATCH_STRATEGIES,
    STRATEGIES,
    bisector,
    bisector_batch,
    centroid,
    centroid_batch,
    defuzzify,
    defuzzify_batch,
    mean_of_maxima,
    mean_of_maxima_batch,
)
from repro.fuzzy.inference import InferenceTrace, MamdaniSystem
from repro.fuzzy.membership import GaussianMF, MembershipFunction, TrapezoidalMF, TriangularMF
from repro.fuzzy.rules import (
    Condition,
    FuzzyRule,
    firing_strength_matrix,
    parse_rule,
    parse_rules,
)
from repro.fuzzy.tsk import SugenoSystem, term_centroids
from repro.fuzzy.variables import FuzzySet, LinguisticVariable

__all__ = [
    "MembershipFunction",
    "TriangularMF",
    "TrapezoidalMF",
    "GaussianMF",
    "FuzzySet",
    "LinguisticVariable",
    "Condition",
    "FuzzyRule",
    "firing_strength_matrix",
    "parse_rule",
    "parse_rules",
    "MamdaniSystem",
    "InferenceTrace",
    "SugenoSystem",
    "term_centroids",
    "defuzzify",
    "centroid",
    "bisector",
    "mean_of_maxima",
    "STRATEGIES",
    "defuzzify_batch",
    "centroid_batch",
    "bisector_batch",
    "mean_of_maxima_batch",
    "BATCH_STRATEGIES",
    "as_columns",
]
