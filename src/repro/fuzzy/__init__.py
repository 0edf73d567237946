"""Fuzzy inference substrate (the paper's information-fusion engine).

Every operation has one implementation, over a column block (one ``(N,)``
float array per input, ``NaN`` for a missing cell; see
:mod:`repro.fuzzy.batch`): fuzzification, the ``(N, n_rules)`` firing
matrix, Mamdani and Sugeno evaluation and defuzzification.  One record is a
one-row block.  The per-record forms these were derived from live in
``tests/fuzzy_reference.py`` as the executable specification.
"""

from repro.fuzzy.batch import as_columns
from repro.fuzzy.defuzzify import (
    BATCH_STRATEGIES,
    bisector_batch,
    centroid_batch,
    defuzzify_batch,
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
    "defuzzify_batch",
    "centroid_batch",
    "bisector_batch",
    "mean_of_maxima_batch",
    "BATCH_STRATEGIES",
    "as_columns",
]
