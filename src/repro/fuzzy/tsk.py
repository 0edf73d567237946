"""Zero-order Sugeno (Takagi-Sugeno-Kang) inference engine.

The paper uses Mamdani inference; the Sugeno engine is provided as an ablation
alternative for the fusion system (see the README's *Batch fusion engine*
section).  A zero-order Sugeno rule asserts a crisp consequent value instead
of a fuzzy term; the system output is the firing-strength-weighted average of
the consequent values::

    output = sum(strength_i * value_i) / sum(strength_i)

Consequent values can be given explicitly, or derived from an output
:class:`~repro.fuzzy.variables.LinguisticVariable` by taking each term's
centroid — this makes it a drop-in replacement for a Mamdani rule base.

Like the Mamdani engine, evaluation is one batch kernel over a column block
(see :mod:`repro.fuzzy.batch`): the ``(N, n_rules)`` firing matrix is built
from whole input columns and the weighted average is one matrix-vector
product; one record is a one-row block.  Records for which no rule fires
fall back to the midpoint of the output universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.rules import FuzzyRule, fire_rules
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["SugenoSystem", "term_centroids"]


def term_centroids(variable: LinguisticVariable, resolution: int = 401) -> dict[str, float]:
    """Centroid of each linguistic term of ``variable`` (crisp consequent values)."""
    universe = variable.grid(resolution)
    centroids: dict[str, float] = {}
    for name in variable.term_names:
        curve = np.asarray(variable.term(name).membership(universe), dtype=float)
        area = float(np.trapezoid(curve, universe))
        if area <= 0.0:
            raise FuzzyDefinitionError(f"term {name!r} has zero area; cannot take centroid")
        centroids[name] = float(np.trapezoid(curve * universe, universe) / area)
    return centroids


@dataclass
class SugenoSystem:
    """Zero-order Sugeno system sharing the Mamdani rule representation.

    Parameters
    ----------
    inputs:
        Input linguistic variables keyed by name.
    output:
        The output linguistic variable (used for term centroids and the
        fallback estimate).
    rules:
        Fuzzy rules; each rule's ``consequent_term`` selects the crisp value
        from ``consequents``.
    consequents:
        Optional explicit mapping from consequent term name to crisp value.
        When omitted it defaults to the output variable's term centroids.
    """

    inputs: dict[str, LinguisticVariable]
    output: LinguisticVariable
    rules: list[FuzzyRule] = field(default_factory=list)
    consequents: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if not self.inputs:
            raise FuzzyDefinitionError("a Sugeno system needs at least one input variable")
        if self.consequents is None:
            self.consequents = term_centroids(self.output)
        for rule in self.rules:
            rule.validate_against(self.inputs, self.output)
            if rule.consequent_term not in self.consequents:
                raise FuzzyDefinitionError(
                    f"no crisp consequent registered for term {rule.consequent_term!r}"
                )

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Crisp outputs for a column block of ``(N,)`` input arrays.

        NaN (or ``None``) marks a missing cell; a key that names no input
        raises :class:`~repro.exceptions.FuzzyEvaluationError`, as in the
        Mamdani engine.  The ``(N, n_rules)`` firing matrix is contracted
        against the consequent value vector; zero-denominator records (no
        rule fired) fall back to the output-universe midpoint.
        """
        n, _, strengths = fire_rules(self.rules, self.inputs, columns)
        values = np.array(
            [self.consequents[rule.consequent_term] for rule in self.rules], dtype=float
        )
        numerators = strengths @ values
        denominators = strengths.sum(axis=1)
        midpoint = (self.output.universe[0] + self.output.universe[1]) / 2.0
        fired = denominators > 0.0
        outputs = np.full(n, midpoint, dtype=float)
        np.divide(numerators, denominators, out=outputs, where=fired)
        return outputs
