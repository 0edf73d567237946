"""Mamdani fuzzy inference engine.

This is the information-fusion system ``F`` of the paper (Section III.A,
Figure 2).  Evaluation follows the classic Mamdani pipeline:

1. **fuzzify** every crisp input against its linguistic variable;
2. compute each rule's **firing strength** (min for AND, max for OR, scaled by
   the rule weight);
3. **imply** each rule's consequent by clipping (min) the consequent term's
   membership curve at the firing strength;
4. **aggregate** the implied curves with max;
5. **defuzzify** the aggregated curve (centroid by default) to obtain the
   crisp output — the adversary's estimate of the sensitive attribute.

Missing inputs (``None`` / NaN — e.g. a suppressed release cell or a person
with no web presence) are handled by treating every term of that variable as
fully possible (membership 1), i.e. the input contributes no information,
which is the conservative choice for an adversary.

The pipeline is one **batch kernel**, :meth:`MamdaniSystem.trace`: it takes a
column block (one ``(N,)`` float array per input, see
:mod:`repro.fuzzy.batch`), fuzzifies whole columns at once, forms the
``(N, n_rules)`` firing-strength matrix, aggregates implied curves into an
``(N, resolution)`` block (grouping rules by consequent term, since
``max_j min(curve, s_j) == min(curve, max_j s_j)`` exactly), and defuzzifies
all rows together.  :meth:`MamdaniSystem.evaluate_batch` returns the trace's
outputs; one record is a one-row block.  The outputs agree to within 1e-9
with the per-record Mamdani loop of ``tests/fuzzy_reference.py`` (enforced by
the property suite in ``tests/test_batch_equivalence.py``).  Records whose
aggregated curve is identically zero (no rule fired) fall back to the
midpoint of the output universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.defuzzify import defuzzify_batch
from repro.fuzzy.rules import FuzzyRule, fire_rules
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["MamdaniSystem", "InferenceTrace"]


@dataclass
class InferenceTrace:
    """Every intermediate quantity of a Mamdani evaluation over ``N`` records.

    ``fuzzified`` maps variable -> term -> ``(N,)`` degrees,
    ``firing_strengths`` is the ``(N, n_rules)`` firing matrix,
    ``aggregated`` the ``(N, resolution)`` aggregated output curves and
    ``output`` the ``(N,)`` crisp estimates.
    """

    fuzzified: dict[str, dict[str, np.ndarray]]
    firing_strengths: np.ndarray
    aggregated: np.ndarray
    output: np.ndarray


@dataclass
class MamdaniSystem:
    """A Mamdani fuzzy inference system.

    Parameters
    ----------
    inputs:
        The input linguistic variables, keyed by name.
    output:
        The output linguistic variable (the sensitive attribute to estimate).
    rules:
        The fuzzy rule base.
    defuzzification:
        ``"centroid"`` (default), ``"bisector"`` or ``"mom"``.
    resolution:
        Number of samples of the output universe used for aggregation.
    """

    inputs: dict[str, LinguisticVariable]
    output: LinguisticVariable
    rules: list[FuzzyRule] = field(default_factory=list)
    defuzzification: str = "centroid"
    resolution: int = 201

    def __post_init__(self) -> None:
        if not self.inputs:
            raise FuzzyDefinitionError("a Mamdani system needs at least one input variable")
        for name, variable in self.inputs.items():
            if name != variable.name:
                raise FuzzyDefinitionError(
                    f"input key {name!r} does not match variable name {variable.name!r}"
                )
        for rule in self.rules:
            rule.validate_against(self.inputs, self.output)

    # Evaluation -------------------------------------------------------------------

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Crisp outputs for a column block of ``(N,)`` input arrays.

        NaN (or ``None``) marks a missing cell; this is the layout produced
        by :meth:`repro.fusion.attack.WebFusionAttack.assemble_columns`.
        """
        return self.trace(columns).output

    def trace(self, columns: Mapping[str, np.ndarray]) -> InferenceTrace:
        """Run the full Mamdani pipeline over a column block.

        Returns every intermediate quantity (see :class:`InferenceTrace`),
        for explanations and tests.
        """
        n, fuzzified, strengths = fire_rules(self.rules, self.inputs, columns)

        universe = self.output.grid(self.resolution)
        aggregated = np.zeros((n, universe.size))
        # Group rules by consequent term: max over same-term rules commutes
        # with the min-clip (both are exact), so each term's curve is clipped
        # once at the per-record maximum strength instead of once per rule.
        term_rule_indices: dict[str, list[int]] = {}
        for j, rule in enumerate(self.rules):
            term_rule_indices.setdefault(rule.consequent_term, []).append(j)
        for term, indices in term_rule_indices.items():
            term_strengths = strengths[:, indices].max(axis=1)
            term_curve = np.asarray(
                self.output.term(term).membership(universe), dtype=float
            )
            np.maximum(
                aggregated,
                np.minimum(term_curve, term_strengths[:, None]),
                out=aggregated,
            )

        midpoint = (self.output.universe[0] + self.output.universe[1]) / 2.0
        outputs = np.full(n, midpoint, dtype=float)
        # No rule fired for a record: keep the midpoint of the output
        # universe, the least-informative estimate (an adversary can always
        # guess the middle of the declared range).
        fired = aggregated.max(axis=1, initial=0.0) > 0.0
        if np.any(fired):
            outputs[fired] = defuzzify_batch(
                universe, aggregated[fired], self.defuzzification
            )
        return InferenceTrace(fuzzified, strengths, aggregated, outputs)

    def describe(self) -> str:
        """Human-readable summary of the system (variables, terms, rules)."""
        lines = [f"Mamdani system -> {self.output.name} ({self.defuzzification})"]
        for name, variable in self.inputs.items():
            lines.append(
                f"  input {name}: universe={variable.universe} terms={list(variable.term_names)}"
            )
        lines.append(
            f"  output {self.output.name}: universe={self.output.universe} "
            f"terms={list(self.output.term_names)}"
        )
        for rule in self.rules:
            lines.append(f"  rule: {rule}")
        return "\n".join(lines)
