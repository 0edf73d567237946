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

The pipeline is one **batch kernel** over a column block (one ``(N,)`` float
array per input, see :mod:`repro.fuzzy.batch`).  It fuzzifies whole columns
at once, forms the ``(N, n_rules)`` firing-strength matrix and reduces it to
one ``(N,)`` strength column per consequent term (exact, since
``max_j min(curve, s_j) == min(curve, max_j s_j)``).  Aggregation and
defuzzification then run over fixed blocks of 256 rows: each block's clipped
term curves are maxed into a ``(256, resolution)`` buffer that is
defuzzified at once and reused, so the only arrays that grow with ``N`` are
the fuzzified columns and the firing matrix.  Every reduction runs along a
row of a C-contiguous block, so the outputs do not depend on where the block
boundaries fall.
:meth:`MamdaniSystem.evaluate_batch` and :meth:`MamdaniSystem.trace` run the
same loop; ``trace`` hands it a full ``(N, resolution)`` destination so the
aggregate can be returned.  One record is a one-row block.  The outputs
agree to within 1e-9 with the per-record Mamdani loop of
``tests/fuzzy_reference.py`` (enforced by the property suite in
``tests/test_batch_equivalence.py``).  Records whose aggregated curve is
identically zero (no rule fired), or whose curve's area underflows to zero
(a subnormal firing strength), fall back to the midpoint of the output
universe.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.defuzzify import BATCH_STRATEGIES, defuzzify_batch
from repro.fuzzy.rules import FuzzyRule, fire_rules
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["MamdaniSystem", "InferenceTrace"]

#: Rows aggregated and defuzzified together: a ``(256, 201)`` float block is
#: 400 KB, small enough to stay in cache and to bound the kernel's memory.
_BLOCK_ROWS = 256


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
        if self.defuzzification not in BATCH_STRATEGIES:
            raise FuzzyDefinitionError(
                f"unknown defuzzification strategy {self.defuzzification!r}; "
                f"options: {sorted(BATCH_STRATEGIES)}"
            )

    # Evaluation -------------------------------------------------------------------

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Crisp outputs for a column block of ``(N,)`` input arrays.

        NaN (or ``None``) marks a missing cell; this is the layout produced
        by :meth:`repro.fusion.attack.WebFusionAttack.assemble_columns`.
        """
        _, _, strengths = fire_rules(self.rules, self.inputs, columns)
        return self._infer(strengths)

    def trace(self, columns: Mapping[str, np.ndarray]) -> InferenceTrace:
        """Run the full Mamdani pipeline over a column block.

        Returns every intermediate quantity (see :class:`InferenceTrace`),
        for explanations and tests.
        """
        n, fuzzified, strengths = fire_rules(self.rules, self.inputs, columns)
        aggregated = np.empty((n, self.resolution))
        outputs = self._infer(strengths, aggregated)
        return InferenceTrace(fuzzified, strengths, aggregated, outputs)

    def _infer(
        self, strengths: np.ndarray, aggregated: np.ndarray | None = None
    ) -> np.ndarray:
        """Aggregate and defuzzify ``_BLOCK_ROWS`` rows at a time.

        Each block's curves go into ``aggregated`` (a full ``(N,
        resolution)`` destination) when given, else into one reused block
        buffer.  Every reduction runs along axis 1 of a C-contiguous block,
        so a row's output does not depend on the block it lands in.
        """
        universe = self.output.grid(self.resolution)
        # Group rules by consequent term: max over same-term rules commutes
        # with the min-clip (both are exact), so each term's curve is clipped
        # once at the per-record maximum strength instead of once per rule.
        term_rule_indices: dict[str, list[int]] = {}
        for j, rule in enumerate(self.rules):
            term_rule_indices.setdefault(rule.consequent_term, []).append(j)
        terms = [
            (
                np.asarray(self.output.term(term).membership(universe), dtype=float),
                strengths[:, indices].max(axis=1),
            )
            for term, indices in term_rule_indices.items()
        ]

        n = strengths.shape[0]
        midpoint = (self.output.universe[0] + self.output.universe[1]) / 2.0
        # No rule fired for a record: keep the midpoint of the output
        # universe, the least-informative estimate (an adversary can always
        # guess the middle of the declared range).
        outputs = np.full(n, midpoint, dtype=float)
        buffer = np.empty((min(n, _BLOCK_ROWS), universe.size))
        clipped = np.empty_like(buffer)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            block = buffer[: stop - start] if aggregated is None else aggregated[start:stop]
            block.fill(0.0)
            clip = clipped[: stop - start]
            for curve, term_strengths in terms:
                np.minimum(curve, term_strengths[start:stop, None], out=clip)
                np.maximum(block, clip, out=block)
            fired = block.max(axis=1, initial=0.0) > 0.0
            if fired.all():
                outputs[start:stop] = self._defuzzify(universe, block, midpoint)
            elif fired.any():
                outputs[start:stop][fired] = self._defuzzify(universe, block[fired], midpoint)
        return outputs

    def _defuzzify(self, universe: np.ndarray, curves: np.ndarray, midpoint: float) -> np.ndarray:
        """Defuzzify fired curves; a curve whose area underflows gets the midpoint.

        A record firing only at subnormal strengths has a positive curve
        whose trapezoid area rounds to 0, which the defuzzifier rejects for
        the whole block.  Only then is the block retried one row at a time.
        """
        strategy = self.defuzzification
        try:
            return defuzzify_batch(universe, curves, strategy)
        except FuzzyEvaluationError:
            outputs = np.full(curves.shape[0], midpoint, dtype=float)
            for i in range(curves.shape[0]):
                with contextlib.suppress(FuzzyEvaluationError):
                    outputs[i] = defuzzify_batch(universe, curves[i : i + 1], strategy)[0]
            return outputs

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
