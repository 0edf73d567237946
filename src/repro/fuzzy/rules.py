"""Fuzzy if-then rules and a small textual rule language.

The adversary's domain knowledge is expressed as rules of the form::

    IF valuation IS high AND property_holdings IS high THEN income IS high
    IF invst_vol IS low OR seniority IS low THEN income IS low

Rules can be built programmatically (:class:`FuzzyRule`) or parsed from that
textual form (:func:`parse_rule`), which is how the examples and the rule
induction module express the knowledge base.  Each rule carries a weight in
``(0, 1]``; the paper's experiments assign uniform weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.variables import LinguisticVariable

__all__ = [
    "Condition",
    "FuzzyRule",
    "firing_strength_matrix",
    "parse_rule",
    "parse_rules",
]


@dataclass(frozen=True)
class Condition:
    """An atomic antecedent condition ``variable IS term`` (optionally negated)."""

    variable: str
    term: str
    negated: bool = False

    def evaluate_batch(
        self, fuzzified: Mapping[str, Mapping[str, np.ndarray]]
    ) -> np.ndarray:
        """Truth degrees for a whole batch: ``(N,)`` array of per-record degrees.

        ``fuzzified`` maps variable name to per-term ``(N,)`` degree arrays
        (the output of :meth:`LinguisticVariable.fuzzify_batch`).
        """
        if self.variable not in fuzzified:
            raise FuzzyEvaluationError(f"no input provided for variable {self.variable!r}")
        memberships = fuzzified[self.variable]
        if self.term not in memberships:
            raise FuzzyEvaluationError(
                f"variable {self.variable!r} has no term {self.term!r}"
            )
        degrees = np.asarray(memberships[self.term], dtype=float)
        return 1.0 - degrees if self.negated else degrees

    def __str__(self) -> str:
        verb = "IS NOT" if self.negated else "IS"
        return f"{self.variable} {verb} {self.term}"


@dataclass(frozen=True)
class FuzzyRule:
    """A weighted fuzzy if-then rule.

    Parameters
    ----------
    conditions:
        The antecedent conditions.
    operator:
        ``"and"`` combines condition degrees with ``min`` (t-norm), ``"or"``
        with ``max`` (s-norm).
    consequent_term:
        The linguistic term of the output variable asserted by the rule.
    weight:
        Rule weight in ``(0, 1]``; the firing strength is scaled by it.
    """

    conditions: tuple[Condition, ...]
    consequent_term: str
    operator: str = "and"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.conditions:
            raise FuzzyDefinitionError("a rule needs at least one antecedent condition")
        if self.operator not in ("and", "or"):
            raise FuzzyDefinitionError(f"unknown rule operator: {self.operator!r}")
        if not 0.0 < self.weight <= 1.0:
            raise FuzzyDefinitionError(f"rule weight must be in (0, 1], got {self.weight}")

    def firing_strength_batch(
        self, fuzzified: Mapping[str, Mapping[str, np.ndarray]]
    ) -> np.ndarray:
        """Per-record firing strengths as an ``(N,)`` array.

        The condition degrees are combined elementwise with ``min`` (AND) or
        ``max`` (OR), then scaled by the rule weight.
        """
        degrees = [condition.evaluate_batch(fuzzified) for condition in self.conditions]
        reduce = np.minimum if self.operator == "and" else np.maximum
        return self.weight * reduce.reduce(degrees)

    def variables(self) -> set[str]:
        """Names of the input variables referenced by the rule."""
        return {condition.variable for condition in self.conditions}

    def validate_against(
        self, inputs: Mapping[str, LinguisticVariable], output: LinguisticVariable
    ) -> None:
        """Check every referenced variable/term exists; raise otherwise."""
        for condition in self.conditions:
            if condition.variable not in inputs:
                raise FuzzyDefinitionError(
                    f"rule references unknown input variable {condition.variable!r}"
                )
            inputs[condition.variable].term(condition.term)
        output.term(self.consequent_term)

    def __str__(self) -> str:
        joiner = f" {self.operator.upper()} "
        antecedent = joiner.join(str(c) for c in self.conditions)
        return f"IF {antecedent} THEN {self.consequent_term}"


def firing_strength_matrix(
    rules: Sequence[FuzzyRule],
    fuzzified: Mapping[str, Mapping[str, np.ndarray]],
) -> np.ndarray:
    """Firing strengths of every rule over a batch: an ``(N, n_rules)`` matrix.

    Column ``j`` holds rule ``j``'s per-record strengths; this is the central
    data layout of the vectorized fusion engines (one elementwise min/max chain
    per rule instead of a Python loop per record).
    """
    if not rules:
        raise FuzzyEvaluationError("cannot build a firing matrix from an empty rule base")
    return np.column_stack([rule.firing_strength_batch(fuzzified) for rule in rules])


_RULE_RE = re.compile(
    r"^\s*IF\s+(?P<antecedent>.+?)\s+THEN\s+(?P<output>\w+)\s+IS\s+(?P<term>\w+)"
    r"(?:\s+WITH\s+(?P<weight>[\d.]+))?\s*$",
    flags=re.IGNORECASE,
)
_CONDITION_RE = re.compile(
    r"^\s*(?P<variable>\w+)\s+IS\s+(?:(?P<negated>NOT)\s+)?(?P<term>\w+)\s*$",
    flags=re.IGNORECASE,
)


def parse_rule(text: str, output_variable: str | None = None) -> FuzzyRule:
    """Parse one textual rule.

    The grammar is ``IF <var> IS [NOT] <term> (AND|OR <var> IS [NOT] <term>)*
    THEN <output> IS <term> [WITH <weight>]``.  Mixing AND and OR within a
    single rule is rejected (it would be ambiguous without parentheses).
    """
    match = _RULE_RE.match(text)
    if not match:
        raise FuzzyDefinitionError(f"cannot parse rule: {text!r}")
    antecedent = match.group("antecedent")
    if output_variable is not None and match.group("output").lower() != output_variable.lower():
        raise FuzzyDefinitionError(
            f"rule consequent variable {match.group('output')!r} does not match "
            f"expected output {output_variable!r}"
        )

    has_and = re.search(r"\bAND\b", antecedent, flags=re.IGNORECASE) is not None
    has_or = re.search(r"\bOR\b", antecedent, flags=re.IGNORECASE) is not None
    if has_and and has_or:
        raise FuzzyDefinitionError(f"rule mixes AND and OR, which is ambiguous: {text!r}")
    operator = "or" if has_or else "and"
    parts = re.split(r"\bAND\b|\bOR\b", antecedent, flags=re.IGNORECASE)

    conditions = []
    for part in parts:
        condition_match = _CONDITION_RE.match(part)
        if not condition_match:
            raise FuzzyDefinitionError(f"cannot parse condition {part!r} in rule {text!r}")
        conditions.append(
            Condition(
                variable=condition_match.group("variable"),
                term=condition_match.group("term"),
                negated=condition_match.group("negated") is not None,
            )
        )

    weight_text = match.group("weight")
    weight = float(weight_text) if weight_text else 1.0
    return FuzzyRule(
        conditions=tuple(conditions),
        consequent_term=match.group("term"),
        operator=operator,
        weight=weight,
    )


def parse_rules(texts: Sequence[str], output_variable: str | None = None) -> list[FuzzyRule]:
    """Parse a list of textual rules, skipping blank lines and ``#`` comments."""
    rules = []
    for text in texts:
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(parse_rule(stripped, output_variable=output_variable))
    return rules
