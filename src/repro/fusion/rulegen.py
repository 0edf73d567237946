"""Automatic fuzzy-rule induction for the fusion attack.

The paper's adversary writes the knowledge rules by hand from domain
understanding ("a CEO with large property holdings sits in the High income
class").  To run the attack at scale — and to study how sensitive the breach
is to the quality of the rule base — two automatic rule sources are provided:

* :func:`monotone_rules` — the domain-knowledge surrogate.  For every input
  variable the adversary declares a *direction* (+1: larger values mean larger
  income, -1: the opposite) and the generator emits one single-condition rule
  per linguistic term, mapping the i-th input term to the corresponding output
  term.  This encodes exactly the kind of coarse ordinal knowledge the paper's
  example uses.
* :func:`wang_mendel_rules` — Wang-Mendel rule learning from a (small) sample
  of records whose sensitive value the adversary happens to know (public
  salaries of a few colleagues, say).  Each labeled example generates the rule
  formed by its maximum-membership terms; conflicting rules (same antecedent,
  different consequent) are resolved by keeping the highest-degree one.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.rules import Condition, FuzzyRule
from repro.fuzzy.variables import LinguisticVariable

__all__ = ["monotone_rules", "wang_mendel_rules"]


def monotone_rules(
    inputs: Mapping[str, LinguisticVariable],
    output: LinguisticVariable,
    directions: Mapping[str, int] | None = None,
    weight: float = 1.0,
) -> list[FuzzyRule]:
    """Single-condition ordinal rules mapping each input term to an output term.

    For an input with terms ``(low, medium, high)`` and an output with terms
    ``(low, medium, high)`` and direction ``+1`` this produces::

        IF x IS low    THEN income IS low
        IF x IS medium THEN income IS medium
        IF x IS high   THEN income IS high

    With direction ``-1`` the mapping is reversed.  Inputs and output may have
    different term counts; indices are rescaled proportionally.
    """
    directions = dict(directions or {})
    output_terms = list(output.term_names)
    if len(output_terms) < 2:
        raise FuzzyDefinitionError("the output variable needs at least 2 terms")

    rules: list[FuzzyRule] = []
    for name, variable in inputs.items():
        direction = directions.get(name, 1)
        if direction not in (-1, 1):
            raise FuzzyDefinitionError(
                f"direction for {name!r} must be +1 or -1, got {direction}"
            )
        input_terms = list(variable.term_names)
        if len(input_terms) < 2:
            raise FuzzyDefinitionError(
                f"input variable {name!r} needs at least 2 terms for monotone rules"
            )
        for i, input_term in enumerate(input_terms):
            position = i / (len(input_terms) - 1)
            if direction < 0:
                position = 1.0 - position
            output_index = round(position * (len(output_terms) - 1))
            rules.append(
                FuzzyRule(
                    conditions=(Condition(name, input_term),),
                    consequent_term=output_terms[output_index],
                    operator="and",
                    weight=weight,
                )
            )
    return rules


def wang_mendel_rules(
    records: Sequence[Mapping[str, float | None]],
    targets: Sequence[float],
    inputs: Mapping[str, LinguisticVariable],
    output: LinguisticVariable,
) -> list[FuzzyRule]:
    """Wang-Mendel rule induction from labeled examples.

    Each ``(record, target)`` pair produces one candidate rule whose antecedent
    is the maximum-membership term of every *available* input and whose
    consequent is the maximum-membership term of the target.  The candidate's
    degree is the product of those memberships; among candidates with the same
    antecedent, only the highest-degree rule is kept.
    """
    if len(records) != len(targets):
        raise FuzzyDefinitionError(
            f"records and targets lengths differ: {len(records)} vs {len(targets)}"
        )
    if not records:
        raise FuzzyDefinitionError("Wang-Mendel induction needs at least one labeled example")

    best: dict[tuple[tuple[str, str], ...], tuple[float, FuzzyRule]] = {}
    for record, target in zip(records, targets):
        conditions: list[Condition] = []
        degree = 1.0
        for name, variable in inputs.items():
            value = record.get(name)
            if value is None:
                continue
            memberships = variable.fuzzify(float(value))
            term = max(memberships, key=memberships.get)
            conditions.append(Condition(name, term))
            degree *= memberships[term]
        if not conditions:
            continue
        output_memberships = output.fuzzify(float(target))
        output_term = max(output_memberships, key=output_memberships.get)
        degree *= output_memberships[output_term]
        if degree <= 0.0:
            continue
        rule = FuzzyRule(
            conditions=tuple(conditions), consequent_term=output_term, operator="and"
        )
        key = tuple(sorted((c.variable, c.term) for c in conditions))
        existing = best.get(key)
        if existing is None or degree > existing[0]:
            best[key] = (degree, rule)

    if not best:
        raise FuzzyDefinitionError(
            "Wang-Mendel induction produced no rules (all examples were empty or zero-degree)"
        )
    return [rule for _, rule in best.values()]
