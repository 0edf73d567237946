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
* :func:`wang_mendel_rules` — Wang-Mendel rule learning (Wang & Mendel,
  IEEE Trans. SMC 1992) from a (small) sample of records whose sensitive
  value the adversary happens to know (public salaries of a few colleagues,
  say), given as a column block.  Each labeled example generates the rule
  formed by its maximum-membership terms; conflicting rules (same
  antecedent, different consequent) are resolved by keeping the
  highest-degree one.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.batch import as_columns
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
    columns: Mapping[str, np.ndarray],
    targets: Sequence[float],
    inputs: Mapping[str, LinguisticVariable],
    output: LinguisticVariable,
) -> list[FuzzyRule]:
    """Wang-Mendel rule induction from labeled examples.

    ``columns`` is a column block (see :mod:`repro.fuzzy.batch`) aligned
    with ``targets``; ``NaN`` marks a missing cell.  Each example produces one
    candidate rule whose antecedent is the (first) maximum-membership term of
    every *available* input and whose consequent is the maximum-membership
    term of the target.  The candidate's degree is the product of those
    memberships, inputs first; examples with no available input, a missing
    target or degree 0 produce none.  Among candidates with the same
    antecedent only the highest-degree one is kept (the earliest on a tie),
    and the rules come in the order their antecedents first appear.
    """
    n, block = as_columns(columns, list(inputs))
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n,):
        raise FuzzyDefinitionError(
            f"columns and targets lengths differ: {n} vs {targets.size}"
        )
    if n == 0:
        raise FuzzyDefinitionError("Wang-Mendel induction needs at least one labeled example")

    # terms[i, j]: the antecedent term index of input j for example i (-1 if missing).
    terms = np.full((n, len(inputs)), -1, dtype=np.intp)
    degrees = np.ones(n)
    for j, (name, variable) in enumerate(inputs.items()):
        present = ~np.isnan(block[name])
        best, degree = _max_membership(variable, block[name])
        terms[present, j] = best[present]
        degrees *= degree  # a missing cell has degree 1 in every term
    consequents, degree = _max_membership(output, targets)
    degrees *= degree
    kept = np.flatnonzero(
        (terms >= 0).any(axis=1) & ~np.isnan(targets) & (degrees > 0.0)
    )
    if kept.size == 0:
        raise FuzzyDefinitionError(
            "Wang-Mendel induction produced no rules (all examples were empty or zero-degree)"
        )

    _, first, group = np.unique(
        terms[kept], axis=0, return_index=True, return_inverse=True
    )
    # One winner per antecedent: the highest degree, then the earliest
    # example (lexsort is stable).
    order = np.lexsort((-degrees[kept], group))
    winners = kept[order[np.r_[True, np.diff(group[order]) != 0]]]
    names = list(inputs)
    term_names = [inputs[name].term_names for name in names]
    return [
        FuzzyRule(
            conditions=tuple(
                Condition(names[j], term_names[j][terms[row, j]])
                for j in np.flatnonzero(terms[row] >= 0)
            ),
            consequent_term=output.term_names[consequents[row]],
            operator="and",
        )
        for row in winners[np.argsort(first)]
    ]


def _max_membership(
    variable: LinguisticVariable, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per value, the index of the first maximum-membership term and its degree."""
    memberships = np.column_stack(list(variable.fuzzify_batch(values).values()))
    return memberships.argmax(axis=1), memberships.max(axis=1)
