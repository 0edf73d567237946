"""Per-record reference implementations of the fuzzy inference machinery.

The engines in :mod:`repro.fuzzy` evaluate column blocks only.  These are the
per-record forms they were derived from: one crisp value fuzzified at a time,
one rule fired at a time, one aggregated curve defuzzified at a time, the
seed's Mamdani and Sugeno loops, and the Wang-Mendel induction loop.  They
are the executable specification the column kernels are pinned against
(``tests/test_batch_equivalence.py``, ``tests/test_rulegen_estimators.py``
and ``benchmarks/test_bench_batch_fusion.py``).  Nothing in ``src/`` calls
them.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import FuzzyDefinitionError, FuzzyEvaluationError
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.membership import MembershipFunction
from repro.fuzzy.rules import Condition, FuzzyRule
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable


# Fuzzification and rules ----------------------------------------------------------


def degree(membership: MembershipFunction, value: float) -> float:
    """Membership degree of one crisp value, clamped to ``[0, 1]``."""
    return float(np.clip(membership(np.asarray(value, dtype=float)), 0.0, 1.0))


def fuzzify_value(variable: LinguisticVariable, value: float) -> dict[str, float]:
    """Membership degree of ``value`` in every term of ``variable``."""
    if not variable.terms:
        raise FuzzyDefinitionError(f"variable {variable.name!r} has no terms defined")
    return {
        name: degree(fuzzy_set.membership, value)
        for name, fuzzy_set in variable.terms.items()
    }


def fuzzify_record(
    inputs: Mapping[str, LinguisticVariable], record: Mapping[str, float | None]
) -> dict[str, dict[str, float]]:
    """Fuzzify one record; a ``None``, NaN or absent input maps every term to 1."""
    fuzzified: dict[str, dict[str, float]] = {}
    for name, variable in inputs.items():
        value = record.get(name)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            fuzzified[name] = {term: 1.0 for term in variable.term_names}
        else:
            fuzzified[name] = fuzzify_value(variable, float(value))
    return fuzzified


def condition_degree(
    condition: Condition, fuzzified: Mapping[str, Mapping[str, float]]
) -> float:
    """Truth degree of one condition given one record's fuzzified inputs."""
    if condition.variable not in fuzzified:
        raise FuzzyEvaluationError(f"no input provided for variable {condition.variable!r}")
    memberships = fuzzified[condition.variable]
    if condition.term not in memberships:
        raise FuzzyEvaluationError(
            f"variable {condition.variable!r} has no term {condition.term!r}"
        )
    value = memberships[condition.term]
    return 1.0 - value if condition.negated else value


def firing_strength(rule: FuzzyRule, fuzzified: Mapping[str, Mapping[str, float]]) -> float:
    """Degree to which ``rule`` fires for one record's fuzzified inputs."""
    degrees = [condition_degree(condition, fuzzified) for condition in rule.conditions]
    combined = min(degrees) if rule.operator == "and" else max(degrees)
    return rule.weight * combined


# Defuzzification ------------------------------------------------------------------


def _validate(universe: np.ndarray, membership: np.ndarray) -> None:
    if universe.shape != membership.shape:
        raise FuzzyEvaluationError(
            f"universe and membership shapes differ: {universe.shape} vs {membership.shape}"
        )
    if universe.ndim != 1 or universe.size < 3:
        raise FuzzyEvaluationError("defuzzification needs a 1-D universe with >= 3 samples")


def centroid(universe: np.ndarray, membership: np.ndarray) -> float:
    """Centre of gravity of one membership curve."""
    _validate(universe, membership)
    total = float(np.trapezoid(membership, universe))
    if total <= 0.0:
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    return float(np.trapezoid(membership * universe, universe) / total)


def bisector(universe: np.ndarray, membership: np.ndarray) -> float:
    """Abscissa that splits the area under one membership curve into equal halves."""
    _validate(universe, membership)
    cumulative = np.concatenate(
        [[0.0], np.cumsum((membership[1:] + membership[:-1]) / 2.0 * np.diff(universe))]
    )
    total = cumulative[-1]
    if total <= 0.0:
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    index = int(np.searchsorted(cumulative, total / 2.0))
    index = min(max(index, 0), len(universe) - 1)
    return float(universe[index])


def mean_of_maxima(universe: np.ndarray, membership: np.ndarray) -> float:
    """Mean of the abscissas where one membership curve attains its maximum."""
    _validate(universe, membership)
    peak = float(membership.max())
    if peak <= 0.0:
        raise FuzzyEvaluationError("cannot defuzzify an all-zero membership curve")
    return float(universe[np.isclose(membership, peak)].mean())


STRATEGIES = {
    "centroid": centroid,
    "bisector": bisector,
    "mom": mean_of_maxima,
}


def defuzzify(universe: np.ndarray, membership: np.ndarray, strategy: str = "centroid") -> float:
    """Dispatch one curve to a registered strategy."""
    if strategy not in STRATEGIES:
        raise FuzzyEvaluationError(
            f"unknown defuzzification strategy {strategy!r}; options: {sorted(STRATEGIES)}"
        )
    return STRATEGIES[strategy](universe, membership)


# Engines --------------------------------------------------------------------------


def reference_mamdani(system: MamdaniSystem, record: Mapping[str, float | None]) -> float:
    """The seed's per-record Mamdani loop: one rule clipped and merged at a time."""
    fuzzified = fuzzify_record(system.inputs, record)
    universe = system.output.grid(system.resolution)
    aggregated = np.zeros_like(universe)
    for rule in system.rules:
        strength = firing_strength(rule, fuzzified)
        if strength <= 0.0:
            continue
        term_curve = np.asarray(
            system.output.term(rule.consequent_term).membership(universe), dtype=float
        )
        aggregated = np.maximum(aggregated, np.minimum(term_curve, strength))
    if float(aggregated.max(initial=0.0)) <= 0.0:
        return float((system.output.universe[0] + system.output.universe[1]) / 2.0)
    return defuzzify(universe, aggregated, system.defuzzification)


def reference_sugeno(system: SugenoSystem, record: Mapping[str, float | None]) -> float:
    """The seed's per-record Sugeno loop: the strength-weighted consequent mean."""
    fuzzified = fuzzify_record(system.inputs, record)
    numerator = 0.0
    denominator = 0.0
    for rule in system.rules:
        strength = firing_strength(rule, fuzzified)
        numerator += strength * system.consequents[rule.consequent_term]
        denominator += strength
    if denominator <= 0.0:
        return float((system.output.universe[0] + system.output.universe[1]) / 2.0)
    return numerator / denominator


def record_block(
    records: Sequence[Mapping[str, float | None]], names: Sequence[str]
) -> dict[str, np.ndarray]:
    """Records as a column block; ``None`` and absent cells become NaN."""
    return {
        name: np.array(
            [np.nan if record.get(name) is None else float(record[name]) for record in records],
            dtype=float,
        )
        for name in names
    }


def evaluate_record(
    system: MamdaniSystem | SugenoSystem, record: Mapping[str, float | None]
) -> float:
    """One record through an engine's column kernel, as a one-row block.

    Absent inputs are ``None`` cells; keys the engine does not know stay in
    the block, so the Mamdani engine's unknown-input check still sees them.
    """
    block: dict[str, list[float | None]] = {name: [None] for name in system.inputs}
    block.update((name, [value]) for name, value in record.items())
    return float(system.evaluate_batch(block)[0])


# Rule induction -------------------------------------------------------------------


def wang_mendel_reference(
    records: Sequence[Mapping[str, float | None]],
    targets: Sequence[float],
    inputs: Mapping[str, LinguisticVariable],
    output: LinguisticVariable,
) -> list[FuzzyRule]:
    """The per-record Wang-Mendel loop over record dicts (``None`` = missing).

    Each example's rule takes every present input's first maximum-membership
    term; its degree multiplies those memberships, then the target's.  The
    highest-degree rule per antecedent is kept, in first-seen order.
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
        rule_degree = 1.0
        for name, variable in inputs.items():
            value = record.get(name)
            if value is None:
                continue
            memberships = fuzzify_value(variable, float(value))
            term = max(memberships, key=memberships.get)
            conditions.append(Condition(name, term))
            rule_degree *= memberships[term]
        if not conditions:
            continue
        output_memberships = fuzzify_value(output, float(target))
        output_term = max(output_memberships, key=output_memberships.get)
        rule_degree *= output_memberships[output_term]
        if rule_degree <= 0.0:
            continue
        rule = FuzzyRule(
            conditions=tuple(conditions), consequent_term=output_term, operator="and"
        )
        key = tuple(sorted((c.variable, c.term) for c in conditions))
        existing = best.get(key)
        if existing is None or rule_degree > existing[0]:
            best[key] = (rule_degree, rule)

    if not best:
        raise FuzzyDefinitionError(
            "Wang-Mendel induction produced no rules (all examples were empty or zero-degree)"
        )
    return [rule for _, rule in best.values()]
