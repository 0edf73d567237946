"""Batch-vs-reference equivalence for the vectorized fusion engines.

The column kernels (``evaluate_batch``/``trace`` over a column block of
``(N,)`` input arrays, the ``(N, n_rules)`` firing matrix, blockwise
aggregation/defuzzification) must be numerically indistinguishable from the
seed's per-record loop.  Two layers of protection:

* **property tests** (hypothesis) over random linguistic variables, rule
  bases and records — including ``None`` cells, NaN cells and absent keys —
  asserting the batch output over the records' column block == each record
  evaluated alone as a one-row block, within 1e-9;
* **reference implementations** of the seed's per-record Mamdani/Sugeno
  loops in ``tests/fuzzy_reference.py`` (per-record fuzzification, firing
  strength and defuzzification), so the batch kernel is pinned against the
  original semantics rather than against itself.

The all-zero-firing fallback (no rule fired -> midpoint of the output
universe, per record) gets its own explicit tests at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FuzzyEvaluationError
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.membership import GaussianMF
from repro.fuzzy.rules import Condition, FuzzyRule, firing_strength_matrix
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

from fuzzy_reference import (
    evaluate_record,
    firing_strength,
    fuzzify_record,
    record_block,
    reference_mamdani,
    reference_sugeno,
)

TOLERANCE = 1e-9

INPUT_NAMES = ("a", "b", "c")


# Strategies -----------------------------------------------------------------------


@st.composite
def linguistic_variable(draw, name: str) -> LinguisticVariable:
    """A random variable: uniform triangular/shoulder terms or random gaussians."""
    low = draw(st.floats(min_value=-100.0, max_value=100.0))
    width = draw(st.floats(min_value=1.0, max_value=200.0))
    universe = (low, low + width)
    term_names = tuple(f"t{i}" for i in range(draw(st.integers(2, 4))))
    if draw(st.booleans()):
        return LinguisticVariable.with_uniform_terms(name, universe, term_names)
    variable = LinguisticVariable(name=name, universe=universe)
    for term_name in term_names:
        mean = draw(st.floats(min_value=universe[0], max_value=universe[1]))
        sigma = draw(st.floats(min_value=width / 20.0, max_value=width))
        variable.add_term(term_name, GaussianMF(mean, sigma))
    return variable


@st.composite
def rule_base(
    draw, inputs: dict[str, LinguisticVariable], output: LinguisticVariable
) -> list[FuzzyRule]:
    """1..6 random rules over random subsets of the inputs."""
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        variable_names = draw(
            st.lists(
                st.sampled_from(sorted(inputs)), min_size=1, max_size=len(inputs), unique=True
            )
        )
        conditions = tuple(
            Condition(
                variable=name,
                term=draw(st.sampled_from(inputs[name].term_names)),
                negated=draw(st.booleans()),
            )
            for name in variable_names
        )
        rules.append(
            FuzzyRule(
                conditions=conditions,
                consequent_term=draw(st.sampled_from(output.term_names)),
                operator=draw(st.sampled_from(["and", "or"])),
                weight=draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        )
    return rules


@st.composite
def fusion_setup(draw):
    """Random (inputs, output, rules, records) with None/NaN/absent cells."""
    inputs = {name: draw(linguistic_variable(name)) for name in INPUT_NAMES}
    output = draw(linguistic_variable("y"))
    rules = draw(rule_base(inputs, output))
    records = []
    for _ in range(draw(st.integers(1, 8))):
        record: dict[str, float | None] = {}
        for name, variable in inputs.items():
            low, high = variable.universe
            cell = draw(
                st.one_of(
                    st.floats(min_value=low, max_value=high),
                    st.floats(min_value=low - 10.0, max_value=high + 10.0),
                    st.none(),
                    st.just(float("nan")),
                    st.just("absent"),
                )
            )
            if cell != "absent":
                record[name] = cell
        records.append(record)
    return inputs, output, rules, records


# Property tests -------------------------------------------------------------------


class TestMamdaniEquivalence:
    @given(fusion_setup(), st.sampled_from(["centroid", "bisector", "mom"]))
    @settings(max_examples=50, deadline=None)
    def test_batch_matches_scalar_and_reference(self, setup, strategy):
        inputs, output, rules, records = setup
        system = MamdaniSystem(
            inputs=inputs, output=output, rules=rules, defuzzification=strategy
        )
        batch = system.evaluate_batch(record_block(records, INPUT_NAMES))
        assert batch.shape == (len(records),)
        for i, record in enumerate(records):
            one_row = evaluate_record(system, record)
            assert batch[i] == pytest.approx(one_row, abs=TOLERANCE)
            assert batch[i] == pytest.approx(
                reference_mamdani(system, record), abs=TOLERANCE
            )

    @given(fusion_setup())
    @settings(max_examples=25, deadline=None)
    def test_trace_exposes_batch_kernel_quantities(self, setup):
        inputs, output, rules, records = setup
        system = MamdaniSystem(inputs=inputs, output=output, rules=rules)
        record = records[0]
        trace = system.trace(record_block([record], INPUT_NAMES))
        fuzzified = fuzzify_record(inputs, record)
        # A one-row block fuzzifies bit for bit like the per-record path (a
        # longer block may round a Gaussian degree differently by an ulp).
        assert {
            name: {term: float(degrees[0]) for term, degrees in terms.items()}
            for name, terms in trace.fuzzified.items()
        } == fuzzified
        for strength, rule in zip(trace.firing_strengths[0], system.rules):
            assert strength == pytest.approx(
                firing_strength(rule, fuzzified), abs=TOLERANCE
            )
        assert trace.output[0] == pytest.approx(evaluate_record(system, record), abs=TOLERANCE)

        block = record_block(records, INPUT_NAMES)
        trace = system.trace(block)
        assert trace.firing_strengths.shape == (len(records), len(rules))
        assert trace.aggregated.shape == (len(records), system.resolution)
        np.testing.assert_array_equal(trace.output, system.evaluate_batch(block))


class TestSugenoEquivalence:
    @given(fusion_setup())
    @settings(max_examples=50, deadline=None)
    def test_batch_matches_scalar_and_reference(self, setup):
        inputs, output, rules, records = setup
        system = SugenoSystem(inputs=inputs, output=output, rules=rules)
        batch = system.evaluate_batch(record_block(records, INPUT_NAMES))
        assert batch.shape == (len(records),)
        for i, record in enumerate(records):
            one_row = evaluate_record(system, record)
            assert batch[i] == pytest.approx(one_row, abs=TOLERANCE)
            assert batch[i] == pytest.approx(
                reference_sugeno(system, record), abs=TOLERANCE
            )


class TestFiringMatrix:
    @given(fusion_setup())
    @settings(max_examples=25, deadline=None)
    def test_matrix_matches_per_record_firing_strengths(self, setup):
        inputs, output, rules, records = setup
        columns = record_block(records, INPUT_NAMES)
        matrix = firing_strength_matrix(
            rules, {name: inputs[name].fuzzify_batch(columns[name]) for name in inputs}
        )
        assert matrix.shape == (len(records), len(rules))
        for i, record in enumerate(records):
            fuzzified = fuzzify_record(inputs, record)
            for j, rule in enumerate(rules):
                assert matrix[i, j] == pytest.approx(
                    firing_strength(rule, fuzzified), abs=TOLERANCE
                )


# No-rule-fired fallback -----------------------------------------------------------


def _dead_zone_system(engine: str):
    """A system whose single rule cannot fire for inputs at the top of the range.

    With three uniform terms over ``(0, 10)``, ``t0``'s shoulder trapezoid
    falls to 0 at the universe midpoint, so any input >= 5 gives the lone
    ``IF a IS t0`` rule strength 0.
    """
    inputs = {
        "a": LinguisticVariable.with_uniform_terms("a", (0.0, 10.0), ("t0", "t1", "t2"))
    }
    output = LinguisticVariable.with_uniform_terms("y", (100.0, 300.0), ("t0", "t1"))
    rules = [FuzzyRule(conditions=(Condition("a", "t0"),), consequent_term="t0")]
    if engine == "mamdani":
        return MamdaniSystem(inputs=inputs, output=output, rules=rules)
    return SugenoSystem(inputs=inputs, output=output, rules=rules)


class TestNoRuleFiredFallback:
    MIDPOINT = 200.0  # midpoint of the (100, 300) output universe

    @pytest.mark.parametrize("engine", ["mamdani", "sugeno"])
    def test_all_zero_firing_batch_returns_midpoint_for_every_record(self, engine):
        system = _dead_zone_system(engine)
        outputs = system.evaluate_batch({"a": np.array([9.0, 10.0, 7.5])})
        np.testing.assert_array_equal(outputs, np.full(3, self.MIDPOINT))

    @pytest.mark.parametrize("engine", ["mamdani", "sugeno"])
    def test_mixed_batch_applies_fallback_per_record(self, engine):
        system = _dead_zone_system(engine)
        records = [{"a": 1.0}, {"a": 9.0}, {"a": 2.0}, {"a": 10.0}]
        outputs = system.evaluate_batch(record_block(records, ("a",)))
        # Fired records defuzzify the t0 consequent (low end of the output
        # universe); dead-zone records get exactly the midpoint.
        assert outputs[1] == self.MIDPOINT
        assert outputs[3] == self.MIDPOINT
        assert outputs[0] < self.MIDPOINT
        assert outputs[2] < self.MIDPOINT
        for record, expected in zip(records, outputs):
            assert evaluate_record(system, record) == pytest.approx(expected, abs=TOLERANCE)

    def test_scalar_fallback_matches_batch_fallback(self):
        mamdani = _dead_zone_system("mamdani")
        sugeno = _dead_zone_system("sugeno")
        assert evaluate_record(mamdani, {"a": 9.5}) == self.MIDPOINT
        assert evaluate_record(sugeno, {"a": 9.5}) == self.MIDPOINT
        assert reference_mamdani(mamdani, {"a": 9.5}) == self.MIDPOINT
        assert reference_sugeno(sugeno, {"a": 9.5}) == self.MIDPOINT

    def test_trace_of_unfired_record_reports_zero_strengths_and_midpoint(self):
        system = _dead_zone_system("mamdani")
        trace = system.trace({"a": np.array([9.5])})
        np.testing.assert_array_equal(trace.firing_strengths, [[0.0]])
        assert float(np.max(trace.aggregated)) == 0.0
        np.testing.assert_array_equal(trace.output, [self.MIDPOINT])

    def test_unknown_only_column_mapping_keeps_batch_length(self):
        # A column mapping with no recognized variable must still yield one
        # output per record (all inputs NaN -> every rule fires fully for
        # Sugeno, so no fallback, but the length contract is the point),
        # matching a block whose recognized column is all NaN.
        system = _dead_zone_system("sugeno")
        unknown = {"z": np.array([1.0, 2.0, 3.0])}
        from_columns = system.evaluate_batch(unknown)
        all_missing = system.evaluate_batch({"a": np.full(3, np.nan)})
        assert from_columns.shape == (3,)
        np.testing.assert_allclose(from_columns, all_missing, rtol=0.0, atol=TOLERANCE)
        one_row = evaluate_record(system, {"z": 1.0})
        assert from_columns[0] == pytest.approx(one_row, abs=TOLERANCE)

    def test_empty_rule_base_still_raises(self):
        inputs = {
            "a": LinguisticVariable.with_uniform_terms("a", (0.0, 10.0), ("t0", "t1"))
        }
        output = LinguisticVariable.with_uniform_terms("y", (0.0, 1.0), ("t0", "t1"))
        system = MamdaniSystem(inputs=inputs, output=output, rules=[])
        with pytest.raises(FuzzyEvaluationError):
            system.evaluate_batch({"a": np.array([1.0])})

    @pytest.mark.parametrize("engine", ["mamdani", "sugeno"])
    def test_record_list_is_rejected_with_the_column_layout_named(self, engine):
        system = _dead_zone_system(engine)
        with pytest.raises(FuzzyEvaluationError, match="column block"):
            system.evaluate_batch([{"a": 1.0}, {"a": 9.0}])

    @pytest.mark.parametrize("engine", ["mamdani", "sugeno"])
    def test_text_cell_is_rejected_with_the_column_named(self, engine):
        # A text cell used to escape as a bare ValueError from float().
        system = _dead_zone_system(engine)
        with pytest.raises(FuzzyEvaluationError, match="column 'a' must hold numbers"):
            system.evaluate_batch({"a": [1.0, "high"]})
        with pytest.raises(FuzzyEvaluationError, match="column 'a' must hold numbers"):
            system.evaluate_batch({"a": [None, "high"]})
