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
universe, per record) gets its own explicit tests near the bottom, and a last
property pins the Mamdani kernel's row blocks: outputs and aggregate are bit
for bit the same whatever block or slice a row lands in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FuzzyEvaluationError
from repro.fuzzy.inference import _BLOCK_ROWS as BLOCK_ROWS
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.rules import Condition, FuzzyRule, firing_strength_matrix
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

from builders import GaussianMF
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
        # Both engines reject a key that names no input, even when it is the
        # only key, instead of answering an all-missing batch of its length.
        for engine in ("mamdani", "sugeno"):
            system = _dead_zone_system(engine)
            with pytest.raises(FuzzyEvaluationError, match="unknown variables"):
                system.evaluate_batch({"z": np.array([1.0, 2.0, 3.0])})
            with pytest.raises(FuzzyEvaluationError, match="unknown variables"):
                evaluate_record(system, {"z": 1.0})
        # An input the block lacks is still all-missing, batch length kept.
        all_missing = _dead_zone_system("sugeno").evaluate_batch({"a": np.full(3, np.nan)})
        assert all_missing.shape == (3,)

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

    @pytest.mark.parametrize("strategy", ["centroid", "bisector"])
    def test_zero_area_record_falls_back_without_failing_the_batch(self, strategy):
        # x = 5e-324 fires "medium" at a subnormal strength: the record's
        # curve is positive, but its trapezoid area underflows to 0, which
        # the defuzzifier rejects.  That record alone gets the midpoint.
        x = LinguisticVariable.with_uniform_terms("x", (0.0, 1.0), ("low", "medium", "high"))
        y = LinguisticVariable.with_uniform_terms("y", (0.0, 1.0), ("low", "medium", "high"))
        system = MamdaniSystem(
            inputs={"x": x},
            output=y,
            rules=[FuzzyRule(conditions=(Condition("x", "medium"),), consequent_term="medium")],
            defuzzification=strategy,
        )
        values = np.array([0.3, 5e-324, 0.6, 0.45])
        trace = system.trace({"x": values})
        assert trace.aggregated[1].max() > 0.0
        assert trace.output[1] == 0.5
        for i in (0, 2, 3):
            alone = system.evaluate_batch({"x": values[i : i + 1]})
            assert trace.output[i] == alone[0]
            assert trace.output[i] != 0.5
        np.testing.assert_array_equal(system.evaluate_batch({"x": values}), trace.output)


# Row blocks -----------------------------------------------------------------------


@st.composite
def blocked_setup(draw):
    """A gated uniform-term system and an N-row block around the row-block size.

    Every rule is ANDed with ``g IS t0``, so a row with ``g = 10`` fires
    nothing; such rows land anywhere, block edges included.  The terms are
    the library's piecewise-linear ones: a Gaussian degree may round by an
    ulp differently with the length of the column it is computed in, which
    would make row slices incomparable bit for bit.
    """
    inputs = {}
    for name in INPUT_NAMES:
        low = draw(st.floats(min_value=-100.0, max_value=100.0))
        width = draw(st.floats(min_value=1.0, max_value=200.0))
        terms = tuple(f"t{i}" for i in range(draw(st.integers(2, 4))))
        inputs[name] = LinguisticVariable.with_uniform_terms(name, (low, low + width), terms)
    low = draw(st.floats(min_value=-100.0, max_value=100.0))
    width = draw(st.floats(min_value=1.0, max_value=200.0))
    terms = tuple(f"t{i}" for i in range(draw(st.integers(2, 4))))
    output = LinguisticVariable.with_uniform_terms("y", (low, low + width), terms)
    gate = Condition("g", "t0")
    rules = [
        FuzzyRule(
            conditions=rule.conditions + (gate,),
            consequent_term=rule.consequent_term,
            weight=rule.weight,
        )
        for rule in draw(rule_base(inputs, output))
    ]
    inputs["g"] = LinguisticVariable.with_uniform_terms("g", (0.0, 10.0), ("t0", "t1"))

    n = draw(st.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in INPUT_NAMES:
        var_low, var_high = inputs[name].universe
        column = rng.uniform(var_low - 10.0, var_high + 10.0, n)
        column[rng.random(n) < 0.1] = np.nan
        columns[name] = column
    gated = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    columns["g"] = np.where(gated, 10.0, 0.0)
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=4))))
    return inputs, output, rules, columns, gated, [0, *cuts, n]


class TestRowBlocks:
    @given(blocked_setup(), st.sampled_from(["centroid", "bisector", "mom"]))
    @settings(max_examples=40, deadline=None)
    def test_outputs_do_not_depend_on_block_boundaries(self, setup, strategy):
        inputs, output, rules, columns, gated, bounds = setup
        system = MamdaniSystem(
            inputs=inputs, output=output, rules=rules, defuzzification=strategy
        )
        outputs = system.evaluate_batch(columns)
        trace = system.trace(columns)
        np.testing.assert_array_equal(outputs, trace.output)
        sliced = np.concatenate(
            [
                system.evaluate_batch({name: column[a:b] for name, column in columns.items()})
                for a, b in zip(bounds, bounds[1:])
            ]
        )
        np.testing.assert_array_equal(outputs, sliced)

        # The aggregate equals the unblocked max over rules of the clipped curves.
        universe = output.grid(system.resolution)
        expected = np.zeros((len(outputs), universe.size))
        for j, rule in enumerate(rules):
            curve = output.term(rule.consequent_term).membership(universe)
            expected = np.maximum(
                expected, np.minimum(curve, trace.firing_strengths[:, j, None])
            )
        np.testing.assert_array_equal(trace.aggregated, expected)

        assert not trace.firing_strengths[gated].any()
        midpoint = (output.universe[0] + output.universe[1]) / 2.0
        np.testing.assert_array_equal(outputs[gated], midpoint)
