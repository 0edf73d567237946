"""Property-based tests (hypothesis) for the fuzzy inference substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FuzzyDefinitionError
from repro.fusion.rulegen import monotone_rules
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.membership import MembershipFunction, TrapezoidalMF, TriangularMF
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

from builders import GaussianMF
from fuzzy_reference import evaluate_record

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestMembershipProperties:
    @given(st.lists(finite, min_size=3, max_size=3).map(sorted), finite)
    def test_triangular_in_unit_interval(self, abc, x):
        a, b, c = abc
        if a == c:
            return
        mf = TriangularMF(a, b, c)
        assert 0.0 <= mf(x) <= 1.0

    @given(st.lists(finite, min_size=4, max_size=4).map(sorted), finite)
    def test_trapezoidal_in_unit_interval_and_plateau_full(self, abcd, x):
        a, b, c, d = abcd
        if a == d:
            return
        mf = TrapezoidalMF(a, b, c, d)
        assert 0.0 <= mf(x) <= 1.0
        assert mf((b + c) / 2.0) == 1.0

    @given(finite, st.floats(min_value=1e-3, max_value=1e4), finite)
    def test_gaussian_bounded_and_peak_at_mean(self, mean, sigma, x):
        mf = GaussianMF(mean, sigma)
        assert 0.0 <= mf(x) <= 1.0
        assert mf(mean) == 1.0
        assert mf(x) <= mf(mean)


# Calibration samples stay within 1e300 of zero: nearer the float maximum the
# 5% universe padding itself overflows to inf.
huge = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def calibration_samples(draw):
    """Finite samples of >= 2 values: arbitrary spreads, ties and tiny spans."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(finite, huge), min_size=2, max_size=8))
    base = draw(st.one_of(finite, huge))
    scale = draw(st.sampled_from([5e-324, 1e-300, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e290]))
    steps = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8))
    return [base + scale * step for step in steps]


def _absolute_step_terms(values, term_names):
    """The terms of the absolute-step tie fix-up, or None where it cannot build."""
    data = np.asarray(values, dtype=float)
    low, high = float(data.min()), float(data.max())
    if high <= low:
        high = low + 1.0
    span = high - low
    low -= 0.05 * span
    high += 0.05 * span
    if not low < high:
        return None
    centers = np.clip(np.quantile(data, np.linspace(0.0, 1.0, len(term_names))), low, high)
    for i in range(1, len(centers)):
        if centers[i] <= centers[i - 1]:
            centers[i] = centers[i - 1] + 1e-9 * max(1.0, abs(span))
    terms: list[MembershipFunction] = []
    try:
        for i in range(len(term_names)):
            center = float(centers[i])
            left = float(centers[i - 1]) if i > 0 else low
            right = float(centers[i + 1]) if i < len(term_names) - 1 else high
            if i == 0:
                terms.append(TrapezoidalMF(low, low, center, right))
            elif i == len(term_names) - 1:
                terms.append(TrapezoidalMF(left, center, high, high))
            else:
                terms.append(TriangularMF(left, center, right))
    except FuzzyDefinitionError:
        return None
    return (low, high), terms


class TestCalibrationProperties:
    @given(calibration_samples(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_from_values_always_builds_a_valid_variable(self, values, term_count):
        names = tuple(f"t{i}" for i in range(term_count))
        variable = LinguisticVariable.from_values("x", values, names)
        low, high = variable.universe
        assert low <= min(values) and max(values) <= high
        degrees = variable.fuzzify_batch(np.asarray(values, dtype=float))
        for column in degrees.values():
            assert ((column >= 0.0) & (column <= 1.0)).all()
        # Wherever the absolute 1e-9 step builds, the terms are bit-identical to it.
        reference = _absolute_step_terms(values, names)
        if reference is not None:
            universe, terms = reference
            assert variable.universe == universe
            assert [variable.term(name).membership for name in names] == terms


def _build_systems(term_count: int):
    terms = tuple(f"t{i}" for i in range(term_count))
    inputs = {
        "a": LinguisticVariable.with_uniform_terms("a", (0.0, 10.0), terms),
        "b": LinguisticVariable.with_uniform_terms("b", (0.0, 100.0), terms),
    }
    output = LinguisticVariable.with_uniform_terms("y", (0.0, 1000.0), terms)
    rules = monotone_rules(inputs, output)
    mamdani = MamdaniSystem(inputs=inputs, output=output, rules=rules)
    sugeno = SugenoSystem(inputs=dict(inputs), output=output, rules=list(rules))
    return mamdani, sugeno


class TestInferenceProperties:
    @given(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_outputs_stay_inside_output_universe(self, term_count, a, b):
        mamdani, sugeno = _build_systems(term_count)
        for system in (mamdani, sugeno):
            estimate = evaluate_record(system, {"a": a, "b": b})
            assert 0.0 <= estimate <= 1000.0

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sugeno_monotone_in_each_input(self, a1, a2, b):
        _, sugeno = _build_systems(3)
        low_a, high_a = min(a1, a2), max(a1, a2)
        assert evaluate_record(sugeno, {"a": low_a, "b": b}) <= evaluate_record(
            sugeno, {"a": high_a, "b": b}
        ) + 1e-9

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_missing_input_equivalent_to_none_and_nan(self, a, b):
        mamdani, _ = _build_systems(3)
        assert evaluate_record(mamdani, {"a": a, "b": None}) == evaluate_record(
            mamdani, {"a": a, "b": float("nan")}
        )

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_pointwise(self, values):
        mamdani, _ = _build_systems(3)
        records = [{"a": v, "b": v * 10} for v in values]
        batch = mamdani.evaluate_batch(
            {"a": np.array(values), "b": np.array(values) * 10}
        )
        pointwise = np.array([evaluate_record(mamdani, r) for r in records])
        assert np.allclose(batch, pointwise)
