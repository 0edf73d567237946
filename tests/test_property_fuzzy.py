"""Property-based tests (hypothesis) for the fuzzy inference substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.rulegen import monotone_rules
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.membership import GaussianMF, TrapezoidalMF, TriangularMF
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestMembershipProperties:
    @given(st.lists(finite, min_size=3, max_size=3).map(sorted), finite)
    def test_triangular_in_unit_interval(self, abc, x):
        a, b, c = abc
        if a == c:
            return
        mf = TriangularMF(a, b, c)
        assert 0.0 <= mf.degree(x) <= 1.0

    @given(st.lists(finite, min_size=4, max_size=4).map(sorted), finite)
    def test_trapezoidal_in_unit_interval_and_plateau_full(self, abcd, x):
        a, b, c, d = abcd
        if a == d:
            return
        mf = TrapezoidalMF(a, b, c, d)
        assert 0.0 <= mf.degree(x) <= 1.0
        assert mf.degree((b + c) / 2.0) == 1.0

    @given(finite, st.floats(min_value=1e-3, max_value=1e4), finite)
    def test_gaussian_bounded_and_peak_at_mean(self, mean, sigma, x):
        mf = GaussianMF(mean, sigma)
        assert 0.0 <= mf.degree(x) <= 1.0
        assert mf.degree(mean) == 1.0
        assert mf.degree(x) <= mf.degree(mean)


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
            estimate = system.evaluate({"a": a, "b": b})
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
        assert sugeno.evaluate({"a": low_a, "b": b}) <= sugeno.evaluate({"a": high_a, "b": b}) + 1e-9

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_missing_input_equivalent_to_none_and_nan(self, a, b):
        mamdani, _ = _build_systems(3)
        assert mamdani.evaluate({"a": a, "b": None}) == mamdani.evaluate(
            {"a": a, "b": float("nan")}
        )

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_pointwise(self, values):
        mamdani, _ = _build_systems(3)
        records = [{"a": v, "b": v * 10} for v in values]
        batch = mamdani.evaluate_batch(
            {"a": np.array(values), "b": np.array(values) * 10}
        )
        pointwise = np.array([mamdani.evaluate(r) for r in records])
        assert np.allclose(batch, pointwise)
