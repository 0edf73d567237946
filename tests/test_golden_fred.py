"""Golden regression tests pinning the paper pipeline numerically.

The batch-fusion rewrite (vectorized membership evaluation, the
``(N, n_rules)`` firing matrix, blockwise defuzzification, the parallel
sweep) must change *nothing* about what FRED computes.  These tests snapshot
the full sweep on the seeded faculty-salary scenario — chosen ``k*``,
per-level ``H_k`` scores, protection before/after fusion and utility — as
hard-coded constants, so any numerical drift in a future rewrite fails loudly
instead of silently shifting the reproduced figures.

The parallel-sweep tests assert the deterministic merge: process-pool sweeps
return outcomes bit-identical to the serial loop, and the utility stopping
rule truncates the merged sequence at the same level.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.fred import FREDAnonymizer, FREDConfig, FREDResult
from repro.exceptions import FREDConfigurationError, InfeasibleAnonymizationError
from repro.experiments.figures import default_setup, derive_thresholds, run_sweep
from repro.linkage import LinkageIndex

# Snapshot of the seeded scenario: default_setup(count=40, seed=5,
# levels=(2, 3, 4, 6, 8)) with the default minmax 0.5/0.5 objective.
# Re-baselined when SimulatedWebCorpus.from_profiles switched to one
# vectorized up-front RNG pass (the same seed now yields a different — but
# equally deterministic — corpus, so the attack-side numbers shifted; the
# release-side protection_before/utility values are corpus-independent and
# unchanged, and the chosen k* is the same).
GOLDEN_LEVELS = (2, 3, 4, 6, 8)
GOLDEN_OPTIMAL_LEVEL = 2
GOLDEN_THRESHOLDS = (365460514.83677566, 0.0035714285714285713)
GOLDEN = {
    # level: (protection_before, protection_after, utility, H_k, feasible)
    2: (504918862.975125, 366033013.3112835, 0.0125, 0.594156583538417, True),
    3: (504918872.6788125, 365460514.83677566, 0.008064516129032258, 0.34259088190737785, True),
    4: (504918884.4165, 370712412.09937036, 0.00625, 0.38348154615307045, True),
    6: (504918886.899125, 362440951.3191057, 0.0035714285714285713, 0.02380952380952379, False),
    8: (504918901.49825, 381515889.34886247, 0.003125, 0.5, False),
}
REL = 1e-9


def _make_fred(parallelism: int = 1, **overrides):
    setup = default_setup(count=40, seed=5, levels=GOLDEN_LEVELS)
    config = dict(
        levels=setup.levels,
        protection_threshold=GOLDEN_THRESHOLDS[0],
        utility_threshold=GOLDEN_THRESHOLDS[1],
        objective=setup.objective,
        stop_below_utility=False,
        parallelism=parallelism,
    )
    config.update(overrides)
    return setup, FREDAnonymizer(
        source=setup.corpus,
        attack_config=setup.attack_config,
        config=FREDConfig(**config),
    )


@pytest.fixture(scope="module")
def golden_result() -> FREDResult:
    setup, fred = _make_fred()
    return fred.run(setup.population.private)


class TestGoldenSweep:
    def test_chosen_optimal_level(self, golden_result):
        assert golden_result.optimal_level == GOLDEN_OPTIMAL_LEVEL

    def test_levels_swept_in_order(self, golden_result):
        assert tuple(o.level for o in golden_result.outcomes) == GOLDEN_LEVELS

    @pytest.mark.parametrize("level", GOLDEN_LEVELS)
    def test_per_level_measurements(self, golden_result, level):
        before, after, utility, score, feasible = GOLDEN[level]
        outcome = next(o for o in golden_result.outcomes if o.level == level)
        assert outcome.protection_before == pytest.approx(before, rel=REL)
        assert outcome.protection_after == pytest.approx(after, rel=REL)
        assert outcome.information_gain == pytest.approx(before - after, rel=REL)
        assert outcome.utility == pytest.approx(utility, rel=REL)
        assert golden_result.scores[level] == pytest.approx(score, rel=REL)
        assert outcome.feasible is feasible

    def test_derived_thresholds_are_stable(self):
        sweep = run_sweep(default_setup(count=40, seed=5, levels=GOLDEN_LEVELS))
        tp, tu = derive_thresholds(sweep)
        assert tp == pytest.approx(GOLDEN_THRESHOLDS[0], rel=REL)
        assert tu == pytest.approx(GOLDEN_THRESHOLDS[1], rel=REL)


class TestParallelSweepDeterminism:
    """The parallel dispatch must merge to exactly the serial outcomes."""

    @staticmethod
    def _assert_matches_serial(parallel: FREDResult, serial: FREDResult) -> None:
        assert parallel.optimal_level == serial.optimal_level
        assert parallel.scores == serial.scores
        for serial_outcome, parallel_outcome in zip(
            serial.outcomes, parallel.outcomes, strict=True
        ):
            assert parallel_outcome.level == serial_outcome.level
            assert parallel_outcome.protection_before == serial_outcome.protection_before
            assert parallel_outcome.protection_after == serial_outcome.protection_after
            assert parallel_outcome.information_gain == serial_outcome.information_gain
            assert parallel_outcome.utility == serial_outcome.utility
            assert parallel_outcome.feasible is serial_outcome.feasible
            np.testing.assert_array_equal(
                parallel_outcome.attack.estimates, serial_outcome.attack.estimates
            )

    def test_parallel_matches_serial_bitwise(self, golden_result):
        setup, fred = _make_fred(parallelism=4)
        self._assert_matches_serial(fred.run(setup.population.private), golden_result)

    def test_default_process_sweep_ships_no_linkage_index(
        self, golden_result, monkeypatch
    ):
        def refuse(index):
            raise AssertionError("the linkage index was pickled")

        monkeypatch.setattr(LinkageIndex, "__getstate__", refuse)
        setup, fred = _make_fred(parallelism=4)
        self._assert_matches_serial(fred.run(setup.population.private), golden_result)
        # The sweep's harvest built the corpus's index in this process, so
        # shipping the real corpus to the pool would have tripped the hook.
        with pytest.raises(AssertionError, match="linkage index was pickled"):
            pickle.dumps(setup.corpus)

    def test_parallel_honours_utility_stopping_rule(self):
        # Tu above level 6's utility: the serial do/until loop stops at k=6;
        # the parallel merge must truncate to the same prefix.
        tu = (GOLDEN[4][2] + GOLDEN[6][2]) / 2.0
        setup, serial_fred = _make_fred(
            utility_threshold=tu, stop_below_utility=True
        )
        serial = serial_fred.sweep(setup.population.private)
        setup, parallel_fred = _make_fred(
            parallelism=3, utility_threshold=tu, stop_below_utility=True
        )
        parallel = parallel_fred.sweep(setup.population.private)
        assert [o.level for o in serial] == [2, 3, 4, 6]
        assert [o.level for o in parallel] == [o.level for o in serial]
        assert [o.utility for o in parallel] == [o.utility for o in serial]

    def test_speculative_failure_past_stop_is_discarded(self):
        # Tu above every utility stops the serial loop at k=2, before the
        # infeasible k=50 (> 40 records) is ever attempted.  The parallel
        # sweep evaluates k=50 speculatively and must swallow its failure,
        # returning the same single-outcome prefix instead of raising.
        tu = GOLDEN[2][2] * 2.0
        setup, serial_fred = _make_fred(
            levels=GOLDEN_LEVELS + (50,), utility_threshold=tu, stop_below_utility=True
        )
        serial = serial_fred.sweep(setup.population.private)
        setup, parallel_fred = _make_fred(
            parallelism=4,
            levels=GOLDEN_LEVELS + (50,),
            utility_threshold=tu,
            stop_below_utility=True,
        )
        parallel = parallel_fred.sweep(setup.population.private)
        assert [o.level for o in serial] == [2]
        assert [o.level for o in parallel] == [2]
        assert parallel[0].utility == serial[0].utility

    def test_failure_before_stop_still_raises_in_parallel(self):
        setup, parallel_fred = _make_fred(parallelism=2, levels=(2, 50))
        with pytest.raises(InfeasibleAnonymizationError):
            parallel_fred.sweep(setup.population.private)

    def test_run_sweep_parallelism_reproduces_series(self):
        setup = default_setup(count=40, seed=5, levels=GOLDEN_LEVELS)
        serial = run_sweep(setup)
        parallel = run_sweep(setup, parallelism=4)
        for series in ("before", "after", "gain", "utility"):
            assert getattr(parallel, series) == getattr(serial, series)
        assert parallel.levels == serial.levels


class TestParallelismConfigValidation:
    def test_rejects_nonpositive_parallelism(self):
        with pytest.raises(FREDConfigurationError):
            FREDConfig(parallelism=0)

    @pytest.mark.parametrize("parallelism", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_parallelism(self, parallelism):
        with pytest.raises(FREDConfigurationError, match="integer"):
            FREDConfig(parallelism=parallelism)

    @pytest.mark.parametrize("levels", [(2, 2.5), (2.0, 3), (2, "3"), (True, 2)])
    def test_rejects_non_integer_levels(self, levels):
        with pytest.raises(FREDConfigurationError, match="integers"):
            FREDConfig(levels=levels)

    def test_accepts_numpy_integers(self):
        config = FREDConfig(levels=tuple(np.arange(2, 5)), parallelism=np.int64(2))
        assert config.levels == (2, 3, 4)
