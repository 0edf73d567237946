"""FRED Anonymization — Fusion Resilient Enterprise Data Anonymization.

This is the paper's primary algorithmic contribution (Algorithm 1, Figure 3).
Given a private dataset ``P``, an auxiliary channel ``Q`` (the web) and a
fusion system ``F``, FRED sweeps the anonymization level, *simulates the
web-based information-fusion attack at every level*, and keeps the level that
maximizes the weighted sum of protection and utility subject to a protection
floor ``Tp`` and a utility floor ``Tu``::

    find k*  maximizing  H_k = W1 * (P ∘ P̂_k) + W2 * U_k
    subject to           (P ∘ P̂_k) >= Tp   and   U_k >= Tu

The sweep ascends through the configured levels and — following the paper's
do/until loop — stops as soon as the utility of a candidate release falls
below ``Tu`` (higher levels can only be worse for utility).

Batch evaluation and the parallel sweep
---------------------------------------
Both halves of a level evaluation are vectorized.  The *release-production*
half runs on the columnar table core: anonymizers partition over the cached
numeric quasi-identifier matrix, ``build_release`` generalizes one cell per
(class, column) pair and fans it out with fancy-index assignments, and the
utility / dissimilarity metrics consume class-size and cost vectors (see
:mod:`repro.dataset.table` and :mod:`repro.anonymize.base`).  The *attack*
half simulates the fusion attack **column-wise**: the attack
assembles one ``(N,)`` float array per fusion input (NaN marking missing
cells), the fuzzy engines form the ``(N, n_rules)`` firing-strength matrix and
defuzzify every record in one vectorized pass (see
:mod:`repro.fusion.attack`, *Batch data layout*).  On top of that, level
evaluations are **independent jobs**: ``FREDConfig(parallelism=w)`` dispatches
them across a pool of ``w`` worker processes (the anonymizer must be
picklable; workers get the precomputed harvest and a detached stub in place
of the auxiliary source) and merges the results deterministically — outcomes
are collected in level order and, when ``stop_below_utility`` is set,
truncated after the first level whose utility falls below ``Tu``, so a
parallel sweep returns exactly the outcomes a serial sweep would (levels past
the stopping point are evaluated speculatively and discarded).

Sweep-wide harvest reuse
------------------------
Step 1 of the simulated attack — linking release identifiers to auxiliary
records — depends only on the identifier column and the auxiliary source,
never on the anonymization level (anonymizers preserve rows and row order;
see :mod:`repro.anonymize.base`).  The sweep therefore harvests **once**:
:meth:`FREDAnonymizer.harvest` resolves the whole identifier column through
the batched linkage engine (:mod:`repro.linkage`), and the resulting
``(records, table)`` pair is shared read-only across every level evaluation,
serial or parallel.  A sweep over ``L`` levels pays the linkage cost once
instead of ``L`` times; callers holding a memoized harvest (the service
cache) can inject it via the ``harvest`` parameter of :meth:`sweep`/:meth:`run`
and skip linkage entirely.
"""

from __future__ import annotations

import numbers
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.anonymize.base import AnonymizationResult, BaseAnonymizer
from repro.anonymize.mdav import MDAVAnonymizer
from repro.core.objective import WeightedObjective
from repro.dataset.table import Table
from repro.exceptions import (
    AuxiliarySourceError,
    FREDConfigurationError,
    FREDInfeasibleError,
)
from repro.fusion.attack import AttackConfig, AttackResult, WebFusionAttack
from repro.fusion.auxiliary import AuxiliarySource
from repro.metrics.dissimilarity import (
    dissimilarity_after_fusion,
    dissimilarity_before_fusion,
)
from repro.metrics.utility import utility_of_result

__all__ = ["FREDConfig", "LevelOutcome", "FREDResult", "FREDAnonymizer"]


@dataclass
class FREDConfig:
    """Configuration of a FRED sweep.

    Parameters
    ----------
    levels:
        The anonymization levels (values of ``k``) to sweep, in ascending
        order.  The paper sweeps k = 2..16.
    protection_threshold:
        ``Tp`` — minimum post-fusion dissimilarity for a level to be a
        candidate.  ``None`` disables the floor.
    utility_threshold:
        ``Tu`` — minimum release utility; the sweep stops once utility falls
        below it.  ``None`` disables the floor (the full sweep is evaluated).
    objective:
        The weighted protection/utility objective (``W1``, ``W2``,
        normalization).
    anonymizer:
        The basic anonymization scheme plugged into the sweep (MDAV by
        default, as in the paper's experiments).
    stop_below_utility:
        Mirror the paper's do/until loop by stopping the sweep at the first
        level whose utility drops below ``Tu``.  When False the whole sweep is
        evaluated regardless.
    parallelism:
        Number of worker processes evaluating anonymization levels.  ``1``
        (the default) keeps the serial sweep; larger values dispatch level
        evaluations across a process pool with a deterministic merge (see
        the module docstring).  With ``stop_below_utility`` set, levels past
        the stopping point may be evaluated speculatively but are discarded
        from the result.
    """

    levels: tuple[int, ...] = tuple(range(2, 17))
    protection_threshold: float | None = None
    utility_threshold: float | None = None
    objective: WeightedObjective = field(default_factory=WeightedObjective)
    anonymizer: BaseAnonymizer = field(default_factory=MDAVAnonymizer)
    stop_below_utility: bool = True
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.levels:
            raise FREDConfigurationError("the FRED sweep needs at least one level")
        if not all(_is_int(k) for k in self.levels):
            raise FREDConfigurationError("anonymization levels must be integers")
        if any(k < 1 for k in self.levels):
            raise FREDConfigurationError("anonymization levels must be >= 1")
        if list(self.levels) != sorted(self.levels):
            raise FREDConfigurationError("anonymization levels must be ascending")
        if len(set(self.levels)) != len(self.levels):
            raise FREDConfigurationError("anonymization levels must be distinct")
        if not _is_int(self.parallelism):
            raise FREDConfigurationError(
                f"parallelism must be an integer, got {self.parallelism!r}"
            )
        if self.parallelism < 1:
            raise FREDConfigurationError("parallelism must be >= 1")


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer (numpy integers count; bools do not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class LevelOutcome:
    """Everything FRED measured at one anonymization level."""

    level: int
    anonymization: AnonymizationResult
    attack: AttackResult
    protection_before: float
    protection_after: float
    information_gain: float
    utility: float
    meets_protection: bool
    meets_utility: bool

    @property
    def feasible(self) -> bool:
        """Whether the level satisfies both thresholds."""
        return self.meets_protection and self.meets_utility

    def to_dict(self) -> dict[str, object]:
        """A JSON-able view of the level's measurements (no table payloads).

        This is what the anonymization service returns from a finished FRED
        job: everything a client needs to plot the sweep or pick a level,
        without serializing the per-level release tables.
        """
        return {
            "level": self.level,
            "protection_before": float(self.protection_before),
            "protection_after": float(self.protection_after),
            "information_gain": float(self.information_gain),
            "utility": float(self.utility),
            "match_rate": float(self.attack.match_rate),
            "classes": len(self.anonymization.class_sizes),
            "minimum_class_size": int(self.anonymization.minimum_class_size),
            "meets_protection": bool(self.meets_protection),
            "meets_utility": bool(self.meets_utility),
            "feasible": bool(self.feasible),
        }


@dataclass
class FREDResult:
    """The full trace of a FRED sweep plus the selected optimum."""

    outcomes: list[LevelOutcome]
    scores: dict[int, float]
    optimal_level: int
    config: FREDConfig

    @property
    def optimal_outcome(self) -> LevelOutcome:
        """The outcome at the selected optimal level."""
        for outcome in self.outcomes:
            if outcome.level == self.optimal_level:
                return outcome
        raise FREDInfeasibleError("the optimal level is missing from the sweep trace")

    @property
    def optimal_release(self) -> Table:
        """The fusion-resilient release ``P'_{i_opt}``."""
        return self.optimal_outcome.anonymization.release

    def feasible_levels(self) -> list[int]:
        """Levels satisfying both thresholds (the paper's "solution space")."""
        return [outcome.level for outcome in self.outcomes if outcome.feasible]

    def series(self, name: str) -> list[float]:
        """A per-level series by name, for plotting/reporting.

        Known names: ``protection_before``, ``protection_after``,
        ``information_gain``, ``utility``, ``score``.
        """
        if name == "score":
            return [self.scores[outcome.level] for outcome in self.outcomes]
        if name not in (
            "protection_before",
            "protection_after",
            "information_gain",
            "utility",
        ):
            raise FREDConfigurationError(f"unknown series {name!r}")
        return [getattr(outcome, name) for outcome in self.outcomes]

    def to_dict(self) -> dict[str, object]:
        """A JSON-able view of the whole sweep (per-level metrics + optimum)."""
        return {
            "optimal_level": self.optimal_level,
            "feasible_levels": self.feasible_levels(),
            "scores": {str(o.level): float(self.scores[o.level]) for o in self.outcomes},
            "levels": [o.to_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        """Multi-line text report of the sweep (one row per level)."""
        lines = [
            "level  P∘P'(before)   P∘P̂(after)    gain G        utility U     H        feasible"
        ]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.level:>5}  {outcome.protection_before:>12.4g}  "
                f"{outcome.protection_after:>12.4g}  {outcome.information_gain:>12.4g}  "
                f"{outcome.utility:>12.4g}  {self.scores[outcome.level]:>7.4f}  "
                f"{'yes' if outcome.feasible else 'no'}"
            )
        lines.append(f"optimal level: k = {self.optimal_level}")
        return "\n".join(lines)


class _HarvestedSource(AuxiliarySource):
    """Detached stand-in for an auxiliary source whose harvest is precomputed.

    A sweep always holds the level-independent harvest, so process workers
    never query the auxiliary channel — every ``evaluate_level``
    call receives ``harvest=`` and :meth:`WebFusionAttack.run` skips the
    source entirely.  Shipping this stub instead of the real corpus keeps
    the per-worker pickle payload down to the private table and harvest
    (no corpus text, no linkage index replica).  Any accidental query is a
    loud error rather than a silently different adversary.
    """

    def __init__(self, attribute_names: Sequence[str]) -> None:
        self.attribute_names = tuple(attribute_names)

    def _detached(self, *_):
        raise AuxiliarySourceError(
            "auxiliary source was detached for the process sweep (its harvest "
            "is precomputed); name queries are not available in workers"
        )

    search = match = cells = record = _detached


# Per-process state for parallel sweeps: the shared sweep context
# (anonymizer, private table, harvest), unpickled once per worker from the
# initializer payload instead of once per submitted level.
_SWEEP_CONTEXT: dict[str, tuple] = {}


def _sweep_worker_init(payload: bytes) -> None:
    """Pool initializer: install the sweep context in this worker process."""
    _SWEEP_CONTEXT["current"] = pickle.loads(payload)


def _sweep_worker_evaluate(level: int):
    """Evaluate one level against the worker's installed sweep context."""
    anonymizer, private, harvest = _SWEEP_CONTEXT["current"]
    return anonymizer.evaluate_level(private, level, harvest=harvest)


class FREDAnonymizer:
    """Algorithm 1: iterative fusion-resilient anonymization.

    Parameters
    ----------
    source:
        The auxiliary channel ``Q`` the simulated adversary harvests from.
    attack_config:
        Configuration of the simulated fusion attack ``F`` (which inputs to
        fuse, assumed sensitive range, rules, engine).
    config:
        Sweep configuration (levels, thresholds, weights, base anonymizer).
    """

    def __init__(
        self,
        source: AuxiliarySource,
        attack_config: AttackConfig,
        config: FREDConfig | None = None,
    ) -> None:
        self.source = source
        self.attack_config = attack_config
        self.config = config or FREDConfig()

    # Harvest (level-independent) -------------------------------------------------

    def harvest(self, private: Table) -> tuple[list, Table]:
        """Run the linkage/harvest step once for a private table.

        Anonymizers preserve rows and row order, so the release identifier
        column equals the private table's at every level — one harvest serves
        the whole sweep.
        """
        names = [str(n) for n in private.identifier_column()]
        return WebFusionAttack(self.source, self.attack_config).harvest(names)

    # Single-level evaluation -----------------------------------------------------

    def evaluate_level(
        self,
        private: Table,
        level: int,
        harvest: tuple[list, Table] | None = None,
    ) -> LevelOutcome:
        """Anonymize to one level, simulate the attack, and measure everything.

        ``harvest`` injects the precomputed (level-independent) harvest; when
        omitted the attack harvests on the fly, as a standalone evaluation
        should.
        """
        anonymization = self.config.anonymizer.anonymize(private, level)
        attack = WebFusionAttack(self.source, self.attack_config).run(
            anonymization.release, harvest=harvest
        )
        assumed_range = self.attack_config.output_universe
        before = dissimilarity_before_fusion(
            private, anonymization.release, assumed_range
        )
        after = dissimilarity_after_fusion(
            private, anonymization.release, attack.estimates
        )
        utility = utility_of_result(anonymization)
        meets_protection = (
            self.config.protection_threshold is None
            or after >= self.config.protection_threshold
        )
        meets_utility = (
            self.config.utility_threshold is None
            or utility >= self.config.utility_threshold
        )
        return LevelOutcome(
            level=level,
            anonymization=anonymization,
            attack=attack,
            protection_before=before,
            protection_after=after,
            information_gain=before - after,
            utility=utility,
            meets_protection=meets_protection,
            meets_utility=meets_utility,
        )

    # Full sweep ------------------------------------------------------------------

    def sweep(
        self,
        private: Table,
        levels: Iterable[int] | None = None,
        harvest: tuple[list, Table] | None = None,
    ) -> list[LevelOutcome]:
        """Evaluate every level (honouring the utility stopping rule).

        The level-independent harvest is resolved **once** — taken from the
        ``harvest`` argument when provided (e.g. the service's memoized
        harvest), otherwise computed up front via :meth:`harvest` — and shared
        read-only by every level evaluation.

        With ``config.parallelism > 1`` the per-level evaluations — which are
        independent jobs — run concurrently on a process pool and are merged deterministically in level order; the utility stopping
        rule is applied to the merged sequence, so the returned outcomes are
        identical to a serial sweep's.
        """
        sweep_levels = list(levels if levels is not None else self.config.levels)
        if harvest is None:
            harvest = self.harvest(private)
        if self.config.parallelism <= 1 or len(sweep_levels) <= 1:
            outcomes_in_order = self._sweep_serial(private, sweep_levels, harvest)
        else:
            outcomes_in_order = self._sweep_parallel(private, sweep_levels, harvest)
        return self._apply_stop_rule(outcomes_in_order)

    def _sweep_serial(
        self,
        private: Table,
        levels: Sequence[int],
        harvest: tuple[list, Table],
    ) -> list[LevelOutcome]:
        """Evaluate levels one after another, honouring early stopping."""
        outcomes: list[LevelOutcome] = []
        for level in levels:
            outcome = self.evaluate_level(private, level, harvest=harvest)
            outcomes.append(outcome)
            if self._stops_sweep(outcome):
                break
        return outcomes

    def _sweep_parallel(
        self,
        private: Table,
        levels: Sequence[int],
        harvest: tuple[list, Table],
    ) -> list[LevelOutcome | BaseException]:
        """Evaluate all levels concurrently; results come back in level order.

        Levels past a utility stop are evaluated speculatively (the merge in
        :meth:`_apply_stop_rule` discards them), trading some wasted work for
        wall-clock speed — the merged result is bit-identical to serial.
        Per-level exceptions are captured rather than raised here: a failure
        at a level the serial loop would never have reached (e.g. an
        infeasible ``k`` past the utility stop) must not fail the sweep.
        """
        # Serialize the shared per-sweep state (anonymizer, private table,
        # harvest) exactly once and ship it through the pool initializer;
        # per-level submissions then carry only the level number.  Workers
        # only replay the precomputed harvest, so the real auxiliary corpus
        # (text + linkage index) stays behind.
        ship = FREDAnonymizer(
            _HarvestedSource(self.source.attribute_names),
            self.attack_config,
            self.config,
        )
        payload = pickle.dumps((ship, private, harvest), protocol=pickle.HIGHEST_PROTOCOL)
        with ProcessPoolExecutor(
            max_workers=min(self.config.parallelism, len(levels)),
            initializer=_sweep_worker_init,
            initargs=(payload,),
        ) as pool:
            futures = [pool.submit(_sweep_worker_evaluate, k) for k in levels]
            results: list[LevelOutcome | BaseException] = []
            for future in futures:
                try:
                    results.append(future.result())
                except Exception as error:
                    results.append(error)
            return results

    def _stops_sweep(self, outcome: LevelOutcome) -> bool:
        return (
            self.config.stop_below_utility
            and self.config.utility_threshold is not None
            and outcome.utility < self.config.utility_threshold
        )

    def _apply_stop_rule(
        self, outcomes: Sequence[LevelOutcome | BaseException]
    ) -> list[LevelOutcome]:
        """Truncate an in-order outcome sequence after the first utility stop.

        An exception entry re-raises only if it sits at or before the stop
        point — exactly the level where the serial loop would have raised.
        Speculatively-evaluated failures past the stop are discarded with the
        rest of the tail.
        """
        merged: list[LevelOutcome] = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            merged.append(outcome)
            if self._stops_sweep(outcome):
                break
        return merged

    def run(
        self, private: Table, harvest: tuple[list, Table] | None = None
    ) -> FREDResult:
        """Execute the full FRED optimization and return the sweep trace.

        ``harvest`` optionally injects a precomputed harvest (see
        :meth:`sweep`); otherwise the sweep harvests exactly once.
        """
        outcomes = self.sweep(private, harvest=harvest)
        if not outcomes:
            raise FREDInfeasibleError("the sweep evaluated no levels")

        protections = np.array([o.protection_after for o in outcomes])
        utilities = np.array([o.utility for o in outcomes])
        scores = self.config.objective.scores(protections, utilities)
        score_by_level = {o.level: float(s) for o, s in zip(outcomes, scores)}

        feasible = [o for o in outcomes if o.feasible]
        if not feasible:
            raise FREDInfeasibleError(
                "no anonymization level satisfies both the protection threshold "
                f"(Tp={self.config.protection_threshold}) and the utility threshold "
                f"(Tu={self.config.utility_threshold})"
            )
        optimal = max(feasible, key=lambda o: score_by_level[o.level])
        return FREDResult(
            outcomes=outcomes,
            scores=score_by_level,
            optimal_level=optimal.level,
            config=self.config,
        )
