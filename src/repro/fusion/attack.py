"""The Web-Based Information-Fusion Attack (Figure 1 of the paper).

The attack pipeline takes an anonymized enterprise release ``P'`` (identifiers
kept, quasi-identifiers generalized, sensitive column dropped) and an auxiliary
source (the simulated web), and produces an estimate ``P̂`` of the sensitive
attribute for every release record:

1. **Harvest** — use the identifiers in the release to query the auxiliary
   source; keep the best-linked record per person (Table IV of the paper).
2. **Assemble** — merge the numeric representatives of the release
   quasi-identifiers (interval midpoints) with the harvested auxiliary
   attributes into one crisp input record per person.
3. **Calibrate** — build linguistic variables for every fusion input from the
   observed marginals (or explicit ranges), and for the output from the
   adversary's assumed sensitive range (Section I's ``[$40,000 - $100,000]``).
4. **Fuse** — evaluate a fuzzy inference system (Mamdani by default, Sugeno as
   an ablation) or a non-fuzzy estimator over the merged inputs.

The result bundles ``P̂`` with the harvested auxiliary table and the fusion
system itself so downstream metrics (dissimilarity, information gain) and the
FRED optimizer can consume it.

Batch data layout
-----------------
The fusion step is fully vectorized.  :meth:`WebFusionAttack.assemble_columns`
builds one ``(N,)`` float array per fusion input — release quasi-identifiers
come straight from :meth:`repro.dataset.table.Table.numeric_columns` (interval
midpoints; NaN for suppressed cells) and auxiliary inputs from the harvest's
cached :meth:`~repro.fusion.auxiliary.HarvestRecords.numeric_column` arrays
(NaN when a person has no web match or the attribute is absent).  The fuzzy
engines fuzzify a NaN cell to full membership in every term.  That column
block is the only input layout: the built-in engines and a custom
:class:`~repro.fusion.estimators.SensitiveEstimator` all get it through
``evaluate_batch``, and no per-record dicts are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.dataset.table import Table
from repro.exceptions import AttackConfigurationError
from repro.fusion.auxiliary import (
    AuxiliaryRecord,
    AuxiliarySource,
    HarvestRecords,
    auxiliary_table,
)
from repro.fusion.estimators import SensitiveEstimator
from repro.fusion.rulegen import monotone_rules
from repro.fuzzy.batch import as_columns
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.rules import FuzzyRule, parse_rules
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable

__all__ = [
    "AttackConfig",
    "AttackResult",
    "WebFusionAttack",
    "build_income_fusion_system",
    "harvest_auxiliary",
]

_DEFAULT_TERMS = ("low", "medium", "high")


def _require_finite(field_name: str, bounds: Sequence[float]) -> None:
    """Reject a range whose bounds are not finite numbers, naming the field."""
    try:
        finite = all(math.isfinite(float(bound)) for bound in bounds)
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise AttackConfigurationError(
            f"{field_name} bounds must be finite numbers, got {bounds!r}"
        )


@dataclass
class AttackConfig:
    """Configuration of a web-based information-fusion attack.

    Parameters
    ----------
    release_inputs:
        Names of release quasi-identifier columns used as fusion inputs.
    auxiliary_inputs:
        Names of auxiliary attributes harvested from the web source.
    output_name:
        Name of the sensitive attribute being estimated (``income``/``salary``).
    output_universe:
        The adversary's assumed range of the sensitive attribute.
    output_ranges:
        Optional explicit linguistic ranges for the output (paper Section I:
        ``{"low": (40e3, 60e3), "medium": (60e3, 80e3), "high": (80e3, 100e3)}``).
        When omitted, terms are spread uniformly over ``output_universe``.
    input_ranges:
        Optional fixed universes for individual inputs, e.g. ``{"valuation":
        (1, 10)}``.  An input with a fixed range gets evenly spaced terms over
        that range — this models the adversary's *domain knowledge* of the
        attribute scale (the paper's Figure 2 uses fixed ranges such as
        ``Level 1 – [1-3]``).  Inputs without a fixed range are calibrated from
        the observed marginal distribution instead.
    input_terms / output_terms:
        Linguistic term names for inputs and output.
    rules:
        Explicit rule objects.  When neither ``rules`` nor ``rule_texts`` is
        given, ordinal "monotone" rules are generated automatically from
        ``directions``.
    rule_texts:
        Rules in the textual ``IF ... THEN ...`` language.
    directions:
        Per-input monotonicity (+1 / -1) used by the automatic rule generator
        and the rank-scaling baseline.
    engine:
        ``"mamdani"`` (paper), ``"sugeno"``, or ``"custom"`` (use ``estimator``).
    estimator:
        A pre-built :class:`~repro.fusion.estimators.SensitiveEstimator` used
        when ``engine == "custom"``.  It gets the same column block as the
        built-in engines and must return one estimate per release record.
    defuzzification:
        Defuzzification strategy for the Mamdani engine.
    input_term_count:
        Number of quantile-calibrated terms per input variable.
    """

    release_inputs: tuple[str, ...]
    auxiliary_inputs: tuple[str, ...]
    output_name: str
    output_universe: tuple[float, float]
    output_ranges: Mapping[str, tuple[float, float]] | None = None
    input_ranges: Mapping[str, tuple[float, float]] | None = None
    input_terms: tuple[str, ...] = _DEFAULT_TERMS
    output_terms: tuple[str, ...] = _DEFAULT_TERMS
    rules: Sequence[FuzzyRule] | None = None
    rule_texts: Sequence[str] | None = None
    directions: Mapping[str, int] = field(default_factory=dict)
    engine: str = "mamdani"
    estimator: SensitiveEstimator | None = None
    defuzzification: str = "centroid"
    input_term_count: int = 3

    def __post_init__(self) -> None:
        if not self.release_inputs and not self.auxiliary_inputs:
            raise AttackConfigurationError(
                "the attack needs at least one release or auxiliary input"
            )
        _require_finite("output_universe", self.output_universe)
        for field_name in ("input_ranges", "output_ranges"):
            for name, bounds in (getattr(self, field_name) or {}).items():
                _require_finite(f"{field_name}[{name!r}]", bounds)
        if self.output_universe[0] >= self.output_universe[1]:
            raise AttackConfigurationError("output_universe must satisfy low < high")
        if self.engine not in ("mamdani", "sugeno", "custom"):
            raise AttackConfigurationError(f"unknown fusion engine: {self.engine!r}")
        if self.engine == "custom" and self.estimator is None:
            raise AttackConfigurationError("engine='custom' requires an estimator")
        if self.rules is not None and self.rule_texts is not None:
            raise AttackConfigurationError("pass either rules or rule_texts, not both")
        if self.input_term_count < 2:
            raise AttackConfigurationError("input_term_count must be at least 2")

    @property
    def all_inputs(self) -> tuple[str, ...]:
        """Release inputs followed by auxiliary inputs."""
        return tuple(self.release_inputs) + tuple(self.auxiliary_inputs)


@dataclass
class AttackResult:
    """Outcome of one fusion attack on one release."""

    estimates: np.ndarray
    matched: list[bool]
    auxiliary: Table
    system: object
    config: AttackConfig

    @property
    def match_rate(self) -> float:
        """Fraction of release records for which auxiliary data was found."""
        if not self.matched:
            return 0.0
        return sum(self.matched) / len(self.matched)


def harvest_auxiliary(
    source: AuxiliarySource,
    names: Sequence[str],
    attribute_names: Sequence[str],
) -> tuple[list[AuxiliaryRecord | None], Table]:
    """Resolve every name against the auxiliary source in one batched pass.

    This is step 1 of the attack (and its linkage-dominated hot path): the
    whole identifier column goes through
    :meth:`~repro.fusion.auxiliary.AuxiliarySource.harvest_records`, so a
    source backed by a :class:`~repro.linkage.LinkageIndex` amortizes
    blocking and batch scoring across the release, and columnar sources
    attach array-gathered numeric fact columns that the assemble step reads
    directly.  Returns the per-name best records
    (a :class:`~repro.fusion.auxiliary.HarvestRecords` list, ``None`` where
    nothing linked) plus the harvested auxiliary table (paper Table IV).
    The harvest depends only on the identifier column and the source — not on
    the anonymization level — so callers sweeping levels (FRED, the service)
    compute it once and pass it to :meth:`WebFusionAttack.run`.
    """
    queried = [str(name) for name in names]
    harvested = source.harvest_records(queried)
    found = [
        AuxiliaryRecord(
            name=name,
            attributes=record.attributes,
            confidence=record.confidence,
            source=record.source,
        )
        for name, record in zip(queried, harvested)
        if record is not None
    ]
    table = auxiliary_table(found, list(attribute_names))
    return harvested, table


def build_income_fusion_system(
    input_variables: Mapping[str, LinguisticVariable],
    output_variable: LinguisticVariable,
    rules: Sequence[FuzzyRule],
    engine: str = "mamdani",
    defuzzification: str = "centroid",
) -> MamdaniSystem | SugenoSystem:
    """Assemble the Figure-2 style fusion system from calibrated variables and rules."""
    if engine == "mamdani":
        return MamdaniSystem(
            inputs=dict(input_variables),
            output=output_variable,
            rules=list(rules),
            defuzzification=defuzzification,
        )
    if engine == "sugeno":
        return SugenoSystem(
            inputs=dict(input_variables), output=output_variable, rules=list(rules)
        )
    raise AttackConfigurationError(f"unknown fusion engine: {engine!r}")


class WebFusionAttack:
    """End-to-end web-based information-fusion attack.

    Parameters
    ----------
    source:
        The auxiliary channel (simulated web corpus, table of harvested data, ...).
    config:
        Attack configuration.
    """

    def __init__(self, source: AuxiliarySource, config: AttackConfig) -> None:
        self.source = source
        self.config = config

    # Pipeline steps -------------------------------------------------------------

    def harvest(self, names: Sequence[str]) -> tuple[list[AuxiliaryRecord | None], Table]:
        """Query the auxiliary source for every name; best record or ``None`` each.

        Delegates to :func:`harvest_auxiliary`, which resolves the whole name
        batch through the source's batched lookup path.
        """
        return harvest_auxiliary(self.source, names, self.config.auxiliary_inputs)

    def assemble_columns(
        self, release: Table, harvested: HarvestRecords
    ) -> dict[str, np.ndarray]:
        """Merge release and harvested inputs column-wise into ``(N,)`` arrays.

        Release inputs resolve generalized cells to numeric representatives
        (NaN when suppressed); auxiliary inputs are NaN wherever the harvest
        found nothing.  This is the batch layout the fusion engines consume.
        The harvest hands its auxiliary columns over as cached arrays
        (gathered once per harvest, shared across every level of a sweep).
        """
        missing = [
            name for name in self.config.release_inputs if name not in release.schema
        ]
        if missing:
            raise AttackConfigurationError(
                f"release is missing configured input columns: {missing}"
            )
        columns = release.numeric_columns(self.config.release_inputs)
        for name in self.config.auxiliary_inputs:
            columns[name] = harvested.numeric_column(name).copy()
        return columns

    def calibrate_variables(
        self, columns: Mapping[str, np.ndarray]
    ) -> tuple[dict[str, LinguisticVariable], LinguisticVariable]:
        """Build input variables from observed marginals and the output variable.

        ``columns`` is the column block of :meth:`assemble_columns`; inputs
        without a fixed range are quantile-calibrated from the non-NaN
        entries of their column.
        """
        _, columns = as_columns(columns, self.config.all_inputs)
        term_names = tuple(self.config.input_terms)[: max(self.config.input_term_count, 2)]
        if len(term_names) < self.config.input_term_count:
            term_names = tuple(
                f"level{i + 1}" for i in range(self.config.input_term_count)
            )
        fixed_ranges = dict(self.config.input_ranges or {})
        inputs: dict[str, LinguisticVariable] = {}
        for name in self.config.all_inputs:
            if name in fixed_ranges:
                inputs[name] = LinguisticVariable.with_uniform_terms(
                    name, fixed_ranges[name], term_names
                )
                continue
            column = columns[name]
            values = column[~np.isnan(column)]
            if values.size >= 2:
                inputs[name] = LinguisticVariable.from_values(name, values, term_names)
            else:
                inputs[name] = LinguisticVariable.with_uniform_terms(
                    name, (0.0, 1.0), term_names
                )
        if self.config.output_ranges is not None:
            output = LinguisticVariable.from_ranges(
                self.config.output_name, self.config.output_ranges
            )
        else:
            output = LinguisticVariable.with_uniform_terms(
                self.config.output_name,
                self.config.output_universe,
                tuple(self.config.output_terms),
            )
        return inputs, output

    def build_rules(
        self,
        inputs: Mapping[str, LinguisticVariable],
        output: LinguisticVariable,
    ) -> list[FuzzyRule]:
        """Resolve the rule base: explicit rules, textual rules, or monotone rules."""
        if self.config.rules is not None:
            return list(self.config.rules)
        if self.config.rule_texts is not None:
            return parse_rules(self.config.rule_texts, output_variable=output.name)
        return monotone_rules(inputs, output, directions=self.config.directions)

    # End-to-end ---------------------------------------------------------------------

    def run(
        self,
        release: Table,
        harvest: tuple[list[AuxiliaryRecord | None], Table] | None = None,
    ) -> AttackResult:
        """Execute the attack on a release and return the adversary's estimates.

        The fusion inputs are assembled and evaluated column-wise (see the
        module docstring's *Batch data layout*).  Whatever the engine, the
        estimates must have one value per release record.

        ``harvest`` injects a precomputed harvest (the ``(records, table)``
        pair returned by :meth:`harvest` / :func:`harvest_auxiliary` for this
        release's identifier column).  The harvest is level-independent, so
        FRED sweeps and the service compute it once and reuse it across every
        release of the same dataset.
        """
        names = [str(n) for n in release.identifier_column()]
        if harvest is None:
            harvest = self.harvest(names)
        harvested, harvested_table = harvest
        if len(harvested) != len(names):
            raise AttackConfigurationError(
                f"precomputed harvest covers {len(harvested)} names but the "
                f"release has {len(names)} records"
            )
        # The harvested table's identifier column holds the queried names in
        # match order; it must agree with this release's matched rows, or the
        # harvest was built for a different (e.g. row-reordered) release.
        matched_names = [n for n, record in zip(names, harvested) if record is not None]
        if matched_names != [str(n) for n in harvested_table.identifier_column()]:
            raise AttackConfigurationError(
                "precomputed harvest does not align with the release's "
                "identifier column (was it harvested for a different row order?)"
            )
        if not isinstance(harvested, HarvestRecords):
            harvested = HarvestRecords(harvested)
        columns = self.assemble_columns(release, harvested)

        if self.config.engine == "custom":
            system: object = self.config.estimator
            estimates = self.config.estimator.evaluate_batch(columns)
        else:
            inputs, output = self.calibrate_variables(columns)
            rules = self.build_rules(inputs, output)
            system = build_income_fusion_system(
                inputs,
                output,
                rules,
                engine=self.config.engine,
                defuzzification=self.config.defuzzification,
            )
            estimates = system.evaluate_batch(columns)
        estimates = np.asarray(estimates, dtype=float)
        if estimates.shape != (len(names),):
            raise AttackConfigurationError(
                f"the fusion estimator returned estimates of shape {estimates.shape}; "
                f"expected ({len(names)},), one per release record"
            )

        return AttackResult(
            estimates=estimates,
            matched=[record is not None for record in harvested],
            auxiliary=harvested_table,
            system=system,
            config=self.config,
        )
