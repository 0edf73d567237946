"""Builders that only the tests use.

None of these is on a FRED, attack or service path: the naive release is a
comparison baseline for the attack and dissimilarity tests, the census
corpus feeds the census linkage golden test and the generator tests, and the
Gaussian shape gives the fuzzy property suites a smooth membership function
next to the piecewise-linear ones the library builds.  The one-cell helpers
below (``contains``, ``generalize_value``, ``numeric_attribute``) are the scalar
forms the tests assert with; the library only works on whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.anonymize.base import AnonymizationResult
from repro.data.census import CensusPopulation
from repro.data.webgen import build_corpus
from repro.dataset.generalization import SUPPRESSED, CategorySet, Interval
from repro.dataset.hierarchy import NumericHierarchy
from repro.dataset.table import Table
from repro.exceptions import FuzzyDefinitionError
from repro.fusion.auxiliary import AuxiliaryRecord
from repro.fusion.web import SimulatedWebCorpus
from repro.fuzzy.membership import MembershipFunction


def drop_sensitive(table: Table) -> Table:
    """Release strategy 1: publish identifiers + exact QIs, drop the sensitive column."""
    return table.release_view(keep_sensitive=False)


def naive_release(table: Table) -> AnonymizationResult:
    """The "remove the salary column, publish the rest" strategy as a result object.

    Every record is its own equivalence class (k = 1), which lets the naive
    release flow through the same metrics and attack pipeline as the real
    anonymizations — this is the weakest baseline in the experiments.
    """
    return AnonymizationResult(
        original=table,
        release=drop_sensitive(table),
        labels=np.arange(table.num_rows),
        k=1,
        anonymizer="naive",
    )


def corpus_for_census(
    population: CensusPopulation,
    noise_level: float = 0.1,
    coverage: float = 0.7,
    name_variant_probability: float = 0.5,
    distractor_count: int = 50,
    seed: int | None = None,
) -> SimulatedWebCorpus:
    """The default web corpus for a census-like population (property/registry pages)."""
    return build_corpus(
        population.profiles,
        population.auxiliary_attributes,
        noise_level=noise_level,
        coverage=coverage,
        name_variant_probability=name_variant_probability,
        distractor_count=distractor_count,
        seed=population.config.seed if seed is None else seed,
    )


@dataclass(frozen=True)
class GaussianMF(MembershipFunction):
    """Gaussian membership function (``gaussmf``) centred at ``mean`` with width ``sigma``."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise FuzzyDefinitionError(f"gaussian MF requires sigma > 0, got {self.sigma}")

    def __call__(self, values: np.ndarray | float) -> np.ndarray | float:
        values = np.asarray(values, dtype=float)
        return np.exp(-0.5 * ((values - self.mean) / self.sigma) ** 2)


def contains(cell: Interval | CategorySet, value: object) -> bool:
    """Whether a generalized cell covers ``value``: a closed interval or a member set."""
    if isinstance(cell, CategorySet):
        return str(value) in cell.members
    return cell.low <= value <= cell.high


def generalize_value(hierarchy: NumericHierarchy, value: object, level: int) -> object:
    """One value through ``hierarchy`` at ``level``: the scalar reference of
    :meth:`~repro.dataset.hierarchy.NumericHierarchy.generalize_column`.

    Level ``0`` returns the value unchanged; the maximum level returns
    :data:`~repro.dataset.generalization.SUPPRESSED`; values outside the
    domain are clamped into it before binning.
    """
    hierarchy._check_level(level)
    if level == 0:
        return value
    if level == hierarchy.levels - 1:
        return SUPPRESSED
    numeric = min(max(float(value), hierarchy.low), hierarchy.high)
    width = hierarchy.width_at(level)
    bin_index = math.floor((numeric - hierarchy.low) / width)
    return hierarchy._bin_interval(bin_index, width)


def numeric_attribute(record: AuxiliaryRecord, name: str) -> float | None:
    """A record's numeric attribute, or ``None`` if absent or text."""
    value = record.attributes.get(name)
    if value is None or isinstance(value, str):
        return None
    return float(value)
