"""Convenience builders for simulated web corpora matched to generated populations.

The generators in this package produce a private table plus per-person web
profile ground truth; this module turns those profiles into a
:class:`~repro.fusion.web.SimulatedWebCorpus` with the noise/coverage knobs the
experiments sweep, and exposes one-call builders for the faculty and customer
populations.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.customers import CustomerPopulation
from repro.data.faculty import FacultyPopulation
from repro.fusion.web import SimulatedWebCorpus

__all__ = [
    "build_corpus",
    "corpus_for_faculty",
    "corpus_for_customers",
]


def build_corpus(
    profiles: Sequence[dict[str, object]],
    attribute_names: Sequence[str],
    noise_level: float = 0.05,
    coverage: float = 1.0,
    name_variant_probability: float = 0.5,
    distractor_count: int = 0,
    seed: int = 0,
) -> SimulatedWebCorpus:
    """Build a simulated web corpus from profile ground truth."""
    return SimulatedWebCorpus.from_profiles(
        profiles=profiles,
        attribute_names=attribute_names,
        noise_level=noise_level,
        coverage=coverage,
        name_variant_probability=name_variant_probability,
        distractor_count=distractor_count,
        seed=seed,
    )


def corpus_for_faculty(
    population: FacultyPopulation,
    noise_level: float = 0.05,
    coverage: float = 0.95,
    name_variant_probability: float = 0.5,
    distractor_count: int = 25,
    seed: int | None = None,
) -> SimulatedWebCorpus:
    """The default web corpus for a faculty population (employee home pages)."""
    return build_corpus(
        population.profiles,
        population.auxiliary_attributes,
        noise_level=noise_level,
        coverage=coverage,
        name_variant_probability=name_variant_probability,
        distractor_count=distractor_count,
        seed=population.config.seed if seed is None else seed,
    )


def corpus_for_customers(
    population: CustomerPopulation,
    noise_level: float = 0.08,
    coverage: float = 0.85,
    name_variant_probability: float = 0.6,
    distractor_count: int = 40,
    seed: int | None = None,
) -> SimulatedWebCorpus:
    """The default web corpus for a customer population (social/professional pages)."""
    return build_corpus(
        population.profiles,
        population.auxiliary_attributes,
        noise_level=noise_level,
        coverage=coverage,
        name_variant_probability=name_variant_probability,
        distractor_count=distractor_count,
        seed=population.config.seed if seed is None else seed,
    )
