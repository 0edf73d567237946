"""Benchmark: vectorized corpus synthesis vs the seed's per-profile loop.

The seed built the simulated web corpus one profile at a time — four RNG
calls, a fact dict and a ``WebPage`` dataclass per person — which is fine at
10k pages and a bottleneck at millions.  The vectorized
:meth:`~repro.fusion.web.SimulatedWebCorpus.from_profiles` draws every
coverage/variant/noise value in one RNG pass, stores facts as column arrays
and materializes ``WebPage`` views lazily (the linkage index is also lazy, so
corpus construction is pure data-plane work).

``test_corpus_build_speedup_vs_seed_loop`` is the acceptance gate: building a
corpus from 100k profiles must be **at least 5x faster** than the seed loop.
Set ``REPRO_BENCH_QUICK=1`` for the reduced CI smoke variant (10k profiles,
gate at 1x — vectorized must simply never be slower).  Both builders are
timed best-of-3, interleaved.

The seed builder is re-implemented here from the public pieces (the original
code no longer exists in the tree) so the baseline stays honest as the corpus
evolves; it reproduces the historical per-profile draw order exactly, which
the vectorized path deliberately abandoned (one bulk pass; golden tests were
re-baselined with it).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.fusion.attack import harvest_auxiliary
from repro.fusion.web import SimulatedWebCorpus, WebPage, name_variant

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
PROFILE_COUNT = 10_000 if QUICK else 100_000
REQUIRED_SPEEDUP = 1.0 if QUICK else 5.0
ROUNDS = 3
ATTRIBUTES = ("employment_seniority", "property_holdings", "external_activity")
NOISE = 0.05
COVERAGE = 0.9
VARIANT_PROBABILITY = 0.5
DISTRACTORS = 50
SEED = 23


def _seed_corpus_pages(profiles, attribute_names, rng) -> list[WebPage]:
    """The seed's page builder: per-profile draws, fact dicts, eager pages."""
    pages: list[WebPage] = []
    for index, profile in enumerate(profiles):
        if rng.random() > COVERAGE:
            continue
        name = str(profile["name"])
        displayed = (
            name_variant(name, rng) if rng.random() < VARIANT_PROBABILITY else name
        )
        facts: dict[str, float | str] = {}
        for attribute in attribute_names:
            value = profile.get(attribute)
            if value is None:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                facts[attribute] = float(value) * (1.0 + rng.normal(0.0, NOISE))
            else:
                facts[attribute] = str(value)
        for extra_key in ("employer", "position"):
            if extra_key in profile and extra_key not in facts:
                facts[extra_key] = str(profile[extra_key])
        pages.append(
            WebPage(
                owner=name,
                displayed_name=displayed,
                url=f"https://people.example.edu/~person{index}",
                facts=facts,
            )
        )
    for d in range(DISTRACTORS):
        fake = f"D{d} Distractor"
        pages.append(
            WebPage(
                owner=fake,
                displayed_name=fake,
                url=f"https://blogs.example.com/post{d}",
                facts={a: float(rng.uniform(0.0, 1.0)) for a in attribute_names},
            )
        )
    return pages


@pytest.fixture(scope="module")
def profiles():
    """Synthetic ground-truth profiles at benchmark scale."""
    rng = np.random.default_rng(7)
    seniority = rng.uniform(1, 40, PROFILE_COUNT)
    holdings = rng.uniform(50_000, 900_000, PROFILE_COUNT)
    activity = rng.uniform(1, 10, PROFILE_COUNT)
    return [
        {
            "name": f"Person{i // 997} Number{i}",
            "employer": "State University",
            "position": "Professor",
            "employment_seniority": float(seniority[i]),
            "property_holdings": float(holdings[i]),
            "external_activity": float(activity[i]),
        }
        for i in range(PROFILE_COUNT)
    ]


def test_bench_from_profiles(benchmark, profiles):
    """Throughput of the vectorized corpus build."""
    corpus = benchmark(
        lambda: SimulatedWebCorpus.from_profiles(
            profiles,
            ATTRIBUTES,
            noise_level=NOISE,
            coverage=COVERAGE,
            name_variant_probability=VARIANT_PROBABILITY,
            distractor_count=DISTRACTORS,
            seed=SEED,
        )
    )
    assert corpus.size > 0
    benchmark.extra_info["profiles"] = PROFILE_COUNT
    benchmark.extra_info["pages"] = corpus.size


def test_corpus_build_speedup_vs_seed_loop(profiles, bench_gate):
    """Acceptance gate: vectorized build >= 5x the seed loop (1x quick)."""
    # Best of ROUNDS, interleaved, so one scheduler hiccup on a shared host
    # cannot sink either builder's time.
    vectorized_seconds = seed_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        corpus = SimulatedWebCorpus.from_profiles(
            profiles,
            ATTRIBUTES,
            noise_level=NOISE,
            coverage=COVERAGE,
            name_variant_probability=VARIANT_PROBABILITY,
            distractor_count=DISTRACTORS,
            seed=SEED,
        )
        vectorized_seconds = min(vectorized_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        seed_pages = _seed_corpus_pages(profiles, ATTRIBUTES, np.random.default_rng(SEED))
        seed_seconds = min(seed_seconds, time.perf_counter() - start)

    # Sanity: both builders produce a full-scale corpus (draw orders differ,
    # so page sets are not identical, but coverage statistics must agree).
    expected = PROFILE_COUNT * COVERAGE
    assert abs((corpus.size - DISTRACTORS) - expected) < PROFILE_COUNT * 0.02
    assert abs((len(seed_pages) - DISTRACTORS) - expected) < PROFILE_COUNT * 0.02
    # The columnar corpus serves the same page content through its lazy views.
    sample = corpus.pages[0]
    assert set(ATTRIBUTES) <= set(sample.facts)
    assert sample.facts["employer"] == "State University"

    speedup = seed_seconds / vectorized_seconds
    bench_gate(
        "corpus-build-vectorized",
        profiles=PROFILE_COUNT,
        pages=corpus.size,
        vectorized_seconds=round(vectorized_seconds, 4),
        seed_loop_seconds=round(seed_seconds, 4),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
        rounds=ROUNDS,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized corpus build is only {speedup:.1f}x the seed loop on "
        f"{PROFILE_COUNT} profiles (required {REQUIRED_SPEEDUP:.0f}x): "
        f"vectorized {vectorized_seconds:.3f}s vs seed {seed_seconds:.3f}s"
    )


def test_harvest_block_gathers_from_columns(profiles):
    """The corpus harvest gathers Table IV's fact columns from storage."""
    corpus = SimulatedWebCorpus.from_profiles(
        profiles[:200],
        ATTRIBUTES,
        noise_level=NOISE,
        coverage=1.0,
        name_variant_probability=0.0,
        seed=SEED,
    )
    names = [str(p["name"]) for p in profiles[:50]]
    records, table = harvest_auxiliary(corpus, names, ATTRIBUTES)
    assert len(records) == 50
    matched = [r is not None for r in records]
    assert table.num_rows == sum(matched)
    for attribute in ATTRIBUTES:
        column = table.column_array(attribute)
        assert column.dtype == np.float64
        assert np.isfinite(column).all()
