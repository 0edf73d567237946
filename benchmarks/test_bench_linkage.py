"""Benchmark: the batched linkage engine vs the seed's scalar harvest.

The seed resolved every release name with a per-pair pure-Python loop —
first-letter blocking, then scalar Levenshtein / Jaro-Winkler / token-set
scoring per candidate — so harvesting N names against a corpus of size C cost
O(N x C/26) interpreted string comparisons, *per anonymization level*.  The
batched engine (:mod:`repro.linkage`) encodes the corpus once into padded
code matrices and resolves the whole query batch at once: vectorized filters
over every (query, row) pair, then vectorized kernels on the survivors.

``test_batched_harvest_speedup_vs_seed_loop`` is the acceptance gate: on a
10k-name corpus the batched harvest (index build included) must be **at least
10x faster** than the seed loop.  Set ``REPRO_BENCH_QUICK=1`` for the reduced
CI smoke variant (2k-name corpus, gate at 1x — batched must simply never be
slower).

``test_fred_sweep_harvests_exactly_once`` pins the second half of the win:
a FRED sweep performs exactly one harvest regardless of how many levels it
evaluates.

The seed matcher is re-implemented here from the public scalar primitives
(the original code no longer exists in the tree) so the baseline stays honest
as the engine evolves.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.data.faculty import FacultyConfig, generate_faculty
from repro.data.names import generate_names
from repro.data.webgen import corpus_for_faculty
from repro.fusion.attack import AttackConfig
from repro.fusion.auxiliary import AuxiliarySource
from repro.fusion.web import name_variant
from repro.linkage import LinkageIndex, normalize_name

# The scalar similarity reference lives in tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from linkage_reference import name_similarity  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
CORPUS_SIZE = 2_000 if QUICK else 10_000
QUERY_COUNT = 200 if QUICK else 1_000
REQUIRED_SPEEDUP = 1.0 if QUICK else 10.0
#: The seed loop is timed on a query subsample and extrapolated; the batched
#: path is timed on the full query batch (index build included).
SCALAR_SAMPLE = 10 if QUICK else 25
THRESHOLD = 0.82


def _seed_harvest(corpus_names, queries, threshold=THRESHOLD):
    """The seed's scalar linkage loop: first-letter blocking + per-pair scores."""
    normalized = [normalize_name(name) for name in corpus_names]
    blocks: dict[str, list[int]] = {}
    for index, name in enumerate(normalized):
        for token in name.split():
            blocks.setdefault(token[0], []).append(index)
    results = []
    for query in queries:
        normalized_query = normalize_name(query)
        if not normalized_query:
            results.append(None)
            continue
        indices: set[int] = set()
        for token in normalized_query.split():
            indices.update(blocks.get(token[0], []))
        best_index, best_score = None, threshold
        for index in sorted(indices):
            score = name_similarity(normalized_query, normalized[index])
            if score > best_score or (score == best_score and best_index is None):
                best_index, best_score = index, score
        results.append(best_index)
    return results


@pytest.fixture(scope="module")
def linkage_corpus():
    """A large name corpus plus realistic web-style query variants."""
    corpus_names = generate_names(CORPUS_SIZE, seed=3)
    rng = np.random.default_rng(11)
    picks = rng.choice(CORPUS_SIZE, size=QUERY_COUNT, replace=False)
    queries = [name_variant(corpus_names[i], rng) for i in picks]
    return corpus_names, queries


def test_bench_index_build(benchmark, linkage_corpus):
    """One-time cost of encoding + blocking the corpus."""
    corpus_names, _ = linkage_corpus
    index = benchmark(LinkageIndex, corpus_names, THRESHOLD)
    assert index.size == CORPUS_SIZE
    benchmark.extra_info["corpus"] = CORPUS_SIZE


def test_bench_match_many(benchmark, linkage_corpus):
    """Throughput of the batched harvest over the full query batch."""
    corpus_names, queries = linkage_corpus
    index = LinkageIndex(corpus_names, threshold=THRESHOLD)
    rows, _ = benchmark(index.match_many, queries)
    assert rows.shape == (QUERY_COUNT,)
    benchmark.extra_info["queries"] = QUERY_COUNT
    benchmark.extra_info["queries_per_second"] = round(
        QUERY_COUNT / benchmark.stats.stats.mean
    )


def test_batched_harvest_speedup_vs_seed_loop(linkage_corpus, bench_gate):
    """Acceptance gate: batched harvest >= 10x the seed scalar loop (1x quick)."""
    corpus_names, queries = linkage_corpus

    start = time.perf_counter()
    index = LinkageIndex(corpus_names, threshold=THRESHOLD)
    rows, _ = index.match_many(queries)
    batched_seconds = time.perf_counter() - start

    sample = queries[:SCALAR_SAMPLE]
    start = time.perf_counter()
    seed_matches = _seed_harvest(corpus_names, sample)
    scalar_seconds = (time.perf_counter() - start) * (QUERY_COUNT / len(sample))

    # The engines must agree on the sample before their speeds are compared.
    for query, row, seed_index in zip(sample, rows.tolist(), seed_matches):
        assert row == (-1 if seed_index is None else seed_index), query

    speedup = scalar_seconds / batched_seconds
    bench_gate(
        "linkage-harvest-vs-seed-loop",
        corpus=CORPUS_SIZE,
        queries=QUERY_COUNT,
        batched_seconds=round(batched_seconds, 4),
        seed_seconds_extrapolated=round(scalar_seconds, 4),
        speedup=round(speedup, 2),
        required=REQUIRED_SPEEDUP,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched harvest is only {speedup:.1f}x the seed loop on a "
        f"{CORPUS_SIZE}-name corpus (required {REQUIRED_SPEEDUP:.0f}x): "
        f"batched {batched_seconds:.3f}s vs seed {scalar_seconds:.3f}s (extrapolated)"
    )


class _CountingSource(AuxiliarySource):
    """Wraps an auxiliary source and counts harvest passes."""

    def __init__(self, inner):
        self.inner = inner
        self.attribute_names = inner.attribute_names
        self.batch_calls = 0
        self.search_calls = 0

    def search(self, name):
        self.search_calls += 1
        return self.inner.search(name)

    def match(self, names):
        self.batch_calls += 1
        return self.inner.match(names)

    def cells(self, attribute, rows):
        return self.inner.cells(attribute, rows)

    def record(self, row, confidence, attributes):
        return self.inner.record(row, confidence, attributes)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_fred_sweep_harvests_exactly_once(parallelism):
    """A sweep pays the linkage cost once, no matter how many levels it runs."""
    population = generate_faculty(FacultyConfig(count=30, seed=5))
    source = _CountingSource(corpus_for_faculty(population, distractor_count=5))
    attack_config = AttackConfig(
        release_inputs=("research_score", "teaching_score", "service_score", "years_of_service"),
        auxiliary_inputs=("property_holdings", "employment_seniority"),
        output_name="salary",
        output_universe=population.assumed_salary_range,
    )
    levels = (2, 3, 4, 6, 8)
    config = FREDConfig(
        levels=levels, stop_below_utility=False, parallelism=parallelism
    )
    result = FREDAnonymizer(source, attack_config, config).run(population.private)
    assert len(result.outcomes) == len(levels)
    assert source.batch_calls == 1, "the sweep must harvest exactly once"
    assert source.search_calls == 0

