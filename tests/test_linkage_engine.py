"""Tests of the batched record-linkage engine (:mod:`repro.linkage`).

Covers the four contracts of the engine refactor:

* **Golden match equivalence** — the batched engine reproduces the seed
  name matcher's best matches on the faculty and census corpora (the seed
  matcher — first-letter blocking plus the scalar similarity loop — is
  re-implemented here from the public scalar primitives, as the benchmarks do,
  so the baseline stays honest as the engine evolves).
* **Normalization** — accents NFKD-fold onto base letters instead of being
  dropped ("José Müller" no longer mangles into "jos m ller").
* **Blocking recall** — q-gram multi-key blocking still finds matches whose
  every token carries a first-character typo (silently lost by the historical
  first-letter scheme), and its candidate sets are supersets of that scheme's.
* **Harvest hoisting** — a FRED sweep performs exactly one harvest regardless
  of level count, and an injected harvest reproduces the on-the-fly result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.core.fred import FREDAnonymizer, FREDConfig
from repro.data.census import CensusConfig, generate_census
from repro.data.faculty import FacultyConfig, generate_faculty
from repro.data.webgen import corpus_for_faculty
from repro.fusion.attack import AttackConfig, WebFusionAttack
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.fusion.auxiliary import AuxiliarySource, TableAuxiliarySource
from repro.fusion.web import name_variant
from repro.linkage import BlockingIndex, LinkageIndex, normalize_name

from builders import corpus_for_census
from linkage_reference import answers, best_match, name_similarity


class SeedNameMatcher:
    """The seed's scalar matcher: first-letter blocking + per-pair scoring."""

    def __init__(self, corpus_names: Sequence[str], threshold: float = 0.82) -> None:
        self.threshold = threshold
        self._names = list(corpus_names)
        self._normalized = [normalize_name(name) for name in self._names]
        self._blocks: dict[str, list[int]] = {}
        for index, normalized in enumerate(self._normalized):
            for token in normalized.split():
                self._blocks.setdefault(token[0], []).append(index)

    def _candidate_indices(self, normalized_query: str) -> list[int]:
        indices: set[int] = set()
        for token in normalized_query.split():
            indices.update(self._blocks.get(token[0], []))
        return sorted(indices)

    def candidates(self, query: str) -> list[tuple[int, float]]:
        normalized_query = normalize_name(query)
        if not normalized_query:
            return []
        results = [
            (index, score)
            for index in self._candidate_indices(normalized_query)
            if (score := name_similarity(normalized_query, self._normalized[index]))
            >= self.threshold
        ]
        results.sort(key=lambda entry: entry[1], reverse=True)
        return results

    def best_match(self, query: str) -> tuple[int, float]:
        matches = self.candidates(query)
        return matches[0] if matches else (-1, 0.0)


class TestUnicodeNormalization:
    def test_accents_fold_to_base_letters(self):
        assert normalize_name("José Müller") == "jose muller"
        assert normalize_name("Zoë Brontë") == "zoe bronte"
        assert normalize_name("François Lefèvre") == "francois lefevre"

    def test_undecomposable_letters_fold_through_the_table(self):
        assert normalize_name("Björn Ødegård") == "bjorn odegard"
        assert normalize_name("Łukasz Wałęsa") == "lukasz walesa"
        assert normalize_name("Jürgen Groß") == "jurgen gross"

    def test_titles_and_punctuation_still_stripped(self):
        assert normalize_name("Dr. José Müller PhD") == "jose muller"
        assert normalize_name("Müller, José") == "muller jose"

    def test_ascii_behaviour_unchanged(self):
        assert normalize_name("  Alice   MILLER ") == "alice miller"
        assert normalize_name("O'Brien, James") == "o brien james"
        assert normalize_name("...") == ""

    def test_accented_variants_now_link(self):
        index = LinkageIndex(["José Müller", "Robert Chen"], threshold=0.82)
        assert answers(*index.match_many(["Jose Muller"])) == [(0, 1.0)]


class TestBlockingRecall:
    CORPUS = ["Alice Miller", "Robert Chen", "Christine Olsen", "Johansson"]

    def test_first_character_typos_survive_qgram_blocking(self):
        # Every token's first letter is wrong: the historical scheme has no
        # shared block key, q-grams still overlap heavily.
        legacy = LinkageIndex(self.CORPUS, threshold=0.82, blocking="first-letter")
        engine = LinkageIndex(self.CORPUS, threshold=0.82, blocking="qgram")
        full = LinkageIndex(self.CORPUS, threshold=0.82, blocking="none")
        queries = ["Blice Niller", "Yohansson"]
        assert legacy.match_many(queries)[0].tolist() == [-1, -1], "legacy should miss"
        best = answers(*engine.match_many(queries))
        assert all(row >= 0 for row, _ in best)
        assert best == answers(*full.match_many(queries))

    def test_swapped_token_order_still_matches(self):
        engine = LinkageIndex(self.CORPUS, threshold=0.82)
        rows, _ = engine.match_many(["Miller, Alice"])
        assert [self.CORPUS[row] for row in rows.tolist()] == ["Alice Miller"]

    def test_qgram_candidates_superset_of_first_letter(self):
        normalized = [normalize_name(name) for name in self.CORPUS]
        qgram = BlockingIndex(normalized, scheme="qgram")
        legacy = BlockingIndex(normalized, scheme="first-letter")
        for query in ("alice miller", "blice niller", "c olsen", "yohansson", "zz"):
            assert set(legacy.candidate_rows(query)) <= set(qgram.candidate_rows(query))


@pytest.fixture(scope="module")
def faculty_linkage():
    population = generate_faculty(FacultyConfig(count=60, seed=13))
    corpus = corpus_for_faculty(population)
    corpus_names = [page.displayed_name for page in corpus.pages]
    queries = [str(n) for n in population.private.identifier_column()]
    return corpus_names, queries


@pytest.fixture(scope="module")
def census_linkage():
    population = generate_census(CensusConfig(count=150, seed=7))
    corpus = corpus_for_census(population)
    corpus_names = [page.displayed_name for page in corpus.pages]
    queries = [str(n) for n in population.private.identifier_column()]
    return corpus_names, queries


class TestGoldenMatchEquivalence:
    """The batched engine reproduces the seed matcher on both paper corpora."""

    @pytest.mark.parametrize("fixture", ["faculty_linkage", "census_linkage"])
    def test_best_matches_equal_seed(self, fixture, request):
        corpus_names, queries = request.getfixturevalue(fixture)
        seed = SeedNameMatcher(corpus_names, threshold=0.82)
        engine = LinkageIndex(corpus_names, threshold=0.82)
        expected = [seed.best_match(query) for query in queries]
        assert answers(*engine.match_many(queries)) == expected
        assert any(row >= 0 for row, _ in expected), "the golden corpora must link"

    @pytest.mark.parametrize("fixture", ["faculty_linkage", "census_linkage"])
    def test_first_letter_mode_reproduces_full_candidate_lists(self, fixture, request):
        """Under the historical scheme the engine is the seed matcher, candidate
        for candidate and bit for bit."""
        corpus_names, queries = request.getfixturevalue(fixture)
        seed = SeedNameMatcher(corpus_names, threshold=0.82)
        engine = LinkageIndex(corpus_names, threshold=0.82, blocking="first-letter")
        for query in queries:
            assert answers(*engine.candidates(query)) == seed.candidates(query), query

    def test_match_many_equals_per_query_best(self, faculty_linkage):
        corpus_names, queries = faculty_linkage
        engine = LinkageIndex(corpus_names, threshold=0.82)
        # duplicate some queries to exercise deduplication
        batch = queries + queries[:10]
        assert answers(*engine.match_many(batch)) == [
            best_match(corpus_names, engine, q) for q in batch
        ]

    def test_variant_queries_also_agree(self, faculty_linkage):
        corpus_names, _ = faculty_linkage
        rng = np.random.default_rng(41)
        variants = [name_variant(name, rng) for name in corpus_names[:40]]
        seed = SeedNameMatcher(corpus_names, threshold=0.82)
        engine = LinkageIndex(corpus_names, threshold=0.82)
        assert answers(*engine.match_many(variants)) == [
            seed.best_match(query) for query in variants
        ]


class CountingSource(AuxiliarySource):
    """Wraps a source, counting scalar searches and batched matches."""

    def __init__(self, inner: AuxiliarySource) -> None:
        self.inner = inner
        self.attribute_names = inner.attribute_names
        self.search_calls = 0
        self.batch_calls = 0

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


@pytest.fixture()
def fred_setup():
    population = generate_faculty(FacultyConfig(count=30, seed=5))
    corpus = corpus_for_faculty(population, distractor_count=5)
    attack_config = AttackConfig(
        release_inputs=("research_score", "teaching_score", "service_score", "years_of_service"),
        auxiliary_inputs=("property_holdings", "employment_seniority"),
        output_name="salary",
        output_universe=population.assumed_salary_range,
    )
    return population, corpus, attack_config


class TestHarvestReuse:
    def test_sweep_harvests_exactly_once(self, fred_setup):
        population, corpus, attack_config = fred_setup
        source = CountingSource(corpus)
        config = FREDConfig(levels=(2, 3, 4, 6), stop_below_utility=False)
        FREDAnonymizer(source, attack_config, config).run(population.private)
        assert source.batch_calls == 1
        assert source.search_calls == 0

    def test_parallel_sweep_also_harvests_once(self, fred_setup):
        population, corpus, attack_config = fred_setup
        source = CountingSource(corpus)
        config = FREDConfig(levels=(2, 3, 4, 6), stop_below_utility=False, parallelism=2)
        FREDAnonymizer(source, attack_config, config).run(population.private)
        assert source.batch_calls == 1

    def test_injected_harvest_reproduces_on_the_fly_run(self, fred_setup):
        population, corpus, attack_config = fred_setup
        from repro.anonymize.mdav import MDAVAnonymizer

        release = MDAVAnonymizer().anonymize(population.private, 4).release
        attack = WebFusionAttack(corpus, attack_config)
        baseline = attack.run(release)
        names = [str(n) for n in release.identifier_column()]
        injected = attack.run(release, harvest=attack.harvest(names))
        np.testing.assert_array_equal(baseline.estimates, injected.estimates)
        assert baseline.matched == injected.matched
        assert baseline.auxiliary == injected.auxiliary

    def test_mismatched_harvest_is_rejected(self, fred_setup):
        population, corpus, attack_config = fred_setup
        from repro.anonymize.mdav import MDAVAnonymizer
        from repro.exceptions import AttackConfigurationError

        release = MDAVAnonymizer().anonymize(population.private, 4).release
        attack = WebFusionAttack(corpus, attack_config)
        short = attack.harvest([str(n) for n in release.identifier_column()][:3])
        with pytest.raises(AttackConfigurationError):
            attack.run(release, harvest=short)

    def test_harvest_without_an_auxiliary_input_is_rejected(self, fred_setup):
        """Table IV must hold every auxiliary input the attack fuses."""
        population, corpus, attack_config = fred_setup
        from repro.anonymize.mdav import MDAVAnonymizer
        from repro.exceptions import AttackConfigurationError
        from repro.fusion.attack import harvest_auxiliary

        release = MDAVAnonymizer().anonymize(population.private, 4).release
        names = [str(n) for n in release.identifier_column()]
        partial = harvest_auxiliary(corpus, names, attack_config.auxiliary_inputs[:1])
        with pytest.raises(AttackConfigurationError, match="employment_seniority"):
            WebFusionAttack(corpus, attack_config).run(release, harvest=partial)

    def test_row_reordered_release_rejects_stale_harvest(self, fred_setup):
        """Same row count, different row order: the alignment guard fires
        instead of silently pairing people with other people's web records."""
        population, corpus, attack_config = fred_setup
        from repro.anonymize.mdav import MDAVAnonymizer
        from repro.exceptions import AttackConfigurationError

        release = MDAVAnonymizer().anonymize(population.private, 4).release
        attack = WebFusionAttack(corpus, attack_config)
        harvest = attack.harvest([str(n) for n in release.identifier_column()])
        reordered = release.take(list(range(release.num_rows))[::-1])
        with pytest.raises(AttackConfigurationError, match="align"):
            attack.run(reordered, harvest=harvest)


def _seniority_table(seniority: dict[str, float]) -> Table:
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("seniority", AttributeRole.QUASI_IDENTIFIER),
        ]
    )
    return Table.from_rows(schema, list(seniority.items()))


class TestFuzzyTableSource:
    def test_linkage_threshold_enables_approximate_lookup(self):
        table = _seniority_table({"Alice Miller": 20.0, "Robert Chen": 25.0})
        exact = TableAuxiliarySource(table=table, name_column="name")
        fuzzy = TableAuxiliarySource(
            table=table, name_column="name", linkage_threshold=0.82
        )
        assert exact.search("Miller, Alice") == []
        best = fuzzy.search("Miller, Alice")[0]
        assert best.name == "Alice Miller"
        assert best.attributes["seniority"] == 20.0
        assert 0.82 <= best.confidence <= 1.0

    def test_fuzzy_match_matches_per_name_search(self):
        table = _seniority_table(
            {"Alice Miller": 20.0, "Robert Chen": 25.0, "Christine Olsen": 3.0}
        )
        fuzzy = TableAuxiliarySource(
            table=table, name_column="name", linkage_threshold=0.8
        )
        names = ["Chen, Robert", "Alice Miler", "Nobody Atall", "C. Olsen"]
        rows, confidence = fuzzy.match(names)
        assert (rows >= 0).tolist() == [True, True, False, False]
        for name, row, score in zip(names, rows.tolist(), confidence.tolist()):
            found = fuzzy.search(name)
            if row < 0:
                assert found == [] and score == 0.0
            else:
                assert fuzzy.record(row, score, found[0].attributes) == found[0]
