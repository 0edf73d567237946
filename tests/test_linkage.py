"""Unit tests for string similarity and name matching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LinkageError
from repro.linkage import LinkageIndex, normalize_name
from repro.linkage.kernels import active_kernel_backend

from linkage_reference import (
    answers,
    candidates,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    name_similarity,
    token_set_similarity,
)


class TestNormalization:
    def test_case_and_punctuation(self):
        assert normalize_name("  Alice   MILLER ") == "alice miller"
        assert normalize_name("O'Brien, James") == "o brien james"

    def test_titles_stripped(self):
        assert normalize_name("Dr. Alice Miller") == "alice miller"
        assert normalize_name("Prof Alice Miller PhD") == "alice miller"

    def test_empty(self):
        assert normalize_name("...") == ""


class TestLevenshtein:
    @pytest.mark.parametrize(
        "left,right,distance",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "ab", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_distances(self, left, right, distance):
        assert levenshtein_distance(left, right) == distance
        assert levenshtein_distance(right, left) == distance

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0
        assert levenshtein_similarity("", "") == 1.0
        assert 0.0 < levenshtein_similarity("abcd", "abce") < 1.0


class TestJaro:
    def test_identical_and_disjoint(self):
        assert jaro_similarity("martha", "martha") == 1.0
        assert jaro_similarity("abc", "xyz") == 0.0
        assert jaro_similarity("", "abc") == 0.0

    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("dixon", "dickson")
        boosted = jaro_winkler_similarity("dixon", "dickson")
        assert boosted >= plain

    def test_winkler_prefix_scale_validation(self):
        with pytest.raises(LinkageError):
            jaro_winkler_similarity("a", "b", prefix_scale=0.5)


class TestTokenSet:
    def test_reordered_tokens_match(self):
        assert token_set_similarity("alice miller", "miller alice") == 1.0

    def test_partial_overlap(self):
        assert token_set_similarity("alice miller", "alice chen") == pytest.approx(1 / 3)

    def test_empty(self):
        assert token_set_similarity("", "") == 1.0
        assert token_set_similarity("alice", "") == 0.0


class TestCompositeSimilarity:
    def test_exact_match(self):
        assert name_similarity("Alice Miller", "alice miller") == 1.0

    def test_reordered_with_title(self):
        assert name_similarity("Miller, Alice", "Dr. Alice Miller") == 1.0

    def test_initials_still_similar(self):
        assert name_similarity("Alice Miller", "A. Miller") > 0.6

    def test_unrelated_names_score_low(self):
        assert name_similarity("Alice Miller", "Robert Chen") < 0.6

    def test_empty_scores_zero(self):
        assert name_similarity("...", "Alice") == 0.0


class TestNameMatcher:
    """Name matching through :class:`LinkageIndex`."""

    CORPUS = ["Alice Miller", "Robert Chen", "Christine Olsen", "A. Patel"]

    @pytest.fixture()
    def matcher(self):
        return LinkageIndex(self.CORPUS, threshold=0.8)

    def test_exact_query(self, matcher):
        rows, scores = matcher.match_many(["Alice Miller"])
        assert rows.tolist() == [0]
        assert scores.tolist() == [1.0]

    def test_variant_query(self, matcher):
        rows, _ = matcher.match_many(["Miller, Alice"])
        assert rows.tolist() == [0]

    def test_unknown_query(self, matcher):
        rows, scores = matcher.match_many(["Zachary Quinto"])
        assert rows.tolist() == [-1] and scores.tolist() == [0.0]
        assert answers(*matcher.candidates("Zachary Quinto")) == []

    def test_empty_query(self, matcher):
        assert matcher.match_many(["!!!"])[0].tolist() == [-1]
        assert answers(*matcher.candidates("!!!")) == []

    def test_candidates_sorted_by_score(self, matcher):
        rows, scores = matcher.candidates("Alice Millar")
        assert rows.dtype == np.intp and scores.dtype == np.float64
        assert rows.size and scores.tolist() == sorted(scores.tolist(), reverse=True)
        assert answers(rows, scores) == candidates(self.CORPUS, matcher, "Alice Millar")

    def test_blocking_matches_full_scan(self):
        corpus = ["Alice Miller", "Robert Chen", "Christine Olsen", "Albert Chen"]
        blocked = LinkageIndex(corpus, threshold=0.75)
        full = LinkageIndex(corpus, threshold=0.75, blocking="none")
        for query in ("Alice Miller", "Chen, Robert", "C. Olsen"):
            assert answers(*blocked.candidates(query)) == answers(*full.candidates(query))

    def test_threshold_validation(self):
        with pytest.raises(LinkageError):
            LinkageIndex(["a"], threshold=0.0)
        with pytest.raises(LinkageError):
            LinkageIndex(["a"], threshold=1.5)


def test_kernel_backend_stamp_is_numpy():
    # Benchmark environment stamps record this name with every run.
    assert active_kernel_backend() == "numpy"
