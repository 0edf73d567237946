"""The pieces of ``LinkageIndex.match_many``'s pair filter, tested one by one.

``match_many`` filters every (query, corpus row) pair of a chunk before any
pair is built: a character-overlap floor ``T(m, len, p)``, the token-set
Jaccard from shared-token counts, and the blocking membership mask.  These
tests pin each piece against a brute-force reference, and pin that the whole
harvest stays equal to the scalar ``best_match`` reference on the inputs that
stress the filter's memory and chunking: very long names, corpora wider than
one chunk, and corpora with no characters at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linkage import BlockingIndex, LinkageIndex
from repro.linkage.index import _jaccard, _overlap_floor
from repro.linkage.normalize import normalize_name

from linkage_reference import (
    QUERY_PAD,
    answers,
    best_match,
    candidates,
    token_jaccard_pairs,
)

NAMES = [
    "maria lopez", "mario lopes", "xu wei", "wei xu", "nils moller",
    "ada byron", "ada lovelace", "grace hopper", "grace brewster hopper",
    "alan turing", "alan mathison turing", "joan clarke", "jon clark",
]
FUZZY_QUERIES = [
    "maria lopes", "marie lopez", "xu wie", "nils muller", "ada bryon",
    "grace hoper", "alan turning", "joan clark", "nobody at all", "brewster",
]


def _brute_force_floors(length, max_length, prefix, prefix_scale, cutoff):
    """Smallest passing overlap per row length, by exhaustive search.

    The bound is written out literally — the float expression the pair-level
    pruning applied before the count filter existed.
    """
    common = np.arange(length + 1, dtype=np.int64)[:, None]
    lengths = np.arange(max_length + 1, dtype=np.int64)[None, :]
    longest = np.maximum(length, lengths)
    levenshtein_bound = common / np.maximum(longest, 1)
    jaro_bound = np.where(
        common > 0,
        (common / length + common / np.maximum(lengths, 1) + 1.0) / 3.0,
        0.0,
    )
    jw_bound = jaro_bound + np.int64(prefix) * prefix_scale * (1.0 - jaro_bound)
    passes = 0.6 * jw_bound + 0.4 * levenshtein_bound >= cutoff
    return np.where(passes.any(axis=0), passes.argmax(axis=0), length + 1)


class TestOverlapFloor:
    @pytest.mark.parametrize(
        "threshold, prefix_scale",
        [(0.82, 0.1), (0.5, 0.1), (0.95, 0.1), (0.7, 0.25), (0.6, 0.0), (1.0, 0.1)],
    )
    def test_equals_brute_force_smallest_overlap(self, threshold, prefix_scale):
        cutoff = threshold - LinkageIndex._PRUNE_SLACK
        lengths = np.arange(41, dtype=np.int64)
        for length in range(1, 41):
            for prefix in range(min(4, length) + 1):
                floors = _overlap_floor(length, lengths, prefix, prefix_scale, cutoff)
                expected = _brute_force_floors(length, 40, prefix, prefix_scale, cutoff)
                assert floors.tolist() == expected.tolist(), (length, prefix)

    def test_index_memoises_floors_per_length_and_prefix(self):
        index = LinkageIndex(NAMES)
        first = index._overlap_floors(11, 4)
        assert index._overlap_floors(11, 4) is first
        assert first.shape == (index._codes.shape[1] + 1,)


class TestSharedTokenJaccard:
    def test_equals_token_jaccard_pairs_on_random_token_sets(self):
        rng = np.random.default_rng(7)
        vocabulary = np.array(["ana", "bo", "cy", "dee", "eli", "fay", "gus", "hal"])
        unknown = np.array(["zed", "quin"])

        def draw(words, size):
            return " ".join(rng.choice(words, size=size))

        corpus = [draw(vocabulary, rng.integers(1, 7)) for _ in range(60)]
        queries = [
            draw(np.concatenate([vocabulary, unknown]), rng.integers(1, 7))
            for _ in range(25)
        ]
        index = LinkageIndex(corpus)
        normalized_queries = [normalize_name(query) for query in queries]
        shared, query_counts = index._shared_tokens(normalized_queries)

        known = [
            sorted({index._vocabulary[t] for t in normalized.split() if t in index._vocabulary})
            for normalized in normalized_queries
        ]
        query_tokens = np.full((len(queries), 6), QUERY_PAD, dtype=np.int64)
        for row, ids in enumerate(known):
            query_tokens[row, : len(ids)] = ids
        pair_query, pair_rows = np.divmod(np.arange(shared.size), index.size)
        expected = token_jaccard_pairs(
            query_tokens[pair_query],
            query_counts[pair_query],
            index._token_matrix[pair_rows],
            index._token_counts[pair_rows],
        )
        actual = _jaccard(shared, query_counts[pair_query], index._token_counts[pair_rows])
        assert np.array_equal(actual, expected)
        assert (shared > 0).any() and (shared == 0).any()


class TestHarvestPath:
    @pytest.mark.parametrize("blocking", ["qgram", "first-letter", "none"])
    def test_match_many_never_builds_a_per_query_candidate_union(
        self, monkeypatch, blocking
    ):
        index = LinkageIndex(NAMES, blocking=blocking)
        expected = [best_match(NAMES, index, query) for query in FUZZY_QUERIES]
        assert any(row >= 0 and score < 1.0 for row, score in expected)
        listed = [candidates(NAMES, index, query) for query in FUZZY_QUERIES]

        def no_union(self, normalized_query):
            raise AssertionError("a query built a per-query candidate union")

        monkeypatch.setattr(BlockingIndex, "candidate_rows", no_union)
        assert answers(*index.match_many(FUZZY_QUERIES)) == expected
        assert [answers(*index.candidates(query)) for query in FUZZY_QUERIES] == listed

    def test_candidate_mask_rows_equal_candidate_rows(self):
        index = LinkageIndex(NAMES)
        normalized = [normalize_name(query) for query in FUZZY_QUERIES]
        mask = index.blocking.candidate_mask(normalized)
        for row, query in zip(mask, normalized):
            assert np.array_equal(np.flatnonzero(row), index.blocking.candidate_rows(query))
        assert LinkageIndex(NAMES, blocking="none").blocking.candidate_mask(normalized) is None


class TestBoundedWork:
    def test_a_very_long_name_keeps_the_count_matrix_at_its_width(self):
        giant = "ab" * 2_500  # 5,000 characters, 2,500 copies of each letter
        corpus = NAMES + [giant, "ab" * 140 + "c"]
        index = LinkageIndex(corpus)
        # Short fuzzy queries, plus queries over 255 characters, which take
        # the wide-count path against the saturated 5,000-character row.
        queries = FUZZY_QUERIES + ["ab" * 140, "ab" * 139 + "ba"]
        expected = [best_match(corpus, index, query) for query in queries]
        assert expected[-2][0] >= 0 and expected[-2][1] < 1.0
        assert answers(*index.match_many(queries)) == expected
        alphabet, _ = index._char_bounds()
        saturated = index._saturated_counts()
        assert alphabet.size <= 27
        assert saturated.shape == (alphabet.size, len(corpus))
        assert saturated.dtype == np.uint8 and saturated.max() == 255

    @pytest.mark.parametrize("cap", [1, 5, 2 * len(NAMES) + 1])
    def test_corpus_wider_than_a_chunk_still_matches(self, monkeypatch, cap):
        # With the cap below the corpus size every chunk holds one query.
        monkeypatch.setattr(LinkageIndex, "_MAX_PAIRS_PER_CHUNK", cap)
        index = LinkageIndex(NAMES)
        queries = FUZZY_QUERIES + FUZZY_QUERIES[:3] + NAMES[:2]
        assert answers(*index.match_many(queries)) == [
            best_match(NAMES, index, q) for q in queries
        ]

    @pytest.mark.parametrize("corpus", [[], ["", "   ", "!!", "--"]])
    @pytest.mark.parametrize("blocking", ["qgram", "first-letter", "none"])
    def test_corpus_without_characters_matches_nothing(self, corpus, blocking):
        index = LinkageIndex(corpus, blocking=blocking)
        assert index._char_bounds() is None
        queries = ["maria lopez", "x", ""]
        miss = [(-1, 0.0)] * 3
        assert answers(*index.match_many(queries)) == miss
        assert [best_match(corpus, index, query) for query in queries] == miss
        assert [answers(*index.candidates(query)) for query in queries] == [[]] * 3
