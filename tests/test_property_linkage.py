"""Property-based tests (hypothesis) for the batched linkage engine.

The scalar functions in ``tests/linkage_reference.py`` are the executable
specification; these properties pin that the vectorized kernels in
:mod:`repro.linkage.kernels` and both ``LinkageIndex`` queries reproduce them
**bit for bit** on arbitrary strings, and that q-gram blocking never loses a
candidate the historical first-letter scheme would have produced.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linkage import (
    BlockingIndex,
    LinkageIndex,
    encode_query,
    normalize_name,
)
from repro.linkage.kernels import (
    jaro_similarity_pairs,
    jaro_winkler_similarity_pairs,
    levenshtein_distance_pairs,
    levenshtein_similarity_pairs,
)

import linkage_reference
from linkage_reference import (
    answers,
    best_match,
    encode_strings,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)

# Arbitrary text, deliberately wider than names: accents, punctuation and
# non-Latin scripts all go through the kernels.
text_strategy = st.text(max_size=16)
name_strategy = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("Lu", "Ll", "Zs", "Pd", "Po")
    ),
    max_size=20,
)
corpus_strategy = st.lists(text_strategy, min_size=1, max_size=8)

# Names over a 12-letter alphabet: pairs share most of their characters, so
# the character-overlap bound and the token Jaccard (up to 6 tokens) both sit
# near the threshold instead of deciding nothing.
SMALL_ALPHABET = "abdeiklmnors"
small_token_strategy = st.text(alphabet=SMALL_ALPHABET, min_size=1, max_size=6)
small_name_strategy = st.lists(small_token_strategy, min_size=1, max_size=6).map(
    " ".join
)


@st.composite
def near_miss_batches(draw):
    """A small-alphabet corpus plus queries, many one edit from a corpus name.

    An edit is one character inserted, deleted or replaced, or one token
    dropped or added with the tokens shuffled — the last keeps the token
    Jaccard high while the character bound falls, so Jaccard alone decides.
    """
    corpus = draw(st.lists(small_name_strategy, min_size=1, max_size=12))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if not draw(st.booleans()):
            queries.append(draw(small_name_strategy))
            continue
        name = draw(st.sampled_from(corpus))
        at = draw(st.integers(min_value=0, max_value=len(name) - 1))
        letter = draw(st.sampled_from(SMALL_ALPHABET))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "tokens")))
        if edit == "insert":
            queries.append(name[:at] + letter + name[at:])
        elif edit == "delete":
            queries.append(name[:at] + name[at + 1 :])
        elif edit == "replace":
            queries.append(name[:at] + letter + name[at + 1 :])
        else:
            tokens = draw(st.permutations(name.split()))
            if len(tokens) > 1 and draw(st.booleans()):
                tokens = tokens[1:]
            else:
                tokens = tokens + [draw(small_token_strategy)]
            queries.append(" ".join(tokens))
    return corpus, queries


def _broadcast(query: str, codes: np.ndarray) -> np.ndarray:
    """One query's codes as the query side of a pair batch over ``codes``."""
    encoded = encode_query(query)
    return np.broadcast_to(encoded, (codes.shape[0], encoded.shape[0]))


class TestKernelEquivalence:
    @given(text_strategy, corpus_strategy)
    @settings(max_examples=150)
    def test_levenshtein_batch_equals_scalar(self, query, corpus):
        codes, lengths = encode_strings(corpus)
        queries = _broadcast(query, codes)
        distances = levenshtein_distance_pairs(queries, codes, lengths)
        similarities = levenshtein_similarity_pairs(queries, codes, lengths)
        for i, candidate in enumerate(corpus):
            assert distances[i] == levenshtein_distance(query, candidate)
            if query or candidate:
                assert similarities[i] == levenshtein_similarity(query, candidate)
            else:
                assert similarities[i] == 1.0

    @given(text_strategy, corpus_strategy)
    @settings(max_examples=150)
    def test_jaro_batch_equals_scalar(self, query, corpus):
        codes, lengths = encode_strings(corpus)
        batch = jaro_similarity_pairs(_broadcast(query, codes), codes, lengths)
        for i, candidate in enumerate(corpus):
            assert batch[i] == jaro_similarity(query, candidate), candidate

    @given(text_strategy, corpus_strategy)
    @settings(max_examples=150)
    def test_jaro_winkler_batch_equals_scalar(self, query, corpus):
        codes, lengths = encode_strings(corpus)
        batch = jaro_winkler_similarity_pairs(_broadcast(query, codes), codes, lengths)
        for i, candidate in enumerate(corpus):
            assert batch[i] == jaro_winkler_similarity(query, candidate), candidate

    @given(name_strategy, st.lists(name_strategy, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_composite_scores_equal_scalar_name_similarity(self, query, corpus):
        """``candidates`` equals the scalar scan of the query's blocking
        candidates: same rows, same order, scores bit for bit.  At 0.05
        almost every row with a shared character is listed."""
        for threshold in (0.05, 0.5, 0.82):
            for blocking in ("qgram", "first-letter", "none"):
                index = LinkageIndex(corpus, threshold=threshold, blocking=blocking)
                assert answers(*index.candidates(query)) == linkage_reference.candidates(
                    corpus, index, query
                ), (threshold, blocking)


class TestBlockingProperties:
    @given(st.lists(name_strategy, min_size=1, max_size=10), name_strategy)
    @settings(max_examples=100)
    def test_qgram_candidates_superset_of_first_letter(self, corpus, query):
        normalized = [normalize_name(name) for name in corpus]
        normalized_query = normalize_name(query)
        qgram = BlockingIndex(normalized, scheme="qgram")
        legacy = BlockingIndex(normalized, scheme="first-letter")
        assert set(legacy.candidate_rows(normalized_query)) <= set(
            qgram.candidate_rows(normalized_query)
        )

    @given(st.lists(name_strategy, min_size=1, max_size=8), name_strategy)
    @settings(max_examples=75)
    def test_blocked_candidates_subset_of_full_scan_with_equal_scores(
        self, corpus, query
    ):
        blocked = LinkageIndex(corpus, threshold=0.5, blocking="qgram")
        full = LinkageIndex(corpus, threshold=0.5, blocking="none")
        blocked_by_index = dict(answers(*blocked.candidates(query)))
        full_by_index = dict(answers(*full.candidates(query)))
        assert set(blocked_by_index) <= set(full_by_index)
        for index, score in blocked_by_index.items():
            assert score == full_by_index[index]


class TestMatchManyQueryBatching:
    """The query-axis-batched ``match_many`` must reproduce the scalar
    ``best_match`` reference bit for bit on arbitrary name sets — same
    winners, same lowest-row tie-breaking, same scores, including duplicates
    and queries that hit the perfect-match short-circuit."""

    @given(
        st.lists(name_strategy, min_size=1, max_size=10),
        st.lists(name_strategy, min_size=1, max_size=10),
    )
    @settings(max_examples=75)
    def test_match_many_equals_per_query_best_match(self, corpus, queries):
        batch = queries + queries[: len(queries) // 2]  # exercise deduplication
        for blocking in ("qgram", "none"):
            index = LinkageIndex(corpus, threshold=0.5, blocking=blocking)
            assert answers(*index.match_many(batch)) == [
                best_match(corpus, index, q) for q in batch
            ]

    @given(near_miss_batches())
    # A Jaccard-only win: 5 of 6 tokens shared (0.83) while the reordered,
    # shorter query's character bound stays below 0.82.
    @example(batch=(["a b d e i kkkkkk", "a b d e"], ["i e d b a"]))
    @settings(max_examples=150, deadline=None)
    def test_match_many_equals_best_match_near_the_threshold(self, batch):
        """The pruning decides here: one-edit neighbours score just above or
        below each threshold, so a filter that drops one viable pair changes
        an answer."""
        corpus, queries = batch
        for threshold in (0.5, 0.82, 0.95):
            for blocking in ("qgram", "first-letter", "none"):
                index = LinkageIndex(corpus, threshold=threshold, blocking=blocking)
                assert answers(*index.match_many(queries)) == [
                    best_match(corpus, index, q) for q in queries
                ], (threshold, blocking)

    @given(st.lists(name_strategy, min_size=1, max_size=8), name_strategy)
    @settings(max_examples=50)
    def test_corpus_names_match_themselves_through_the_batch(self, corpus, extra):
        index = LinkageIndex(corpus, threshold=0.5)
        batch = list(corpus) + [extra]
        assert answers(*index.match_many(batch)) == [
            best_match(corpus, index, q) for q in batch
        ]


class TestNormalizationProperties:
    @given(text_strategy)
    @settings(max_examples=200)
    def test_normalize_is_idempotent(self, text):
        once = normalize_name(text)
        assert normalize_name(once) == once

    @given(text_strategy)
    @settings(max_examples=200)
    def test_normalized_output_is_ascii_lowercase_tokens(self, text):
        normalized = normalize_name(text)
        assert "  " not in normalized
        assert normalized == normalized.strip()
        for token in normalized.split():
            assert token.isascii() and token.isalpha() and token.islower()
