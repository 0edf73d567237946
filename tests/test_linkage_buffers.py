"""Property tests pinning the buffer-backed LinkageIndex construction.

The vectorized build path (batch normalization, flat-buffer string encoding,
argsort-based postings) must be *bit-identical* to the historical per-name
scalar builders: same normalized strings, same code matrices, same postings
arrays, same match results.  These suites exercise unicode-heavy corpora —
accents, combining marks, titles, multi-token names, duplicates, empty
strings — plus a pickle round trip, which default object pickling must
keep answering the same queries.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linkage import (
    BlockingIndex,
    LinkageIndex,
    encode_strings_flat,
    normalize_name,
    normalize_names,
    pad_ragged,
    tokenize_corpus,
)

from linkage_reference import answers, best_match, encode_strings, scalar_postings

# Unicode-heavy name material: accents and combining marks (Mn), punctuation,
# separators — everything the normalization contract has to fold.
unicode_name = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("Lu", "Ll", "Zs", "Pd", "Po", "Mn")
    ),
    max_size=24,
)
# Hand-picked adversarial names: titles, fold-table letters, the batch
# separator itself, pure whitespace, duplicates of normalized forms.
tricky_name = st.sampled_from(
    [
        "",
        "   ",
        "Dr José Müller",
        "prof.  Łukasz Ørsted",
        "Alice\vSmith",
        "\v\v",
        "ßæþ œÆ",
        "Anna-Marie O'Neil",
        "mr ii iii jr sr",
        "José",
        "José",  # combining acute: NFKD-equal to "José"
        "MS MS MS",
        "phd",
    ]
)
name_like = st.one_of(unicode_name, tricky_name)
corpus_strategy = st.lists(name_like, min_size=1, max_size=10)


class TestBatchNormalization:
    @given(st.lists(name_like, max_size=12))
    @settings(max_examples=200)
    def test_normalize_names_equals_scalar_loop(self, names):
        assert normalize_names(names) == [normalize_name(n) for n in names]

    @given(corpus_strategy)
    @settings(max_examples=100)
    def test_flat_encoding_matches_padded_encoding(self, names):
        from repro.linkage.kernels import PAD

        normalized = normalize_names(names)
        flat, counts = encode_strings_flat(normalized)
        codes, lengths = encode_strings(normalized)
        assert np.array_equal(counts, lengths)
        assert int(flat.sum(initial=0)) == int(codes[codes != PAD].sum(initial=0))
        rebuilt = pad_ragged(flat, counts, PAD, np.int32)
        assert np.array_equal(rebuilt, codes)


class TestVectorizedPostings:
    @given(corpus_strategy, st.sampled_from(["qgram", "first-letter"]))
    @settings(max_examples=100)
    def test_blocking_postings_equal_scalar_builder(self, names, scheme):
        normalized = normalize_names(names)
        reference = scalar_postings(normalized, scheme=scheme)
        index = BlockingIndex(normalized, scheme=scheme)
        assert sorted(index._postings) == sorted(reference)
        for key, expected in reference.items():
            rows = index._postings[key]
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected)

    @given(corpus_strategy)
    @settings(max_examples=100)
    def test_token_stream_matches_scalar_vocabulary(self, names):
        normalized = normalize_names(names)
        stream = tokenize_corpus(normalized)
        vocabulary: dict[str, int] = {}
        rows, ids = [], []
        for row, name in enumerate(normalized):
            for token in name.split():
                rows.append(row)
                ids.append(vocabulary.setdefault(token, len(vocabulary)))
        assert stream.unique == tuple(vocabulary)
        assert stream.rows.tolist() == rows
        assert stream.ids.tolist() == ids


class TestIndexContracts:
    @given(corpus_strategy, st.lists(name_like, min_size=1, max_size=6))
    @settings(max_examples=75, deadline=None)
    def test_pickle_round_trip_preserves_matches(self, corpus, queries):
        index = LinkageIndex(corpus, threshold=0.5)
        clone = pickle.loads(pickle.dumps(index))
        expected = [best_match(corpus, index, query) for query in queries]
        assert answers(*clone.match_many(queries)) == expected
        assert answers(*index.match_many(queries)) == expected
        for query in queries:
            assert answers(*clone.candidates(query)) == answers(*index.candidates(query))
