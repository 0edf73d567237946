"""Incremental data plane: append-mode ingest and delta LinkageIndex updates.

The executable specification is *equivalence with a cold rebuild*: a table
assembled by :meth:`~repro.dataset.table.Table.append` must hold the same
content as a one-shot ingest, and a :class:`~repro.linkage.LinkageIndex`
grown by :meth:`~repro.linkage.LinkageIndex.extend` must be **bit-identical**
— every flat buffer, both padded matrices, the token postings, the blocking
postings and every query answer — to an index built from scratch over the
full corpus.  The hypothesis suites pin that equivalence over arbitrary
append chunkings, unicode names, duplicates and empty/degenerate deltas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table, chain_fingerprints
from repro.exceptions import TableError
from repro.linkage import LinkageIndex

# Names wider than ASCII on purpose: accents, CJK, empty strings, whitespace
# runs and punctuation all flow through normalize/encode/tokenize.
name_strategy = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("Lu", "Ll", "Zs", "Pd", "Po")
    ),
    max_size=20,
)
corpus_strategy = st.lists(name_strategy, min_size=0, max_size=12)


def _chunked(names: list[str], boundaries: list[int]) -> list[list[str]]:
    """Split ``names`` at the (sorted, deduped, clamped) boundary offsets."""
    cuts = sorted({min(b, len(names)) for b in boundaries})
    chunks, start = [], 0
    for cut in cuts:
        chunks.append(names[start:cut])
        start = cut
    chunks.append(names[start:])
    return chunks


def _index_artifacts(index: LinkageIndex) -> dict[str, object]:
    """Every derived artifact, for exact (values *and* dtypes) comparison."""
    return {
        "names": list(index.names),
        "vocab": list(index._vocab),
        "name_offsets": index._name_offsets,
        "flat_codes": index._flat_codes,
        "lengths": index._lengths,
        "codes": index._codes,
        "token_ids": index._token_ids,
        "token_counts": index._token_counts,
        "token_matrix": index._token_matrix,
        "post_rows": index._token_post_rows,
        "post_offsets": index._token_post_offsets,
        "blocking_size": index._blocking._size,
        "blocking": dict(index._blocking._postings),
    }


def _assert_artifacts_identical(grown: LinkageIndex, rebuilt: LinkageIndex) -> None:
    left, right = _index_artifacts(grown), _index_artifacts(rebuilt)
    assert left["names"] == right["names"]
    assert left["vocab"] == right["vocab"]
    assert left["blocking_size"] == right["blocking_size"]
    for key in (
        "name_offsets", "flat_codes", "lengths", "codes", "token_ids",
        "token_counts", "token_matrix", "post_rows", "post_offsets",
    ):
        assert left[key].dtype == right[key].dtype, key
        assert np.array_equal(left[key], right[key]), key
    assert left["blocking"].keys() == right["blocking"].keys()
    for block_key, rows in right["blocking"].items():
        assert np.array_equal(left["blocking"][block_key], rows), block_key


def _assert_queries_identical(
    grown: LinkageIndex, rebuilt: LinkageIndex, queries: list[str]
) -> None:
    assert grown.match_many(queries) == rebuilt.match_many(queries)
    for query in queries:
        assert grown.candidates(query) == rebuilt.candidates(query)


class TestExtendEqualsRebuild:
    @given(
        corpus_strategy,
        st.lists(st.integers(min_value=0, max_value=12), max_size=4),
        st.lists(name_strategy, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_extends_equal_full_build(self, names, boundaries, queries):
        chunks = _chunked(names, boundaries)
        grown = LinkageIndex(chunks[0])
        for chunk in chunks[1:]:
            grown.extend(chunk)
        rebuilt = LinkageIndex(names)
        _assert_artifacts_identical(grown, rebuilt)
        # Queries include corpus members (exercise perfect-match and scoring
        # paths) plus arbitrary text.
        _assert_queries_identical(grown, rebuilt, list(names[:3]) + list(queries))

    @given(corpus_strategy, corpus_strategy)
    @settings(max_examples=40, deadline=None)
    def test_extend_patches_lazy_caches_correctly(self, base, delta):
        grown = LinkageIndex(base)
        # Force every lazy cache to exist *before* the append, so extend must
        # patch or invalidate them rather than starting from scratch: the
        # corpus members fill the perfect-match table, and the fuzzy probes
        # (one misspelt member, one stranger) fill the char counts and the
        # match_many filter caches.
        probes = list(base[:2]) + [name + "q" for name in base[:1]] + ["probe"]
        grown.match_many(probes)
        if grown._char_bounds() is not None and grown._perfect_row("probe") is None:
            assert grown._saturated_cache is not None and grown._floor_cache
        grown.extend(delta)
        rebuilt = LinkageIndex(list(base) + list(delta))
        _assert_queries_identical(grown, rebuilt, probes + list(delta[:2]))
        grown_bounds, rebuilt_bounds = grown._char_bounds(), rebuilt._char_bounds()
        assert (grown_bounds is None) == (rebuilt_bounds is None)
        if rebuilt_bounds is not None:
            assert np.array_equal(grown_bounds[0], rebuilt_bounds[0])
            assert np.array_equal(grown_bounds[1], rebuilt_bounds[1])
            assert np.array_equal(grown._saturated_counts(), rebuilt._saturated_counts())

    def test_empty_delta_is_a_no_op(self):
        index = LinkageIndex(["maria lopez", "xu wei"])
        before = _index_artifacts(index)
        index.extend([])
        after = _index_artifacts(index)
        assert before["names"] == after["names"]
        assert np.array_equal(before["post_rows"], after["post_rows"])

    def test_extend_from_empty_index(self):
        grown = LinkageIndex([])
        grown.extend(["maria lopez", "josé álvarez"])
        rebuilt = LinkageIndex(["maria lopez", "josé álvarez"])
        _assert_artifacts_identical(grown, rebuilt)
        _assert_queries_identical(grown, rebuilt, ["maria lopez", "nobody"])

    def test_extend_with_degenerate_names(self):
        grown = LinkageIndex(["maria lopez"])
        grown.extend(["", "   ", "maria lopez"])
        rebuilt = LinkageIndex(["maria lopez", "", "   ", "maria lopez"])
        _assert_artifacts_identical(grown, rebuilt)
        _assert_queries_identical(grown, rebuilt, ["maria lopez", ""])


def _people(names: list[str], offset: int = 0) -> Table:
    schema = Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("age", AttributeRole.QUASI_IDENTIFIER),
            Attribute("salary", AttributeRole.SENSITIVE),
        ]
    )
    return Table(
        schema,
        {
            "name": names,
            "age": [20 + offset + i for i in range(len(names))],
            "salary": [1000.0 + offset + i for i in range(len(names))],
        },
    )


class TestTableAppendEqualsFullIngest:
    @given(
        st.lists(name_strategy, min_size=1, max_size=10),
        st.lists(st.integers(min_value=1, max_value=10), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_appends_hold_full_ingest_content(self, names, boundaries):
        chunks = [c for c in _chunked(names, boundaries) if c]
        offsets = np.cumsum([0] + [len(c) for c in chunks])
        combined = _people(chunks[0])
        for chunk, offset in zip(chunks[1:], offsets[1:]):
            combined = combined.append(_people(chunk, offset=int(offset)))
        full = _people(names)
        assert combined.num_rows == full.num_rows
        for column in full.schema.names:
            left = combined.column_array(column)
            right = full.column_array(column)
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)

    @given(
        st.lists(name_strategy, min_size=1, max_size=6),
        st.lists(name_strategy, min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_chained_fingerprint_is_deterministic_and_fresh(self, base, delta):
        base_table, delta_table = _people(base), _people(delta, offset=100)
        once = base_table.append(delta_table)
        twice = _people(base).append(_people(delta, offset=100))
        assert once.fingerprint == twice.fingerprint
        assert once.fingerprint == chain_fingerprints(
            base_table.fingerprint, delta_table.fingerprint
        )
        # The chained identity names the append, not either parent.
        assert once.fingerprint != base_table.fingerprint
        assert once.fingerprint != delta_table.fingerprint

    def test_append_rejects_schema_mismatch(self):
        base = _people(["maria"])
        other = Table(
            Schema([Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT)]),
            {"name": ["xu"]},
        )
        with pytest.raises(TableError):
            base.append(other)
