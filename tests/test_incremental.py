"""Incremental data plane: append-mode ingest.

The executable specification is *equivalence with a cold ingest*: a table
assembled by :meth:`~repro.dataset.table.Table.append` must hold the same
content, column by column and dtype by dtype, as a one-shot ingest of the
same rows, and its chained fingerprint must name the append.  The hypothesis
suites pin that over arbitrary append chunkings and unicode names.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table, chain_fingerprints
from repro.exceptions import TableError

# Names wider than ASCII on purpose: accents, CJK, empty strings, whitespace
# runs and punctuation all flow through normalize/encode/tokenize.
name_strategy = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("Lu", "Ll", "Zs", "Pd", "Po")
    ),
    max_size=20,
)


def _chunked(names: list[str], boundaries: list[int]) -> list[list[str]]:
    """Split ``names`` at the (sorted, deduped, clamped) boundary offsets."""
    cuts = sorted({min(b, len(names)) for b in boundaries})
    chunks, start = [], 0
    for cut in cuts:
        chunks.append(names[start:cut])
        start = cut
    chunks.append(names[start:])
    return chunks


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
