"""Inverted-index blocking for record linkage.

Blocking keeps linkage near-linear: a query is only compared against corpus
entries sharing at least one *block key*.  The historical scheme keyed on the
first letter of each token, which silently loses any candidate whose every
token has a first-character typo (and made single-token names with a leading
typo unmatchable).  The default ``"qgram"`` scheme is multi-key:

* every whole token (catches reordered and exactly-shared name parts),
* every character q-gram of every token (a single typo still leaves most
  q-grams intact anywhere in the token),
* the first letter of every token (kept so the candidate set is by
  construction a **superset** of the historical scheme's — pinned by the
  hypothesis suite).

``"first-letter"`` reproduces the historical scheme exactly and ``"none"``
disables blocking (full scan).

Construction is vectorized: the corpus's tokens are flattened once into a
:class:`TokenStream` (shared with :class:`~repro.linkage.index.LinkageIndex`),
each key family is expressed as a ``(key_id, row)`` pair array, and one
``np.unique`` over a combined integer key dedupes and groups the pairs —
bit-identical postings to the historical per-name ``setdefault``/``append``
loop (kept in ``tests/linkage_reference.py`` as the equivalence reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import LinkageError
from repro.linkage.normalize import token_qgrams

__all__ = [
    "BLOCKING_SCHEMES",
    "BlockingIndex",
    "TokenStream",
    "tokenize_corpus",
]

#: Recognized blocking schemes, from highest to lowest recall.
BLOCKING_SCHEMES = ("qgram", "first-letter", "none")

_EMPTY = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class TokenStream:
    """The flattened token instances of a normalized corpus.

    One array pass shared by blocking and the linkage index: ``rows[i]`` is
    the corpus row of token instance ``i``, ``ids[i]`` its token id (ids are
    assigned in order of first appearance, matching the historical
    ``vocabulary.setdefault`` numbering), and ``unique[id]`` the token string.
    """

    rows: np.ndarray
    ids: np.ndarray
    unique: tuple[str, ...]


def tokenize_corpus(
    normalized_names: Sequence[str], token_counts: np.ndarray | None = None
) -> TokenStream:
    """Flatten a normalized corpus into one :class:`TokenStream`.

    Normalized names are single-space token joins, so the whole corpus
    tokenizes in one C-level ``" ".join(...).split()``; per-row token counts
    come from space counts (callers that already hold the corpus code buffer
    can pass them precomputed via ``token_counts``).  Should a caller pass
    non-canonical whitespace, the count/total mismatch is detected and the
    slow per-name split runs instead.
    """
    names = list(normalized_names)
    tokens: Sequence[str] = " ".join(names).split()
    if token_counts is not None:
        counts = np.asarray(token_counts, dtype=np.int64)
    else:
        counts = np.fromiter(
            ((name.count(" ") + 1) if name else 0 for name in names),
            dtype=np.int64,
            count=len(names),
        )
    if len(tokens) != int(counts.sum()):  # non-canonical whitespace fallback
        token_lists = [name.split() for name in names]
        counts = np.fromiter(
            (len(ts) for ts in token_lists), dtype=np.int64, count=len(token_lists)
        )
        tokens = [t for ts in token_lists for t in ts]
    rows = np.repeat(np.arange(len(names), dtype=np.intp), counts)
    if not tokens:
        return TokenStream(rows=rows, ids=np.empty(0, dtype=np.int64), unique=())
    # Token ids in first-appearance order — the historical
    # `vocabulary.setdefault(token, len(vocabulary))` numbering.  A plain dict
    # beats numpy string unique here (short keys, one pass, no string sort).
    vocabulary: dict[str, int] = {}
    ids = np.fromiter(
        (vocabulary.setdefault(token, len(vocabulary)) for token in tokens),
        dtype=np.int64,
        count=len(tokens),
    )
    return TokenStream(rows=rows, ids=ids, unique=tuple(vocabulary))


def _compact_ints(ids: np.ndarray, n_keys: int) -> np.ndarray:
    """Narrow non-negative ids below ``n_keys`` to the smallest signed dtype.

    Stable integer argsort is a radix sort with one pass per byte, so sorting
    ``int16`` keys is ~4x cheaper than the same keys as ``int64``.
    """
    if n_keys <= np.iinfo(np.int8).max:
        return ids.astype(np.int8, copy=False)
    if n_keys <= np.iinfo(np.int16).max:
        return ids.astype(np.int16, copy=False)
    if n_keys <= np.iinfo(np.int32).max:
        return ids.astype(np.int32, copy=False)
    return ids


def _group_rows_by_key(
    key_ids: np.ndarray, rows: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dedupe ``(key, row)`` pairs and group rows by key.

    ``rows`` must be non-decreasing (token instances arrive in corpus order),
    so one stable integer argsort by key leaves each key's rows ascending with
    duplicates adjacent — no hash set or combined-key ``np.unique`` needed.
    Returns ``(present, offsets, grouped)``: the rows of key ``present[i]``
    are ``grouped[offsets[i]:offsets[i + 1]]``, unique and ascending — the
    same order the historical append-in-row-order loop produced.
    """
    if key_ids.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), _EMPTY
    order = np.argsort(_compact_ints(key_ids, n_keys), kind="stable")
    keys = key_ids[order]
    grouped = rows[order]
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[0] = True
    np.logical_or(keys[1:] != keys[:-1], grouped[1:] != grouped[:-1], out=keep[1:])
    keys = keys[keep]
    grouped = grouped[keep]
    boundaries = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    offsets = np.concatenate(([0], boundaries, [keys.shape[0]]))
    return keys[offsets[:-1]], offsets, grouped.astype(np.intp, copy=False)


class BlockingIndex:
    """Inverted index from block keys to corpus row indices.

    Parameters
    ----------
    normalized_names:
        Corpus names, already passed through
        :func:`~repro.linkage.normalize.normalize_name`.
    scheme:
        One of :data:`BLOCKING_SCHEMES`.
    qgram_size:
        Character q-gram width of the ``"qgram"`` scheme (ignored otherwise).
    tokens:
        Optional pre-computed :class:`TokenStream` of ``normalized_names``
        (the linkage index shares its stream so the corpus tokenizes once).
    """

    def __init__(
        self,
        normalized_names: Sequence[str],
        scheme: str = "qgram",
        qgram_size: int = 2,
        tokens: TokenStream | None = None,
    ) -> None:
        if scheme not in BLOCKING_SCHEMES:
            raise LinkageError(
                f"unknown blocking scheme {scheme!r}; options: {sorted(BLOCKING_SCHEMES)}"
            )
        if qgram_size < 2:
            raise LinkageError(f"qgram_size must be >= 2, got {qgram_size}")
        self.scheme = scheme
        self.qgram_size = qgram_size
        self._size = len(normalized_names)
        self._postings: dict[str, np.ndarray] = {}
        if scheme == "none" or self._size == 0:
            return
        stream = tokens if tokens is not None else tokenize_corpus(normalized_names)
        unique = stream.unique
        if not unique:
            return
        letters = np.asarray(unique).astype("U1")
        letter_unique, letter_inverse = np.unique(letters, return_inverse=True)
        if self.scheme == "first-letter":
            self._insert_family(
                "", letter_unique.tolist(), letter_inverse[stream.ids], stream.rows
            )
            return
        self._insert_family("t:", list(unique), stream.ids, stream.rows)
        self._insert_family(
            "f:", letter_unique.tolist(), letter_inverse[stream.ids], stream.rows
        )
        # Q-grams: computed once per *unique* token, then expanded to token
        # instances with a repeat/gather (no per-instance Python).
        gram_lists = [token_qgrams(token, self.qgram_size) for token in unique]
        gram_counts = np.fromiter(
            (len(grams) for grams in gram_lists), dtype=np.int64, count=len(gram_lists)
        )
        flat_grams = [gram for grams in gram_lists for gram in grams]
        gram_unique, gram_inverse = np.unique(
            np.asarray(flat_grams), return_inverse=True
        )
        token_offsets = np.concatenate(([0], np.cumsum(gram_counts)))
        instance_counts = gram_counts[stream.ids]
        total = int(instance_counts.sum())
        instance_starts = np.concatenate(([0], np.cumsum(instance_counts)[:-1]))
        local = np.arange(total, dtype=np.int64) - np.repeat(
            instance_starts, instance_counts
        )
        positions = np.repeat(token_offsets[stream.ids], instance_counts) + local
        self._insert_family(
            "q:",
            gram_unique.tolist(),
            gram_inverse[positions],
            np.repeat(stream.rows, instance_counts),
        )

    def _insert_family(
        self,
        prefix: str,
        key_strings: list[str],
        key_ids: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        present, offsets, grouped = _group_rows_by_key(key_ids, rows, len(key_strings))
        postings = self._postings
        for i, key_id in enumerate(present.tolist()):
            postings[prefix + key_strings[key_id]] = grouped[
                offsets[i] : offsets[i + 1]
            ]

    def keys(self, normalized: str) -> set[str]:
        """The block keys of one normalized name under this scheme."""
        keys: set[str] = set()
        for token in normalized.split():
            if self.scheme == "first-letter":
                keys.add(token[0])
                continue
            keys.add("f:" + token[0])
            keys.add("t:" + token)
            for gram in token_qgrams(token, self.qgram_size):
                keys.add("q:" + gram)
        return keys

    def _key_hits(self, normalized_query: str) -> list[np.ndarray]:
        """The posting rows of every block key of the query present in the corpus."""
        return [
            self._postings[key]
            for key in self.keys(normalized_query)
            if key in self._postings
        ]

    def candidate_rows(self, normalized_query: str) -> np.ndarray:
        """Corpus rows sharing a block key with the query (ascending, unique)."""
        if self.scheme == "none":
            return np.arange(self._size, dtype=np.intp)
        hits = self._key_hits(normalized_query)
        if not hits:
            return _EMPTY
        if len(hits) == 1:
            return hits[0]
        return np.unique(np.concatenate(hits))

    def candidate_mask(self, normalized_queries: Sequence[str]) -> np.ndarray | None:
        """Boolean ``(queries, rows)`` membership of every query's candidate set.

        Row ``i`` marks exactly :meth:`candidate_rows` of query ``i``, built by
        scattering each key's postings into the mask — no per-query union.
        ``None`` for the ``"none"`` scheme, whose candidate set is every row.
        """
        if self.scheme == "none":
            return None
        hits = [
            (owner, rows)
            for owner, query in enumerate(normalized_queries)
            for rows in self._key_hits(query)
        ]
        mask = np.zeros((len(normalized_queries), self._size), dtype=bool)
        if hits:
            owners = np.fromiter((owner for owner, _ in hits), dtype=np.int64)
            sizes = np.fromiter((rows.shape[0] for _, rows in hits), dtype=np.int64)
            mask.ravel()[
                np.repeat(owners * self._size, sizes)
                + np.concatenate([rows for _, rows in hits])
            ] = True
        return mask
