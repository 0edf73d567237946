"""The batched record-linkage engine.

:class:`LinkageIndex` is built once per auxiliary corpus and then answers any
number of approximate-match queries against it:

* corpus names are normalized and pre-encoded into a padded ``int32``
  character-code matrix plus a token-id matrix (built once, at index time);
* a query is resolved by blocking (:mod:`repro.linkage.blocking`) to a
  candidate row set, then scored against *all* candidates at once with the
  vectorized kernels of :mod:`repro.linkage.kernels`;
* the composite score is exactly the scalar reference
  (:func:`repro.fusion.linkage.name_similarity`):
  ``max(0.6 * jaro_winkler + 0.4 * levenshtein, token_jaccard)`` on
  normalized names — bit-identical, so the engine reproduces a scalar
  scan of the corpus wherever blocking agrees;
* :meth:`match_many` resolves a whole batch of queries (the release's entire
  identifier column) in one pass, deduplicating repeated queries and batching
  the *query* axis too.  Queries that miss the perfect-match table are
  bucketed by normalized length and filtered against *every* corpus row at
  once before any (query, row) pair is built: a per-character
  ``minimum``-and-add over the whole grid gives every pair's exact
  character overlap, which bounds its edit-distance score (count filtering);
  one ``bincount`` over token postings gives every pair's exact shared-token
  count (ScanCount); and the blocking keys' postings are scattered into a
  membership mask.  Only the surviving pairs run through the pairwise DP
  kernels (:mod:`repro.linkage.kernels`, the ``*_pairs`` kernels) —
  bit-identical to resolving every query with :meth:`best_match`.

Construction is vectorized end to end and the index *is* a bundle of flat
NumPy buffers:

* normalization runs once over the joined corpus
  (:func:`~repro.linkage.normalize.normalize_names`), and the character
  codes come from a single ``np.frombuffer`` over the joined normalized text
  (:func:`~repro.linkage.kernels.encode_strings_flat`);
* token ids, the per-row token matrix, per-token-id postings and the
  blocking postings all derive from one flattened
  :class:`~repro.linkage.blocking.TokenStream` via ``np.unique`` over
  combined ``(key, row)`` integer keys — no per-name Python loops;
* the perfect-match table and the character-count matrices are built lazily
  on first use, so constructing (or unpickling) an index does no per-row
  Python work at all;
* pickling (:meth:`__getstate__`) serializes only the flat buffers — padded
  matrices and lazy caches are rebuilt on load — and :meth:`shard` splits an
  index into row-range shards whose :meth:`match_many` results merge back
  (:meth:`merge_matches`) bit-identically to the unsharded answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import LinkageError
from repro.linkage.blocking import (
    BlockingIndex,
    _compact_ints,
    tokenize_corpus,
)
from repro.linkage.kernels import (
    PAD,
    encode_query,
    encode_strings_flat,
    jaro_winkler_similarity_batch,
    jaro_winkler_similarity_pairs,
    levenshtein_similarity_batch,
    levenshtein_similarity_pairs,
    pad_ragged,
    token_jaccard_batch,
)
from repro.linkage.normalize import normalize_name, normalize_names

__all__ = ["MatchCandidate", "LinkageIndex"]

#: Placeholder distinguishing "never computed" from a computed ``None``.
_UNSET = object()


def _char_counts(
    flat_codes: np.ndarray, lengths: np.ndarray, alphabet: np.ndarray
) -> np.ndarray | None:
    """Per-row count of every ``alphabet`` code, or ``None`` if a code is missing.

    ``flat_codes`` holds the rows' codes back to back (``lengths`` per row);
    ``alphabet`` is ascending.
    """
    top = max(int(alphabet[-1]), int(flat_codes.max(initial=0)))
    lookup = np.full(top + 1, -1, dtype=np.int64)
    lookup[alphabet] = np.arange(alphabet.size, dtype=np.int64)
    positions = lookup[flat_codes]
    if (positions < 0).any():
        return None
    n_rows = lengths.shape[0]
    row_of_char = np.repeat(np.arange(n_rows, dtype=np.int64), lengths.astype(np.int64))
    return (
        np.bincount(
            row_of_char * alphabet.size + positions, minlength=n_rows * alphabet.size
        )
        .reshape(n_rows, alphabet.size)
        .astype(np.int32)
    )


def _jaccard(
    shared: np.ndarray, query_counts: np.ndarray, row_counts: np.ndarray
) -> np.ndarray:
    """Token-set Jaccard from shared-token counts and both sides' set sizes.

    The integer operands and the division of
    :func:`~repro.linkage.kernels.token_jaccard_pairs`, so the result is
    bit-identical to it; the union is never 0 (a query holds a token).
    """
    return shared / (query_counts + row_counts - shared)


def _overlap_floor(
    length: int, lengths: np.ndarray, prefix: int, prefix_scale: float, cutoff: float
) -> np.ndarray:
    """``T(m, len, p)``: the least character overlap that can reach ``cutoff``.

    For a length-``m`` query and a length-``len`` row with Winkler prefix
    ``p`` and character-multiset overlap ``c``, edit distance is at least
    ``max(m, len) - c``, so ``lev <= c / max(m, len)``, and Jaro matches are
    at most ``c``, so ``jaro <= (c/m + c/len + 1) / 3``; the blend
    ``0.6 * jaro_winkler + 0.4 * lev`` is at most the same blend of those
    bounds.  Returns, per value of ``lengths``, the smallest integer ``c`` in
    ``[0, m]`` whose bound reaches ``cutoff``, or ``m + 1`` when none does.
    The bound grows with ``c`` by at least ``0.4 / max(m, len)`` per step
    (the Levenshtein term; the Jaro-Winkler term never falls), far above
    float rounding, so a vectorized binary search over ``c`` finds it.
    """
    low = np.zeros(lengths.shape, dtype=np.int64)
    high = np.full(lengths.shape, length + 1, dtype=np.int64)
    longest = np.maximum(np.maximum(length, lengths), 1)
    while True:
        searching = low < high
        if not searching.any():
            return low
        common = (low + high) // 2
        jaro_bound = np.where(
            common > 0,
            (common / length + common / np.maximum(lengths, 1) + 1.0) / 3.0,
            0.0,
        )
        jw_bound = jaro_bound + prefix * prefix_scale * (1.0 - jaro_bound)
        passes = 0.6 * jw_bound + 0.4 * (common / longest) >= cutoff
        high = np.where(searching & passes, common, high)
        low = np.where(searching & ~passes, common + 1, low)


@dataclass(frozen=True)
class MatchCandidate:
    """A candidate match of a query name against a corpus entry."""

    query: str
    candidate: str
    candidate_index: int
    score: float


class LinkageIndex:
    """Batched approximate name matcher over a fixed corpus.

    Parameters
    ----------
    corpus_names:
        The names known to the auxiliary source (web page owners).
    threshold:
        Minimum composite similarity for a match to be reported.
    blocking:
        Blocking scheme (see :data:`~repro.linkage.blocking.BLOCKING_SCHEMES`):
        ``"qgram"`` (default; multi-key q-gram/token/first-letter),
        ``"first-letter"`` (the historical scheme) or ``"none"`` (full scan).
    qgram_size:
        Character q-gram width used by the ``"qgram"`` scheme.
    prefix_scale:
        Jaro-Winkler common-prefix boost factor, in ``[0, 0.25]``.
    """

    def __init__(
        self,
        corpus_names: Sequence[str],
        threshold: float = 0.82,
        blocking: str = "qgram",
        qgram_size: int = 2,
        prefix_scale: float = 0.1,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise LinkageError(f"threshold must lie in (0, 1], got {threshold}")
        if not 0.0 <= prefix_scale <= 0.25:
            raise LinkageError("prefix_scale must lie in [0, 0.25]")
        names = [str(name) for name in corpus_names]
        normalized = normalize_names(names)
        flat_codes, lengths = encode_strings_flat(normalized)
        n_rows = len(names)
        # Token counts straight from the code buffer (space code 32): spaces
        # per row plus one for every non-empty row.
        row_of_char = np.repeat(
            np.arange(n_rows, dtype=np.int64), lengths.astype(np.int64)
        )
        spaces = np.bincount(row_of_char[flat_codes == 32], minlength=n_rows)
        stream = tokenize_corpus(normalized, token_counts=spaces + (lengths > 0))
        vocab_size = len(stream.unique)
        # Dedupe (row, token) pairs once; both orderings of the same pair set
        # give the token matrix (grouped by row, ids ascending — exactly the
        # historical per-name ``sorted(set(...))``) and the per-id postings
        # (grouped by id, rows ascending).
        stride = np.int64(max(vocab_size, 1))
        pairs = np.sort(
            _compact_ints(stream.rows * stride + stream.ids, n_rows * int(stride))
        )
        if pairs.size:
            pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
        pair_rows = (pairs // stride).astype(np.intp)
        pair_ids = pairs % stride
        token_counts = np.bincount(pair_rows, minlength=n_rows).astype(np.int64)
        # pair_rows is ascending, so a stable sort by id keeps rows ascending
        # within each id group — the postings invariant.
        by_id = np.argsort(_compact_ints(pair_ids, vocab_size), kind="stable")
        post_counts = np.bincount(pair_ids, minlength=vocab_size)
        name_lengths = np.fromiter(
            (len(name) for name in names), dtype=np.int64, count=n_rows
        )
        self._attach_buffers(
            threshold=threshold,
            prefix_scale=prefix_scale,
            row_offset=0,
            names_joined="".join(names),
            name_offsets=np.concatenate(([0], np.cumsum(name_lengths))),
            flat_codes=flat_codes,
            lengths=lengths,
            vocab=stream.unique,
            token_ids=pair_ids,
            token_counts=token_counts,
            post_rows=pair_rows[by_id],
            post_offsets=np.concatenate(([0], np.cumsum(post_counts))),
            blocking=BlockingIndex(
                normalized, scheme=blocking, qgram_size=qgram_size, tokens=stream
            ),
        )

    def _attach_buffers(
        self,
        *,
        threshold: float,
        prefix_scale: float,
        row_offset: int,
        names_joined: str,
        name_offsets: np.ndarray,
        flat_codes: np.ndarray,
        lengths: np.ndarray,
        vocab: tuple[str, ...],
        token_ids: np.ndarray,
        token_counts: np.ndarray,
        post_rows: np.ndarray,
        post_offsets: np.ndarray,
        blocking: BlockingIndex,
    ) -> None:
        """Adopt the flat buffers and rebuild the derived padded matrices.

        The buffers are the index's canonical state (what pickling ships and
        :meth:`shard` slices); everything else — padded code/token matrices,
        the vocabulary dict, the perfect-match table, pruning counts, the
        materialized name list — is derived, vectorized or lazy.
        """
        self.threshold = threshold
        self.prefix_scale = prefix_scale
        #: Global row number of this index's row 0 (non-zero only for shards);
        #: added to every reported ``candidate_index``.
        self.row_offset = row_offset
        self._names_joined = names_joined
        self._name_offsets = name_offsets
        self._flat_codes = flat_codes
        self._lengths = lengths
        self._codes = pad_ragged(flat_codes, lengths, PAD, np.int32)
        self._vocab = vocab
        self._vocabulary = {token: i for i, token in enumerate(vocab)}
        self._token_ids = token_ids
        self._token_counts = token_counts
        self._token_matrix = pad_ragged(token_ids, token_counts, PAD, np.int64)
        self._token_post_rows = post_rows
        self._token_post_offsets = post_offsets
        self._blocking = blocking
        self._names_list: list[str] | None = None
        self._perfect_cache: dict[bytes, int] | None = None
        self._char_cache: tuple[np.ndarray, np.ndarray] | None | object = _UNSET
        self._saturated_cache: np.ndarray | None = None
        self._floor_cache: dict[tuple[int, int], np.ndarray] = {}
        #: Grow-by-doubling capacity buffers backing :meth:`extend`, keyed by
        #: buffer name; reset whenever fresh buffers are adopted.
        self._growable: dict[str, np.ndarray] = {}

    # Introspection ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of corpus entries in the index."""
        return int(self._lengths.shape[0])

    @property
    def names(self) -> tuple[str, ...]:
        """The corpus names, in index order."""
        return tuple(self._materialized_names())

    @property
    def blocking(self) -> BlockingIndex:
        """The blocking index (scheme, keys, candidate sets)."""
        return self._blocking

    def _materialized_names(self) -> list[str]:
        if self._names_list is None:
            joined, offsets = self._names_joined, self._name_offsets
            self._names_list = [
                joined[int(offsets[i]) : int(offsets[i + 1])]
                for i in range(offsets.shape[0] - 1)
            ]
        return self._names_list

    def _name_at(self, row: int) -> str:
        if self._names_list is not None:
            return self._names_list[row]
        offsets = self._name_offsets
        return self._names_joined[int(offsets[row]) : int(offsets[row + 1])]

    # Lazy derived state -------------------------------------------------------------

    def _perfect_rows(self) -> dict[bytes, int]:
        """Lowest corpus row per token *set*, keyed by the row's padded id bytes.

        The composite score hits exactly 1.0 iff the token sets are equal
        (token-Jaccard is 1.0 only then, and the 0.6/0.4 blend reaches 1.0
        only for identical strings, which have equal token sets a fortiori),
        so a query whose token set is in this table resolves to its lowest-row
        perfect match without touching the kernels — exactly what argmax-first
        over all candidates returns.  Built on first use: rows are fed in
        descending order so the lowest row wins each key.
        """
        if self._perfect_cache is None:
            matrix = np.ascontiguousarray(self._token_matrix)
            row_bytes = matrix.tobytes()
            stride = matrix.shape[1] * matrix.itemsize
            mapping: dict[bytes, int] = {}
            for row in np.flatnonzero(self._token_counts > 0)[::-1].tolist():
                mapping[row_bytes[row * stride : (row + 1) * stride]] = row
            self._perfect_cache = mapping
        return self._perfect_cache

    def _perfect_row(self, normalized_query: str) -> int | None:
        """The lowest corpus row whose token set equals the query's, if any."""
        ids = []
        for token in set(normalized_query.split()):
            token_id = self._vocabulary.get(token)
            if token_id is None:
                return None
            ids.append(token_id)
        width = self._token_matrix.shape[1]
        if len(ids) > width:
            return None
        ids.sort()
        key = np.full(width, PAD, dtype=np.int64)
        key[: len(ids)] = ids
        return self._perfect_rows().get(key.tobytes())

    def _char_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The corpus alphabet and every row's count of each of its characters.

        Normalized names draw from ``[a-z ]``, so the alphabet is at most 27
        codes.  ``None`` when no corpus row has a character (an empty or
        all-blank corpus).  Built on first use.
        """
        if self._char_cache is _UNSET:
            flat = self._flat_codes
            if flat.size:
                alphabet = np.flatnonzero(np.bincount(flat)).astype(flat.dtype)
                counts = _char_counts(flat, self._lengths, alphabet)
                self._char_cache = (alphabet, counts)
            else:
                self._char_cache = None
        return self._char_cache

    def _saturated_counts(self) -> np.ndarray:
        """:meth:`_char_bounds` counts transposed to ``(alphabet, rows)`` uint8.

        Counts saturate at 255, which keeps ``min(q_a, r_a)`` exact for every
        query count ``q_a <= 255`` (see :meth:`_viable_pairs`) at one byte per
        cell, whatever the longest corpus name.  Built on first use; only
        called when :meth:`_char_bounds` is not ``None``.
        """
        if self._saturated_cache is None:
            _, counts = self._char_bounds()
            self._saturated_cache = np.ascontiguousarray(
                np.minimum(counts, 255).T.astype(np.uint8)
            )
        return self._saturated_cache

    def _overlap_floors(self, length: int, prefix: int) -> np.ndarray:
        """:func:`_overlap_floor` for every row length ``0 .. width``, memoised."""
        floors = self._floor_cache.get((length, prefix))
        if floors is None:
            floors = _overlap_floor(
                length,
                np.arange(self._codes.shape[1] + 1, dtype=np.int64),
                prefix,
                self.prefix_scale,
                self.threshold - self._PRUNE_SLACK,
            )
            self._floor_cache[(length, prefix)] = floors
        return floors

    # Scoring ------------------------------------------------------------------------

    def candidate_rows(self, query: str) -> np.ndarray:
        """Corpus rows the blocking scheme pairs with ``query`` (ascending).

        Rows are local to this index (a shard's rows start at 0; add
        :attr:`row_offset` for the global row).
        """
        return self._blocking.candidate_rows(normalize_name(query))

    def scores(self, query: str, rows: np.ndarray | None = None) -> np.ndarray:
        """Composite similarity of ``query`` against corpus rows (default: all).

        Bit-identical to calling the scalar
        :func:`repro.fusion.linkage.name_similarity` per pair.
        """
        normalized_query = normalize_name(query)
        if rows is None:
            rows = np.arange(self.size, dtype=np.intp)
        if not normalized_query:
            return np.zeros(len(rows))
        return self._score_rows(normalized_query, rows)

    def _score_rows(self, normalized_query: str, rows: np.ndarray) -> np.ndarray:
        query_codes = encode_query(normalized_query)
        codes = self._codes[rows]
        lengths = self._lengths[rows]
        jaro_winkler = jaro_winkler_similarity_batch(
            query_codes, codes, lengths, self.prefix_scale
        )
        levenshtein = levenshtein_similarity_batch(query_codes, codes, lengths)
        query_tokens = set(normalized_query.split())
        known_ids = np.fromiter(
            (self._vocabulary[t] for t in query_tokens if t in self._vocabulary),
            dtype=np.int64,
        )
        token_set = token_jaccard_batch(
            known_ids,
            self._token_matrix[rows],
            self._token_counts[rows],
            len(query_tokens),
        )
        return np.maximum(0.6 * jaro_winkler + 0.4 * levenshtein, token_set)

    # Matching -----------------------------------------------------------------------

    def candidates(self, query: str) -> list[MatchCandidate]:
        """All corpus entries scoring above the threshold, best first.

        Ties keep ascending corpus order, exactly like a scalar scan of the
        corpus (stable sort over candidates visited in index order).
        """
        query = str(query)
        normalized_query = normalize_name(query)
        if not normalized_query:
            return []
        rows = self._blocking.candidate_rows(normalized_query)
        if rows.size == 0:
            return []
        scores = self._score_rows(normalized_query, rows)
        keep = scores >= self.threshold
        rows, scores = rows[keep], scores[keep]
        order = np.argsort(-scores, kind="stable")
        return [
            MatchCandidate(
                query=query,
                candidate=self._name_at(int(row)),
                candidate_index=int(row) + self.row_offset,
                score=float(score),
            )
            for row, score in zip(rows[order], scores[order])
        ]

    def best_match(self, query: str) -> MatchCandidate | None:
        """The single best match above the threshold, or ``None``.

        Equivalent to ``candidates(query)[0]`` without materializing the list
        (``argmax`` keeps the lowest corpus row on ties, like the stable sort).
        """
        query = str(query)
        normalized_query = normalize_name(query)
        if not normalized_query:
            return None
        perfect = self._perfect_row(normalized_query)
        if perfect is not None:
            # A 1.0-scoring candidate exists; every blocking scheme pairs it
            # with the query (equal token sets share every token key), and no
            # lower row can tie it (ties at 1.0 are exactly the equal-set rows,
            # of which this is the lowest).
            return MatchCandidate(
                query=query,
                candidate=self._name_at(perfect),
                candidate_index=perfect + self.row_offset,
                score=1.0,
            )
        rows = self._blocking.candidate_rows(normalized_query)
        if rows.size == 0:
            return None
        scores = self._score_rows(normalized_query, rows)
        best = int(np.argmax(scores))
        if scores[best] < self.threshold:
            return None
        return MatchCandidate(
            query=query,
            candidate=self._name_at(int(rows[best])),
            candidate_index=int(rows[best]) + self.row_offset,
            score=float(scores[best]),
        )

    #: Upper bound on the (query, corpus row) cells of one match_many chunk,
    #: and so on the pairs one pairwise kernel call scores; keeps the filter
    #: grid and the DP working set a few dozen MB regardless of batch size.
    _MAX_PAIRS_PER_CHUNK = 262_144

    def match_many(self, queries: Sequence[str]) -> list[MatchCandidate | None]:
        """The best match for every query, in query order.

        Repeated queries are resolved once, and perfect matches through the
        token-set table.  The other unique queries are bucketed by
        normalized length and resolved in chunks of at most
        :attr:`_MAX_PAIRS_PER_CHUNK` (query, corpus row) cells (one query
        per chunk when the corpus is larger):
        :meth:`_viable_pairs` filters each chunk against every corpus row at
        once, and :meth:`_resolve_pair_chunk` scores the survivors.  The
        answers are bit-identical to calling :meth:`best_match` per query
        (same scores, same lowest-row tie-breaking, same threshold test).
        """
        resolved: dict[str, MatchCandidate | None] = {}
        pending: dict[int, list[tuple[str, str]]] = {}
        seen: set[str] = set()
        for query in queries:
            query = str(query)
            if query in seen:
                continue
            seen.add(query)
            normalized = normalize_name(query)
            if not normalized:
                resolved[query] = None
                continue
            perfect = self._perfect_row(normalized)
            if perfect is not None:
                resolved[query] = MatchCandidate(
                    query=query,
                    candidate=self._name_at(perfect),
                    candidate_index=perfect + self.row_offset,
                    score=1.0,
                )
                continue
            pending.setdefault(len(normalized), []).append((query, normalized))
        if pending and self._char_bounds() is None:
            # Every corpus name normalizes to "": each pair scores exactly 0,
            # below any threshold.
            for entries in pending.values():
                resolved.update((query, None) for query, _ in entries)
            pending = {}
        per_chunk = max(1, self._MAX_PAIRS_PER_CHUNK // max(self.size, 1))
        for entries in pending.values():
            for start in range(0, len(entries), per_chunk):
                self._resolve_pair_chunk(entries[start : start + per_chunk], resolved)
        return [resolved[str(query)] for query in queries]

    #: Slack subtracted from the threshold in the pruning bound comparison so
    #: float rounding in the bound arithmetic can only *keep* extra pairs,
    #: never drop one whose true score reaches the threshold.
    _PRUNE_SLACK = 1e-9

    def _viable_pairs(
        self, entries: Sequence[tuple[str, str]], query_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (query, row) pairs of one chunk that can reach the threshold.

        ``entries`` share one normalized length ``m``; ``query_codes`` is
        their ``(n, m)`` code matrix.  Every test runs on the dense
        ``(n, rows)`` grid, so no pair is materialized before it survives:

        1. **Count filter.**  A pair's Levenshtein/Jaro-Winkler blend is
           bounded through its character overlap ``c = sum_a min(q_a, r_a)``,
           so it can reach the threshold only if ``c >= T(m, len, p)``
           (:func:`_overlap_floor`, memoised per ``(m, p)``).  ``c`` is
           computed exactly for every pair: per alphabet character, one
           ``min(r_a, q)`` row for each distinct query count ``q`` is
           gathered onto the grid and added (on :meth:`_saturated_counts`
           for queries of at most 255 characters, so overlaps fit a byte).
           The Winkler prefix ``p`` is taken at its maximum,
           ``min(4, m, width)``.
        2. **Token branch.**  One ``bincount`` over the query tokens'
           postings counts every pair's shared tokens (ScanCount), giving
           the exact token-set Jaccard with the integer operands and division
           of :func:`~repro.linkage.kernels.token_jaccard_pairs`; a pair also
           survives when that reaches the threshold.
        3. **Blocking.**  Survivors must lie in the query's candidate set
           (:meth:`~repro.linkage.blocking.BlockingIndex.candidate_mask`).
        4. **Exact prefix.**  Survivors are tested again with their exact
           (at most 4-character) common prefix.

        A pair dropped by any test scores strictly below the threshold, so
        it can neither win nor tie.  Returns ``(pair_query, pair_rows,
        token_set)``, ordered by query then row, with each pair's Jaccard.
        """
        n_queries, length = query_codes.shape
        n_rows = self.size
        alphabet, char_counts = self._char_bounds()
        window = min(4, length, self._codes.shape[1])
        cutoff = self.threshold - self._PRUNE_SLACK

        query_counts = (query_codes[:, :, None] == alphabet).sum(axis=1)
        if length <= 255:
            row_counts, dtype = self._saturated_counts(), np.uint8
        else:
            row_counts, dtype = char_counts.T, np.int32
        overlap = np.zeros((n_queries, n_rows), dtype=dtype)
        scratch = np.empty_like(overlap)
        for code, column in enumerate(query_counts.T):
            # One min(r_a, q) row per distinct query count q, gathered onto
            # the grid: array-array minimums, never a per-cell broadcast.
            values = np.flatnonzero(np.bincount(column))
            if values[-1] == 0:
                continue
            capped = np.empty((values.size, n_rows), dtype=dtype)
            for row, value in zip(capped, values):
                row.fill(value)
                np.minimum(row, row_counts[code], out=row)
            np.take(capped, np.searchsorted(values, column), axis=0, out=scratch)
            overlap += scratch
        viable = overlap >= self._overlap_floors(length, window)[self._lengths]

        shared, query_tokens = self._shared_tokens(entries)
        hits = np.flatnonzero(shared)
        hit_query, hit_rows = np.divmod(hits, n_rows)
        jaccard = _jaccard(
            shared[hits], query_tokens[hit_query], self._token_counts[hit_rows]
        )
        viable.ravel()[hits[jaccard >= cutoff]] = True

        blocked = self._blocking.candidate_mask([normalized for _, normalized in entries])
        if blocked is not None:
            viable &= blocked
        pairs = np.flatnonzero(viable)
        pair_query, pair_rows = np.divmod(pairs, n_rows)

        equal = self._codes[pair_rows, :window] == query_codes[pair_query, :window]
        prefix = equal.cumprod(axis=1).sum(axis=1)
        floors = np.stack([self._overlap_floors(length, p) for p in range(window + 1)])
        token_set = _jaccard(
            shared[pairs], query_tokens[pair_query], self._token_counts[pair_rows]
        )
        keep = (overlap.ravel()[pairs] >= floors[prefix, self._lengths[pair_rows]]) | (
            token_set >= cutoff
        )
        return pair_query[keep], pair_rows[keep], token_set[keep]

    def _shared_tokens(
        self, entries: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared-token counts of every (query, row) pair, plus query token counts.

        ScanCount: the posting rows of every known query token are gathered
        into one flat array and counted with a single ``bincount`` over
        ``query * rows + row``.  Returns the flat ``(n * rows,)`` count grid
        and each query's number of distinct tokens (unknown ones included).
        """
        n_rows = self.size
        query_tokens = np.empty(len(entries), dtype=np.int64)
        owners: list[int] = []
        ids: list[int] = []
        for row, (_, normalized) in enumerate(entries):
            tokens = set(normalized.split())
            query_tokens[row] = len(tokens)
            known = [self._vocabulary[t] for t in tokens if t in self._vocabulary]
            owners.extend([row] * len(known))
            ids.extend(known)
        token_ids = np.asarray(ids, dtype=np.int64)
        starts = self._token_post_offsets[token_ids]
        sizes = self._token_post_offsets[token_ids + 1] - starts
        positions = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(
            sizes.sum()
        )
        shared = np.bincount(
            np.repeat(np.asarray(owners, dtype=np.int64), sizes) * n_rows
            + self._token_post_rows[positions],
            minlength=len(entries) * n_rows,
        )
        return shared, query_tokens

    def _resolve_pair_chunk(
        self,
        entries: Sequence[tuple[str, str]],
        resolved: dict[str, MatchCandidate | None],
    ) -> None:
        """Score one equal-length chunk's viable pairs and record the winners.

        The pairs :meth:`_viable_pairs` keeps run through the pairwise DP
        kernels; a per-query segment argmax (lowest row on ties) and the
        threshold test then pick each query's answer.  Pruned pairs score
        strictly below the threshold, so the survivors' argmax is the global
        answer, bit-identical to :meth:`best_match` (pinned by the
        hypothesis suite).
        """
        query_codes = np.stack([encode_query(normalized) for _, normalized in entries])
        pair_query, pair_rows, token_set = self._viable_pairs(entries, query_codes)
        scores = token_set
        if pair_rows.size:
            queries = query_codes[pair_query]
            codes = self._codes[pair_rows]
            lengths = self._lengths[pair_rows]
            jaro_winkler = jaro_winkler_similarity_pairs(
                queries, codes, lengths, self.prefix_scale
            )
            levenshtein = levenshtein_similarity_pairs(queries, codes, lengths)
            scores = np.maximum(0.6 * jaro_winkler + 0.4 * levenshtein, token_set)
        bounds = np.searchsorted(pair_query, np.arange(len(entries) + 1))
        for (query, _), lo, hi in zip(entries, bounds[:-1], bounds[1:]):
            resolved[query] = None
            if lo == hi:
                continue
            best = int(lo) + int(np.argmax(scores[lo:hi]))
            if scores[best] >= self.threshold:
                row = int(pair_rows[best])
                resolved[query] = MatchCandidate(
                    query=query,
                    candidate=self._name_at(row),
                    candidate_index=row + self.row_offset,
                    score=float(scores[best]),
                )

    # Incremental growth ---------------------------------------------------------------

    def _grown(self, key: str, old: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Append ``delta`` after ``old`` inside an amortized-O(1) capacity buffer.

        Returns a length-exact view over a private buffer that doubles when
        full, so a stream of small :meth:`extend` calls copies each element
        O(1) times instead of reallocating every flat buffer per call.
        """
        total = old.shape[0] + delta.shape[0]
        buffer = self._growable.get(key)
        if buffer is None or old.base is not buffer or buffer.shape[0] < total:
            buffer = np.empty(max(total, 2 * old.shape[0], 8), dtype=old.dtype)
            buffer[: old.shape[0]] = old
            self._growable[key] = buffer
        buffer[old.shape[0] : total] = delta
        return buffer[:total]

    def _grown_matrix(
        self, key: str, old: np.ndarray, delta: np.ndarray, width: int, pad: int
    ) -> np.ndarray:
        """Row-append ``delta`` under ``old``, re-padding only when ``width`` grew.

        Capacity rows are pre-filled with ``pad`` at allocation and written
        exactly once, so the result is cell-identical to padding the full
        ragged buffer from scratch at the new width.
        """
        total = old.shape[0] + delta.shape[0]
        buffer = self._growable.get(key)
        if (
            buffer is None
            or old.base is not buffer
            or buffer.shape[0] < total
            or buffer.shape[1] != width
        ):
            buffer = np.full(
                (max(total, 2 * old.shape[0], 8), width), pad, dtype=old.dtype
            )
            buffer[: old.shape[0], : old.shape[1]] = old
            self._growable[key] = buffer
        buffer[old.shape[0] : total, : delta.shape[1]] = delta
        return buffer[:total]

    def extend(self, corpus_names: Sequence[str]) -> None:
        """Append ``corpus_names`` to the corpus, updating every artifact in place.

        Bit-identical to building a fresh index over ``old + new`` names
        (pinned artifact-by-artifact by the hypothesis suite): the delta is
        normalized, encoded and tokenized alone (batch normalization is
        per-name, so slicing commutes with it), new vocabulary ids continue
        the first-appearance numbering, the per-id postings receive the new
        rows through one vectorized splice, and the padded code/token
        matrices re-pad only when the delta grows the corpus maximum width.
        Flat buffers live in grow-by-doubling capacity arrays
        (:meth:`_grown`), so appending N rows costs O(N) amortized encode
        work plus one O(corpus) postings memcpy — no re-normalization,
        re-tokenization or re-sort of the existing rows.  The lazy
        perfect-match and char-count caches are patched in place when the
        append leaves their shape valid and invalidated otherwise; the
        match_many filter caches (saturated counts, overlap floors) are
        dropped.  Extending a :meth:`shard` appends rows at the shard's end.
        """
        names = [str(name) for name in corpus_names]
        if not names:
            return
        old_n = self.size
        delta_n = len(names)
        normalized = normalize_names(names)
        flat_codes, lengths = encode_strings_flat(normalized)
        row_of_char = np.repeat(
            np.arange(delta_n, dtype=np.int64), lengths.astype(np.int64)
        )
        spaces = np.bincount(row_of_char[flat_codes == 32], minlength=delta_n)
        stream = tokenize_corpus(normalized, token_counts=spaces + (lengths > 0))

        # Vocabulary ids continue the global first-appearance numbering: a
        # delta token unseen so far gets the next free id, in delta order —
        # exactly the numbering a full rebuild assigns.
        old_vocab_size = len(self._vocab)
        new_tokens: list[str] = []
        mapping = np.empty(len(stream.unique), dtype=np.int64)
        for local_id, token in enumerate(stream.unique):
            global_id = self._vocabulary.get(token)
            if global_id is None:
                global_id = old_vocab_size + len(new_tokens)
                new_tokens.append(token)
            mapping[local_id] = global_id
        vocab_size = old_vocab_size + len(new_tokens)

        # Dedupe the delta's (row, token) pairs exactly like ``__init__``;
        # old and new rows are disjoint, so the full corpus's deduped pair
        # set is the concatenation of the old pairs with these.
        global_rows = stream.rows + old_n
        mapped_ids = mapping[stream.ids]
        stride = np.int64(max(vocab_size, 1))
        pairs = np.sort(
            _compact_ints(
                global_rows * stride + mapped_ids, (old_n + delta_n) * int(stride)
            )
        )
        if pairs.size:
            pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
        delta_pair_rows = (pairs // stride).astype(np.intp)
        delta_pair_ids = pairs % stride
        delta_token_counts = np.bincount(
            delta_pair_rows - old_n, minlength=delta_n
        ).astype(np.int64)

        # Postings splice: every id's rows stay ascending (new rows exceed
        # all old ones), so the spliced arrays equal a rebuild's stable
        # id-sort over the combined pair set.
        old_post_rows = self._token_post_rows
        old_offsets = self._token_post_offsets
        old_counts = np.diff(old_offsets)
        padded_old_counts = np.zeros(vocab_size, dtype=np.int64)
        padded_old_counts[:old_vocab_size] = old_counts
        delta_post_counts = np.bincount(delta_pair_ids, minlength=vocab_size)
        new_post_offsets = np.concatenate(
            ([0], np.cumsum(padded_old_counts + delta_post_counts))
        )
        new_post_rows = np.empty(
            old_post_rows.shape[0] + delta_pair_rows.shape[0], dtype=np.intp
        )
        if old_post_rows.size:
            shift = new_post_offsets[:old_vocab_size] - old_offsets[:-1]
            ids_per_old = np.repeat(
                np.arange(old_vocab_size, dtype=np.int64), old_counts
            )
            new_post_rows[
                np.arange(old_post_rows.shape[0]) + shift[ids_per_old]
            ] = old_post_rows
        if delta_pair_rows.size:
            by_id = np.argsort(
                _compact_ints(delta_pair_ids, vocab_size), kind="stable"
            )
            within = np.arange(
                delta_pair_rows.shape[0], dtype=np.int64
            ) - np.repeat(
                np.concatenate(([0], np.cumsum(delta_post_counts)[:-1])),
                delta_post_counts,
            )
            targets = (
                np.repeat(
                    new_post_offsets[:-1] + padded_old_counts, delta_post_counts
                )
                + within
            )
            new_post_rows[targets] = delta_pair_rows[by_id]

        new_width = max(self._codes.shape[1], max(int(lengths.max(initial=0)), 1))
        new_token_width = max(
            self._token_matrix.shape[1],
            max(int(delta_token_counts.max(initial=0)), 1),
        )
        token_width_grew = new_token_width > self._token_matrix.shape[1]
        delta_codes = pad_ragged(flat_codes, lengths, PAD, np.int32)
        delta_token_matrix = pad_ragged(
            delta_pair_ids, delta_token_counts, PAD, np.int64
        )
        delta_name_lengths = np.fromiter(
            (len(name) for name in names), dtype=np.int64, count=delta_n
        )

        # Adopt the grown buffers.
        self._names_joined += "".join(names)
        self._name_offsets = self._grown(
            "name_offsets",
            self._name_offsets,
            self._name_offsets[-1] + np.cumsum(delta_name_lengths),
        )
        self._flat_codes = self._grown("flat_codes", self._flat_codes, flat_codes)
        self._lengths = self._grown("lengths", self._lengths, lengths)
        self._codes = self._grown_matrix(
            "codes", self._codes, delta_codes, new_width, PAD
        )
        self._vocab = self._vocab + tuple(new_tokens)
        for i, token in enumerate(new_tokens):
            self._vocabulary[token] = old_vocab_size + i
        self._token_ids = self._grown("token_ids", self._token_ids, delta_pair_ids)
        self._token_counts = self._grown(
            "token_counts", self._token_counts, delta_token_counts
        )
        self._token_matrix = self._grown_matrix(
            "token_matrix", self._token_matrix, delta_token_matrix, new_token_width, PAD
        )
        self._token_post_rows = new_post_rows
        self._token_post_offsets = new_post_offsets
        self._blocking.extend(delta_n, stream)

        # Patch or invalidate the lazy caches.
        if self._names_list is not None:
            self._names_list.extend(names)
        if self._perfect_cache is not None:
            if token_width_grew:
                # Every key's padding changed width; rebuild lazily.
                self._perfect_cache = None
            else:
                matrix = np.ascontiguousarray(self._token_matrix[old_n:])
                row_bytes = matrix.tobytes()
                stride_bytes = matrix.shape[1] * matrix.itemsize
                cache = self._perfect_cache
                # Delta rows ascend, and every cached row is lower still, so
                # setdefault keeps the lowest row per key — the rebuild rule.
                for local in np.flatnonzero(delta_token_counts > 0).tolist():
                    cache.setdefault(
                        row_bytes[local * stride_bytes : (local + 1) * stride_bytes],
                        old_n + local,
                    )
        self._saturated_cache = None
        self._floor_cache = {}
        if self._char_cache is None:
            # The corpus was blank so far; rebuild lazily.
            self._char_cache = _UNSET
        elif self._char_cache is not _UNSET:
            alphabet, counts = self._char_cache
            delta_counts = _char_counts(flat_codes, lengths, alphabet)
            # New characters widen the alphabet; rebuild lazily.
            self._char_cache = (
                _UNSET
                if delta_counts is None
                else (alphabet, np.concatenate([counts, delta_counts]))
            )

    # Serialization / sharding ---------------------------------------------------------

    def __getstate__(self) -> dict:
        """Only the flat buffers go on the wire.

        Padded matrices, the vocabulary dict and the lazy caches are rebuilt
        by :meth:`__setstate__`, so pickling an index (process-pool sweeps,
        cache spill) costs one contiguous copy per buffer instead of a deep
        object graph.
        """
        return {
            "version": 1,
            "threshold": self.threshold,
            "prefix_scale": self.prefix_scale,
            "row_offset": self.row_offset,
            "names_joined": self._names_joined,
            "name_offsets": self._name_offsets,
            "flat_codes": np.ascontiguousarray(self._flat_codes),
            "lengths": self._lengths,
            "vocab": " ".join(self._vocab),  # tokens are space-free and non-empty
            "token_ids": self._token_ids,
            "token_counts": self._token_counts,
            "post_rows": self._token_post_rows,
            "post_counts": np.diff(self._token_post_offsets),
            "blocking": self._blocking,
        }

    def __setstate__(self, state: dict) -> None:
        vocab = tuple(state["vocab"].split(" ")) if state["vocab"] else ()
        self._attach_buffers(
            threshold=state["threshold"],
            prefix_scale=state["prefix_scale"],
            row_offset=state["row_offset"],
            names_joined=state["names_joined"],
            name_offsets=state["name_offsets"],
            flat_codes=state["flat_codes"],
            lengths=state["lengths"],
            vocab=vocab,
            token_ids=state["token_ids"],
            token_counts=state["token_counts"],
            post_rows=state["post_rows"],
            post_offsets=np.concatenate(
                ([0], np.cumsum(state["post_counts"], dtype=np.int64))
            ),
            blocking=state["blocking"],
        )

    def shard(self, n_shards: int) -> list["LinkageIndex"]:
        """Split the index into ``n_shards`` contiguous row-range shards.

        Each shard is a self-contained :class:`LinkageIndex` over its row
        slice (sharing the global vocabulary, so token ids stay comparable)
        whose reported ``candidate_index`` values are global corpus rows via
        :attr:`row_offset`.  Running :meth:`match_many` per shard and folding
        with :meth:`merge_matches` reproduces the unsharded result exactly:
        scores are per-pair, blocking is row-local, and the score-then-index
        merge order equals the full argmax's lowest-row tie-breaking.
        """
        if n_shards < 1:
            raise LinkageError(f"n_shards must be >= 1, got {n_shards}")
        base, extra = divmod(self.size, n_shards)
        shards, start = [], 0
        for i in range(n_shards):
            stop = start + base + (1 if i < extra else 0)
            shards.append(self._slice(start, stop))
            start = stop
        return shards

    def _slice(self, start: int, stop: int) -> "LinkageIndex":
        """A self-contained index over corpus rows ``[start, stop)``."""
        name_offsets = self._name_offsets
        code_offsets = np.concatenate(
            ([0], np.cumsum(self._lengths, dtype=np.int64))
        )
        token_offsets = np.concatenate(
            ([0], np.cumsum(self._token_counts, dtype=np.int64))
        )
        vocab_size = len(self._vocab)
        posting_rows = self._token_post_rows
        keep = (posting_rows >= start) & (posting_rows < stop)
        ids_per_posting = np.repeat(
            np.arange(vocab_size, dtype=np.int64),
            np.diff(self._token_post_offsets),
        )
        post_counts = np.bincount(ids_per_posting[keep], minlength=vocab_size)
        clone = object.__new__(LinkageIndex)
        clone._attach_buffers(
            threshold=self.threshold,
            prefix_scale=self.prefix_scale,
            row_offset=self.row_offset + start,
            names_joined=self._names_joined[
                int(name_offsets[start]) : int(name_offsets[stop])
            ],
            name_offsets=name_offsets[start : stop + 1] - name_offsets[start],
            flat_codes=self._flat_codes[code_offsets[start] : code_offsets[stop]],
            lengths=self._lengths[start:stop],
            vocab=self._vocab,
            token_ids=self._token_ids[token_offsets[start] : token_offsets[stop]],
            token_counts=self._token_counts[start:stop],
            post_rows=(posting_rows[keep] - start).astype(np.intp),
            post_offsets=np.concatenate(([0], np.cumsum(post_counts))),
            blocking=self._blocking.restrict(start, stop),
        )
        return clone

    @staticmethod
    def merge_matches(
        shard_matches: Sequence[Sequence[MatchCandidate | None]],
    ) -> list[MatchCandidate | None]:
        """Fold per-shard :meth:`match_many` results into the global answer.

        Per query: highest score wins, ties go to the lowest (global)
        ``candidate_index`` — exactly the unsharded index's argmax-lowest-row
        rule, since shards hold disjoint contiguous row ranges.
        """
        if not shard_matches:
            return []
        merged: list[MatchCandidate | None] = []
        for results in zip(*shard_matches, strict=True):
            best: MatchCandidate | None = None
            for candidate in results:
                if candidate is None:
                    continue
                if (
                    best is None
                    or candidate.score > best.score
                    or (
                        candidate.score == best.score
                        and candidate.candidate_index < best.candidate_index
                    )
                ):
                    best = candidate
            merged.append(best)
        return merged
