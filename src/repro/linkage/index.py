"""The batched record-linkage engine.

:class:`LinkageIndex` is built once per auxiliary corpus and then answers any
number of approximate-match queries against it:

* corpus names are normalized and pre-encoded into a padded ``int32``
  character-code matrix plus a token-id matrix (built once, at index time);
* a query is resolved by blocking (:mod:`repro.linkage.blocking`) to a
  candidate row set, then scored against *all* candidates at once with the
  vectorized kernels of :mod:`repro.linkage.kernels`;
* the composite score is exactly the scalar reference
  (``name_similarity`` in ``tests/linkage_reference.py``):
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
  on first use, so constructing an index does no per-row Python work at all.
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


def _char_counts(
    flat_codes: np.ndarray, lengths: np.ndarray, alphabet: np.ndarray
) -> np.ndarray:
    """Per-row count of every ``alphabet`` code.

    ``flat_codes`` holds the rows' codes back to back (``lengths`` per row);
    ``alphabet`` is ascending and holds every code that occurs in them.
    """
    lookup = np.zeros(int(alphabet[-1]) + 1, dtype=np.int64)
    lookup[alphabet] = np.arange(alphabet.size, dtype=np.int64)
    positions = lookup[flat_codes]
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
        self.threshold = threshold
        self.prefix_scale = prefix_scale
        self._names_joined = "".join(names)
        self._name_offsets = np.concatenate(([0], np.cumsum(name_lengths)))
        self._flat_codes = flat_codes
        self._lengths = lengths
        self._codes = pad_ragged(flat_codes, lengths, PAD, np.int32)
        self._vocabulary = {token: i for i, token in enumerate(stream.unique)}
        self._token_counts = token_counts
        self._token_matrix = pad_ragged(pair_ids, token_counts, PAD, np.int64)
        self._token_post_rows = pair_rows[by_id]
        self._token_post_offsets = np.concatenate(([0], np.cumsum(post_counts)))
        self._blocking = BlockingIndex(
            normalized, scheme=blocking, qgram_size=qgram_size, tokens=stream
        )
        # Derived state built on first use (see "Lazy derived state").
        self._names_list: list[str] | None = None
        self._perfect_cache: dict[bytes, int] | None = None
        self._char_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._saturated_cache: np.ndarray | None = None
        self._floor_cache: dict[tuple[int, int], np.ndarray] = {}

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
        flat = self._flat_codes
        if not flat.size:
            return None
        if self._char_cache is None:
            alphabet = np.flatnonzero(np.bincount(flat)).astype(flat.dtype)
            self._char_cache = (alphabet, _char_counts(flat, self._lengths, alphabet))
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
        """Corpus rows the blocking scheme pairs with ``query`` (ascending)."""
        return self._blocking.candidate_rows(normalize_name(query))

    def scores(self, query: str, rows: np.ndarray | None = None) -> np.ndarray:
        """Composite similarity of ``query`` against corpus rows (default: all).

        Bit-identical to calling the scalar ``name_similarity`` of
        ``tests/linkage_reference.py`` per pair.
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
                candidate_index=int(row),
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
                candidate_index=perfect,
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
            candidate_index=int(rows[best]),
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
                    candidate_index=perfect,
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
                    candidate_index=row,
                    score=float(scores[best]),
                )
