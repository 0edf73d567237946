"""The batched record-linkage engine.

:class:`LinkageIndex` is built once per auxiliary corpus and then answers any
number of approximate-match queries against it, always in storage rows:
:meth:`~LinkageIndex.match_many` gives the best row and score of every query
of a batch, :meth:`~LinkageIndex.candidates` every row of one query that
reaches the threshold.

* corpus names are normalized and pre-encoded into a padded ``int32``
  character-code matrix plus a token-id matrix (built once, at index time);
* the composite score is exactly the scalar reference
  (``name_similarity`` in ``tests/linkage_reference.py``):
  ``max(0.6 * jaro_winkler + 0.4 * levenshtein, token_jaccard)`` on
  normalized names — bit-identical, so the engine reproduces a scalar
  scan of each query's blocking candidates;
* both queries run through one scorer, filter then verify.  Queries of one
  normalized length are taken in chunks and filtered against *every* corpus
  row at once before any (query, row) pair is built: a per-character
  ``minimum``-and-add over the whole grid gives every pair's exact
  character overlap, which bounds its edit-distance score (count filtering);
  one ``bincount`` over token postings gives every pair's exact shared-token
  count (ScanCount); and the blocking keys' postings are scattered into a
  membership mask.  Only the surviving pairs run through the pairwise DP
  kernels (:mod:`repro.linkage.kernels`).  A pruned pair scores below the
  threshold, so the survivors hold every answer;
* :meth:`~LinkageIndex.match_many` resolves a whole batch of queries (the
  release's entire identifier column) in one pass, deduplicating repeated
  queries and answering perfect matches from a token-set table.

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
    jaro_winkler_similarity_pairs,
    levenshtein_similarity_pairs,
    pad_ragged,
)
from repro.linkage.normalize import normalize_name, normalize_names

__all__ = ["LinkageIndex"]


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

    The integer operands and the division of ``token_jaccard_pairs`` in
    ``tests/linkage_reference.py``, so the result is bit-identical to it; the
    union is never 0 (a query holds a token).
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
        self.threshold = threshold
        self.prefix_scale = prefix_scale
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
    def blocking(self) -> BlockingIndex:
        """The blocking index (scheme, keys, candidate sets)."""
        return self._blocking

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

    # Matching -----------------------------------------------------------------------

    def candidate_rows(self, query: str) -> np.ndarray:
        """Corpus rows the blocking scheme pairs with ``query`` (ascending)."""
        return self._blocking.candidate_rows(normalize_name(query))

    def candidates(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """Every corpus row whose score with ``query`` reaches the threshold.

        Returns ``(rows, scores)``: ``intp`` rows best first, ties in
        ascending row order, and their ``float64`` scores — exactly a scalar
        scan of :meth:`candidate_rows` with a stable sort.  The query runs
        through the scorer :meth:`match_many` uses, as a one-query chunk.
        """
        normalized = normalize_name(str(query))
        if not normalized:
            return np.empty(0, dtype=np.intp), np.empty(0)
        _, rows, scores = self._score_chunk([normalized])
        order = np.argsort(-scores, kind="stable")
        order = order[scores[order] >= self.threshold]
        return rows[order], scores[order]

    #: Upper bound on the (query, corpus row) cells of one scored chunk, and
    #: so on the pairs one pairwise kernel call scores; keeps the filter grid
    #: and the DP working set a few dozen MB regardless of batch size.
    _MAX_PAIRS_PER_CHUNK = 262_144

    def match_many(self, queries: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The best corpus row of every query, in query order.

        Returns ``(rows, scores)``, two ``(len(queries),)`` arrays: ``intp``
        rows with ``-1`` where no row reaches the threshold, and ``float64``
        scores with ``0.0`` there.  Each answer is the first entry of
        :meth:`candidates` (the lowest row among equal best scores).

        Repeated queries are resolved once, and perfect matches through the
        token-set table.  The other unique queries are bucketed by
        normalized length and scored in chunks of at most
        :attr:`_MAX_PAIRS_PER_CHUNK` (query, corpus row) cells (one query
        per chunk when the corpus is larger) by :meth:`_score_chunk`; each
        query then takes its best pair.
        """
        slots: dict[str, int] = {}
        inverse = np.fromiter(
            (slots.setdefault(str(query), len(slots)) for query in queries),
            dtype=np.intp,
            count=len(queries),
        )
        rows = np.full(len(slots), -1, dtype=np.intp)
        scores = np.zeros(len(slots))
        pending: dict[int, list[tuple[int, str]]] = {}
        for slot, query in enumerate(slots):
            normalized = normalize_name(query)
            if not normalized:
                continue
            perfect = self._perfect_row(normalized)
            if perfect is not None:
                rows[slot], scores[slot] = perfect, 1.0
                continue
            pending.setdefault(len(normalized), []).append((slot, normalized))
        per_chunk = max(1, self._MAX_PAIRS_PER_CHUNK // max(self.size, 1))
        for entries in pending.values():
            for start in range(0, len(entries), per_chunk):
                chunk_slots, normalized = zip(*entries[start : start + per_chunk])
                pair_query, pair_rows, pair_scores = self._score_chunk(normalized)
                # Pairs come grouped by query, rows ascending; a stable sort
                # by descending score within each group puts the best pair
                # (lowest row on ties) at the group's head.
                order = np.lexsort((-pair_scores, pair_query))
                heads = order[np.flatnonzero(np.diff(pair_query, prepend=-1))]
                heads = heads[pair_scores[heads] >= self.threshold]
                chosen = np.asarray(chunk_slots)[pair_query[heads]]
                rows[chosen], scores[chosen] = pair_rows[heads], pair_scores[heads]
        return rows[inverse], scores[inverse]

    def _score_chunk(
        self, normalized: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores of the pairs of one equal-length query chunk that can match.

        :meth:`_viable_pairs` filters the chunk against every corpus row, and
        the survivors run through the pairwise DP kernels.  Returns
        ``(pair_query, pair_rows, scores)``, ordered by query position then
        row.  A pair left out scores strictly below the threshold.  Every
        term of the composite lies in ``[0, 1]`` and ``0.6 + 0.4`` rounds to
        exactly ``1.0``, so scores never exceed 1.
        """
        if self._char_bounds() is None:
            # Every corpus name normalizes to "": each pair scores exactly 0.
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, np.empty(0)
        query_codes = np.stack([encode_query(query) for query in normalized])
        pair_query, pair_rows, token_set = self._viable_pairs(normalized, query_codes)
        if not pair_rows.size:
            return pair_query, pair_rows, token_set
        queries = query_codes[pair_query]
        codes = self._codes[pair_rows]
        lengths = self._lengths[pair_rows]
        jaro_winkler = jaro_winkler_similarity_pairs(
            queries, codes, lengths, self.prefix_scale
        )
        levenshtein = levenshtein_similarity_pairs(queries, codes, lengths)
        scores = np.maximum(0.6 * jaro_winkler + 0.4 * levenshtein, token_set)
        return pair_query, pair_rows, scores

    #: Slack subtracted from the threshold in the pruning bound comparison so
    #: float rounding in the bound arithmetic can only *keep* extra pairs,
    #: never drop one whose true score reaches the threshold.
    _PRUNE_SLACK = 1e-9

    def _viable_pairs(
        self, normalized: Sequence[str], query_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (query, row) pairs of one chunk that can reach the threshold.

        The ``normalized`` queries share one length ``m``; ``query_codes`` is
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
           of ``token_jaccard_pairs`` in ``tests/linkage_reference.py``; a
           pair also survives when that reaches the threshold.
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

        shared, query_tokens = self._shared_tokens(normalized)
        hits = np.flatnonzero(shared)
        hit_query, hit_rows = np.divmod(hits, n_rows)
        jaccard = _jaccard(
            shared[hits], query_tokens[hit_query], self._token_counts[hit_rows]
        )
        viable.ravel()[hits[jaccard >= cutoff]] = True

        blocked = self._blocking.candidate_mask(normalized)
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

    def _shared_tokens(self, normalized: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Shared-token counts of every (query, row) pair, plus query token counts.

        ScanCount: the posting rows of every known query token are gathered
        into one flat array and counted with a single ``bincount`` over
        ``query * rows + row``.  Returns the flat ``(n * rows,)`` count grid
        and each query's number of distinct tokens (unknown ones included).
        """
        n_rows = self.size
        query_tokens = np.empty(len(normalized), dtype=np.int64)
        owners: list[int] = []
        ids: list[int] = []
        for row, query in enumerate(normalized):
            tokens = set(query.split())
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
            minlength=len(normalized) * n_rows,
        )
        return shared, query_tokens
