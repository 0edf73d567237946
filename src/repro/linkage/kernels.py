"""Batched string-similarity kernels.

Each kernel scores query strings against whole candidate sets in vectorized
NumPy, and is an exact (bit-identical) replica of the scalar reference
implementation in ``tests/linkage_reference.py`` — the scalar functions are the
executable specification, and the hypothesis suite in
``tests/test_property_linkage.py`` pins the equivalence on arbitrary strings.

Data layout
-----------
Candidate strings are pre-encoded once per corpus into a padded ``int32``
character-code matrix (``(n, width)``; :data:`PAD` marks cells past a string's
end) plus a length vector.  Every kernel scores **aligned pairs**: row ``i``
of an ``(n, m)`` query-code matrix against row ``i`` of the candidate matrix.
This is how :class:`repro.linkage.index.LinkageIndex` batches the *query*
axis — all queries of one length share a DP, each paired with the corpus
rows that survive its filter.  To score one query against many candidates,
broadcast it across the pair axis (``np.broadcast_to``).

Kernels run one dynamic-programming or matching step per *query character*,
each step vectorized across every (query, candidate) pair at once:

* **Levenshtein** — the classic DP row recurrence.  The in-row dependency
  (``current[j-1] + 1``, the insertion chain) is resolved with a min-plus
  prefix scan: ``current[j] = min_{i<=j}(t[i] + j - i)`` becomes a running
  ``np.minimum.accumulate`` over ``t - arange`` followed by ``+ arange``.
* **Jaro / Jaro-Winkler** — the greedy windowed matching loop runs per query
  character with the window, availability and first-free-slot selection
  computed as ``(n, width)`` masks; transpositions are counted by gathering
  matched characters in order with a stable boolean argsort.

Every similarity wrapper (``*_similarity_*``, Winkler) composes from the two
pairwise primitives — :func:`levenshtein_distance_pairs` and
:func:`jaro_similarity_pairs` — so pinning those two pins every string score.
Token-set Jaccard is computed inside the index's pair filter
(:func:`repro.linkage.index._jaccard`, by ScanCount).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "PAD",
    "active_kernel_backend",
    "encode_query",
    "encode_strings_flat",
    "pad_ragged",
    "levenshtein_distance_pairs",
    "levenshtein_similarity_pairs",
    "jaro_similarity_pairs",
    "jaro_winkler_similarity_pairs",
]

#: Padding code for cells past a string's end; never equals a real character.
PAD = np.int32(-1)


def active_kernel_backend() -> str:
    """The name of the kernel implementation, for environment stamps."""
    return "numpy"


def encode_query(text: str) -> np.ndarray:
    """A string as a 1-D ``int32`` array of Unicode code points."""
    return np.fromiter(map(ord, text), dtype=np.int32, count=len(text))


def encode_strings_flat(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode strings into one flat ``int32`` code buffer plus a length vector.

    The flat buffer is the concatenation of every string's code points, built
    in a single ``np.frombuffer`` over the UTF-32 encoding of the joined text
    — no per-string loop.  Lengths come from the same buffer: the strings are
    joined on NUL (falling back to a per-string ``len`` pass in the unlikely
    case a string itself contains NUL) and the separator positions diffed.
    Together with ``lengths`` (and its cumulative sum) the flat buffer is the
    canonical serialized form of a corpus; :func:`pad_ragged` rebuilds the
    padded ``(n, width)`` code matrix the kernels score.
    """
    n_strings = len(strings)
    if n_strings == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    with_seps = np.frombuffer(
        "\x00".join(strings).encode("utf-32-le"), dtype="<i4"
    ).astype(np.int32, copy=False)
    separators = np.flatnonzero(with_seps == 0)
    if separators.size != n_strings - 1:  # a string contains NUL itself
        lengths = np.fromiter(
            (len(s) for s in strings), dtype=np.int32, count=n_strings
        )
        flat = np.frombuffer(
            "".join(strings).encode("utf-32-le"), dtype="<i4"
        ).astype(np.int32, copy=False)
        return flat, lengths
    bounds = np.concatenate(([-1], separators, [with_seps.shape[0]]))
    lengths = (np.diff(bounds) - 1).astype(np.int32)
    flat = with_seps[with_seps != 0] if separators.size else with_seps
    return flat, lengths


def pad_ragged(flat: np.ndarray, counts: np.ndarray, pad, dtype) -> np.ndarray:
    """Scatter a flat row-major ragged buffer into a padded ``(n, width)`` matrix.

    ``flat`` concatenates the rows' values; ``counts[r]`` is row ``r``'s length.
    Cells past a row's end hold ``pad``.  Width is at least 1 so downstream
    kernels never see a zero-column matrix.
    """
    n_rows = counts.shape[0]
    width = max(int(counts.max(initial=0)), 1)
    matrix = np.full((n_rows, width), pad, dtype=dtype)
    if flat.size:
        mask = np.arange(width) < np.asarray(counts, dtype=np.int64)[:, None]
        matrix[mask] = flat
    return matrix


def levenshtein_distance_pairs(
    queries: np.ndarray, codes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Edit distance of aligned (query, candidate) code-row pairs.

    ``queries`` is an ``(n, m)`` code matrix: row ``i`` is scored against
    ``codes[i]``.  One DP step per query position, vectorized over all pairs;
    the insertion chain inside a DP row is a min-plus prefix scan (see the
    module docstring).  Padding cells always cost a substitution, and the
    answer for row ``r`` is read at column ``lengths[r]``, so padding never
    leaks into the result.
    """
    n_rows, width = codes.shape
    span = np.arange(width + 1, dtype=np.int32)
    dp = np.broadcast_to(span, (n_rows, width + 1)).copy()
    for position in range(1, queries.shape[1] + 1):
        chars = queries[:, position - 1, None]
        stepped = np.empty_like(dp)
        stepped[:, 0] = position
        np.minimum(dp[:, 1:] + 1, dp[:, :-1] + (codes != chars), out=stepped[:, 1:])
        dp = np.minimum.accumulate(stepped - span, axis=1) + span
    return dp[np.arange(n_rows), lengths].astype(np.int64)


def levenshtein_similarity_pairs(
    queries: np.ndarray, codes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Pairwise edit distance normalized into ``[0, 1]`` (1.0 when both empty)."""
    distances = levenshtein_distance_pairs(queries, codes, lengths)
    longest = np.maximum(queries.shape[1], lengths).astype(np.int64)
    return np.where(longest > 0, 1.0 - distances / np.maximum(longest, 1), 1.0)


def jaro_similarity_pairs(
    queries: np.ndarray, codes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Jaro similarity of aligned (query, candidate) code-row pairs.

    Replays the scalar greedy matching exactly: for each query position, each
    pair claims the first unclaimed equal candidate character inside the Jaro
    window; transpositions compare the claimed characters of both sides in
    order.  All queries must share one length ``m`` (the pair-bucketing
    invariant of ``match_many``).
    """
    n_rows, width = codes.shape
    m = queries.shape[1]
    lengths = lengths.astype(np.int64)
    if m == 0:
        return np.where(lengths == 0, 1.0, 0.0)
    window = np.maximum(np.maximum(m, lengths) // 2 - 1, 0)[:, None]
    columns = np.arange(width)
    right_free = np.ones((n_rows, width), dtype=bool)
    left_matched = np.zeros((n_rows, m), dtype=bool)
    for i in range(m):
        chars = queries[:, i, None]
        start = np.maximum(i - window, 0)
        end = np.minimum(i + window + 1, lengths[:, None])
        available = (columns >= start) & (columns < end) & right_free & (codes == chars)
        hit = available.any(axis=1)
        first = available.argmax(axis=1)
        right_free[hit, first[hit]] = False
        left_matched[hit, i] = True
    matches = left_matched.sum(axis=1)

    # Gather matched characters of both sides in original order (stable sort
    # moves matched positions to the front) and count mismatched pairs.
    left_order = np.argsort(~left_matched, axis=1, kind="stable")
    right_order = np.argsort(right_free, axis=1, kind="stable")
    compare = min(m, width)
    left_chars = np.take_along_axis(queries, left_order[:, :compare], axis=1)
    right_chars = np.take_along_axis(codes, right_order[:, :compare], axis=1)
    in_match = np.arange(compare) < matches[:, None]
    transpositions = ((left_chars != right_chars) & in_match).sum(axis=1) // 2

    jaro = (
        matches / m
        + matches / np.maximum(lengths, 1)
        + (matches - transpositions) / np.maximum(matches, 1)
    ) / 3.0
    return np.where(matches == 0, 0.0, jaro)


def jaro_winkler_similarity_pairs(
    queries: np.ndarray,
    codes: np.ndarray,
    lengths: np.ndarray,
    prefix_scale: float = 0.1,
) -> np.ndarray:
    """Pairwise Jaro boosted by the common prefix (up to 4 characters)."""
    jaro = jaro_similarity_pairs(queries, codes, lengths)
    limit = min(4, queries.shape[1], codes.shape[1])
    if limit == 0:
        return jaro
    # PAD cells never equal a query character, so candidates shorter than the
    # prefix window stop the cumulative product exactly where zip() stops the
    # scalar loop.
    equal = codes[:, :limit] == queries[:, :limit]
    prefix = equal.cumprod(axis=1).sum(axis=1)
    return jaro + prefix * prefix_scale * (1.0 - jaro)
