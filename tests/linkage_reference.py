"""Scalar reference implementations of the linkage similarity machinery.

Levenshtein, Jaro / Jaro-Winkler, token-set Jaccard, the composite
:func:`name_similarity`, the per-name blocking postings builder
:func:`scalar_postings`, and the two linkage queries answered by a scalar
scan of a query's blocking candidates: :func:`candidates` and
:func:`best_match`.  They are the executable specification for the batched
engine in :mod:`repro.linkage`: its vectorized kernels, its filtered
``LinkageIndex`` queries and its vectorized ``BlockingIndex`` construction
must reproduce them bit for bit (pinned by ``tests/test_property_linkage.py``,
``tests/test_linkage_buffers.py`` and the linkage and index-build
benchmarks).  Nothing in ``src/`` calls them.

Also here: the padded-matrix forms the index replaced, :func:`encode_strings`
(a corpus as a padded code matrix) and :func:`token_jaccard_pairs` (pairwise
Jaccard of padded token-id rows), which the flat code buffer and the
ScanCount Jaccard of the pair filter must reproduce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import LinkageError
from repro.linkage.blocking import BlockingIndex
from repro.linkage.index import LinkageIndex
from repro.linkage.kernels import PAD, encode_query
from repro.linkage.normalize import normalize_name

#: Padding id for query token-id matrices; distinct from :data:`PAD` so a
#: padded query token never equals a padded corpus token.
QUERY_PAD = np.int64(-2)


def levenshtein_distance(left: str, right: str) -> int:
    """Classic dynamic-programming edit distance (insert/delete/substitute)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(left: str, right: str) -> float:
    """Edit distance normalized into a ``[0, 1]`` similarity."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein_distance(left, right) / longest


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity of two strings."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(len(left), len(right)) // 2 - 1
    window = max(window, 0)

    left_matches = [False] * len(left)
    right_matches = [False] * len(right)
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len(left) + matches / len(right) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(left: str, right: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity (Jaro boosted by the length of the common prefix)."""
    if not 0.0 <= prefix_scale <= 0.25:
        raise LinkageError("prefix_scale must lie in [0, 0.25]")
    jaro = jaro_similarity(left, right)
    prefix = 0
    for left_char, right_char in zip(left[:4], right[:4]):
        if left_char != right_char:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def token_set_similarity(left: str, right: str) -> float:
    """Jaccard similarity of the token sets of two normalized names."""
    left_tokens = set(left.split())
    right_tokens = set(right.split())
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    return len(left_tokens & right_tokens) / len(left_tokens | right_tokens)


def name_similarity(left: str, right: str) -> float:
    """Composite name similarity used by the linkage step.

    Names are normalized, then scored with the maximum of Jaro-Winkler on the
    full string and the token-set similarity (which forgives token reordering
    such as "Miller, Alice" vs "Alice Miller"), softened with the Levenshtein
    similarity to temper pure-prefix coincidences.
    """
    left_norm = normalize_name(left)
    right_norm = normalize_name(right)
    if not left_norm or not right_norm:
        return 0.0
    if left_norm == right_norm:
        return 1.0
    jaro_winkler = jaro_winkler_similarity(left_norm, right_norm)
    token_set = token_set_similarity(left_norm, right_norm)
    levenshtein = levenshtein_similarity(left_norm, right_norm)
    return max(0.6 * jaro_winkler + 0.4 * levenshtein, token_set)


def scalar_postings(
    normalized_names: Sequence[str], scheme: str = "qgram", qgram_size: int = 2
) -> dict[str, np.ndarray]:
    """The historical per-name postings builder: one ``setdefault``/``append``
    per block key of every corpus name, in row order."""
    reference = BlockingIndex([], scheme=scheme, qgram_size=qgram_size)
    postings: dict[str, list[int]] = {}
    if scheme != "none":
        for row, normalized in enumerate(normalized_names):
            for key in reference.keys(normalized):
                postings.setdefault(key, []).append(row)
    return {key: np.asarray(rows, dtype=np.intp) for key, rows in postings.items()}


def candidates(
    corpus_names: Sequence[str], index: LinkageIndex, query: str
) -> list[tuple[int, float]]:
    """``(row, score)`` of every blocking candidate reaching the threshold.

    Scores ``index.candidate_rows(query)`` with the scalar
    :func:`name_similarity` against ``corpus_names`` (the names ``index`` was
    built over); best first, ties in ascending row order.
    """
    scored = [
        (row, name_similarity(query, corpus_names[row]))
        for row in index.candidate_rows(query).tolist()
    ]
    kept = [(row, score) for row, score in scored if score >= index.threshold]
    return sorted(kept, key=lambda pair: -pair[1])


def best_match(
    corpus_names: Sequence[str], index: LinkageIndex, query: str
) -> tuple[int, float]:
    """The scalar best ``(row, score)`` of ``query``, or ``(-1, 0.0)``.

    The argmax of :func:`name_similarity` over ``index.candidate_rows(query)``
    (the lowest row on ties), kept only when it reaches ``index.threshold``.
    No perfect-match shortcut and no pair filter.
    """
    rows = index.candidate_rows(query).tolist()
    scores = [name_similarity(query, corpus_names[row]) for row in rows]
    if not rows:
        return -1, 0.0
    best = max(range(len(rows)), key=scores.__getitem__)
    if scores[best] < index.threshold:
        return -1, 0.0
    return rows[best], scores[best]


def answers(rows: np.ndarray, scores: np.ndarray) -> list[tuple[int, float]]:
    """An index's ``(rows, scores)`` arrays as a list of ``(row, score)``."""
    return list(zip(rows.tolist(), scores.tolist()))


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode strings into a padded ``(n, width)`` code matrix plus lengths."""
    lengths = np.fromiter(
        (len(s) for s in strings), dtype=np.int32, count=len(strings)
    )
    width = max(int(lengths.max(initial=0)), 1)
    codes = np.full((len(strings), width), PAD, dtype=np.int32)
    for row, text in enumerate(strings):
        if text:
            codes[row, : len(text)] = encode_query(text)
    return codes, lengths


def token_jaccard_pairs(
    query_token_matrix: np.ndarray,
    query_token_counts: np.ndarray,
    token_matrix: np.ndarray,
    token_counts: np.ndarray,
) -> np.ndarray:
    """Pairwise Jaccard of query token-id sets against corpus token-id rows.

    ``query_token_matrix`` holds each query's *known* (in-vocabulary) unique
    token ids padded with :data:`QUERY_PAD`, aligned row-for-row with
    ``token_matrix`` (each corpus name's unique ids padded with :data:`PAD`);
    ``query_token_counts`` counts all unique query tokens, known or not
    (unknown tokens enlarge the union but can never intersect).  The two pad
    values are distinct, so padding never fakes an intersection.
    """
    intersection = (
        (token_matrix[:, :, None] == query_token_matrix[:, None, :])
        .any(axis=2)
        .sum(axis=1)
    )
    union = query_token_counts + token_counts.astype(np.int64) - intersection
    return np.where(union > 0, intersection / np.maximum(union, 1), 1.0)
