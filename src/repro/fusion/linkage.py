"""Record linkage between release identifiers and web auxiliary records.

The adversary "uses the customer names present in the release to search for
additional information about the customers available on the web".  Names found
on the web rarely match the enterprise database verbatim (initials, swapped
order, typos, titles), so the attack needs approximate string matching.

This module holds the **scalar reference implementations** of the similarity
machinery — Levenshtein, Jaro / Jaro-Winkler, token-set Jaccard and the
composite :func:`name_similarity`.  They are the executable specification for
the batched engine in :mod:`repro.linkage`, whose vectorized kernels must
reproduce them bit-for-bit (pinned by ``tests/test_property_linkage.py``).
Matching a batch of names against a corpus is the job of
:class:`repro.linkage.LinkageIndex`, which scores with those kernels.
"""

from __future__ import annotations

from repro.exceptions import LinkageError
from repro.linkage.index import MatchCandidate
from repro.linkage.normalize import normalize_name

__all__ = [
    "normalize_name",
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "token_set_similarity",
    "name_similarity",
    "MatchCandidate",
]


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

