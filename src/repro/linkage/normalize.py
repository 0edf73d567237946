"""Name normalization and blocking-key tokenization.

Normalization is the contract every linkage component shares: the scalar
similarity references in ``tests/linkage_reference.py``, the batched kernels in
:mod:`repro.linkage.kernels` and the blocking index all operate on
*normalized* names, so they must agree on what normalization means.

Normalization folds a name to lower-case ASCII letters and single spaces:

* Unicode is NFKD-decomposed and combining marks are stripped, so accented
  letters survive as their base letter ("José Müller" -> "jose muller")
  instead of being dropped by the ASCII filter;
* letters with no NFKD decomposition ("ß", "ø", "ł", ...) are folded through
  an explicit table so Scandinavian and Slavic names keep their skeleton;
* punctuation and digits become spaces, titles and honorifics are removed,
  and whitespace is collapsed.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Sequence

__all__ = [
    "normalize_name",
    "normalize_names",
    "token_qgrams",
    "TITLES",
]

#: Titles and honorifics dropped from names during normalization.
TITLES = frozenset(
    {"dr", "prof", "professor", "mr", "mrs", "ms", "phd", "jr", "sr", "ii", "iii"}
)

_NON_ALPHA = re.compile(r"[^a-z\s]")
_WHITESPACE = re.compile(r"\s+")

# Letters NFKD leaves intact (no decomposition) but that clearly map onto an
# ASCII skeleton.  Case pairs are listed explicitly because the fold runs
# before case folding.
_LETTER_FOLD = str.maketrans(
    {
        "ß": "ss",
        "ẞ": "ss",
        "æ": "ae",
        "Æ": "ae",
        "œ": "oe",
        "Œ": "oe",
        "ø": "o",
        "Ø": "o",
        "đ": "d",
        "Đ": "d",
        "ð": "d",
        "Ð": "d",
        "þ": "th",
        "Þ": "th",
        "ł": "l",
        "Ł": "l",
    }
)


def normalize_name(name: str) -> str:
    """Fold a name to lower-case ASCII tokens, stripping titles and punctuation.

    Accents are NFKD-folded onto their base letters before the non-letter
    filter runs, so "José Müller" normalizes to ``"jose muller"`` (the
    historical behaviour dropped every non-ASCII letter, mangling it into
    ``"jos m ller"``).  Pure-ASCII input normalizes exactly as it always has.
    """
    decomposed = unicodedata.normalize("NFKD", str(name))
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    text = _NON_ALPHA.sub(" ", stripped.translate(_LETTER_FOLD).casefold())
    tokens = [t for t in _WHITESPACE.split(text) if t and t not in TITLES]
    return " ".join(tokens)


# Batch-normalization record separator.  It is whitespace (so the `[^a-z\s]`
# filter preserves it and `\v` inside a raw name folds to a token break, just
# like the scalar path folds it via `\s+`), has no NFKD decomposition, never
# composes, and has combining class 0 — so it is a Unicode normalization
# boundary: NFKD of the joined string equals the join of the per-name NFKDs.
_SEPARATOR = "\v"

# Whitespace canonicalization for the batch path: collapse runs of any
# whitespace except the separator, then strip spaces around separators.
# The full collapse only runs when a non-space whitespace char is present;
# otherwise a cheaper multi-space pass suffices (it matches nothing on
# already-canonical text instead of matching every single space).
_ODD_WHITESPACE = re.compile(r"[^\S\v ]")
_SPACE_RUN = re.compile(r"[^\S\v]+")
_MULTI_SPACE = re.compile(r"  +")
_SEPARATOR_TRIM = re.compile(r" \v ?|\v ")

# Detects any title token in folded text (tokens are maximal [a-z] runs, so
# the lookarounds make this exact); title-free corpora skip the per-token
# filter entirely.  The plain-substring scan (C-level find, ~30x cheaper
# than the char-by-char regex scan) prefilters: only text containing some
# title as a substring can contain one as a token.
_TITLE_TOKEN = re.compile(
    "(?<![a-z])(?:"
    + "|".join(sorted(TITLES, key=len, reverse=True))
    + ")(?![a-z])"
)

# ASCII fast path for `_NON_ALPHA.sub(" ", text.casefold())`: one
# bytes.translate pass that lowercases A-Z, keeps a-z and whitespace, and
# maps every other byte to a space.  Bit-identical on ASCII input (ASCII
# casefolding is exactly A-Z -> a-z).
_ASCII_NON_ALPHA = bytes(
    b + 32 if 65 <= b <= 90  # A-Z -> a-z
    else (b if 97 <= b <= 122 or b in b" \t\n\r\x0b\x0c" else 32)
    for b in range(256)
)


def normalize_names(names: Sequence[str]) -> list[str]:
    """Batch :func:`normalize_name`: one pass over all names joined together.

    Bit-identical to ``[normalize_name(n) for n in names]`` (pinned by the
    hypothesis suite) but amortizes the NFKD decomposition, combining-mark
    strip, fold table, case fold and regex across the whole corpus — the
    per-name loop is the dominant cost of building a
    :class:`~repro.linkage.index.LinkageIndex` at scale.
    """
    count = len(names)
    if count == 0:
        return []
    try:
        joined = _SEPARATOR.join(names)
    except TypeError:
        joined = _SEPARATOR.join(str(name) for name in names)
    if joined.count(_SEPARATOR) != count - 1:
        # A literal "\v" inside a raw name is whitespace to the scalar path
        # (a token break); replacing it with a space before joining keeps the
        # result identical while freeing "\v" up as the record separator.
        joined = _SEPARATOR.join(
            str(name).replace(_SEPARATOR, " ") for name in names
        )
    if joined.isascii():
        # NFKD, combining-mark stripping and the fold table are all identity
        # maps on ASCII text, and casefold + the non-letter filter collapse
        # into one bytes.translate pass.
        text = joined.encode("ascii").translate(_ASCII_NON_ALPHA).decode("ascii")
    else:
        decomposed = unicodedata.normalize("NFKD", joined)
        marks = {
            ord(ch) for ch in set(decomposed) if unicodedata.combining(ch)
        }
        stripped = decomposed.translate(dict.fromkeys(marks)) if marks else decomposed
        text = _NON_ALPHA.sub(" ", stripped.translate(_LETTER_FOLD).casefold())
    # Collapse whitespace globally (a few C regex passes, each gated behind a
    # C-level substring scan) so each piece comes out canonical: runs of
    # non-separator whitespace become one space, then spaces hugging a
    # separator or a string edge are dropped.
    if _ODD_WHITESPACE.search(text):
        text = _SPACE_RUN.sub(" ", text)
    elif "  " in text:
        text = _MULTI_SPACE.sub(" ", text)
    if " \v" in text or "\v " in text:
        text = _SEPARATOR_TRIM.sub(_SEPARATOR, text)
    text = text.strip(" ")
    pieces = text.split(_SEPARATOR)
    if len(pieces) != count:  # pragma: no cover - defensive guard
        return [normalize_name(name) for name in names]
    if any(title in text for title in TITLES) and _TITLE_TOKEN.search(text):
        return [
            " ".join(t for t in piece.split(" ") if t not in TITLES)
            for piece in pieces
        ]
    return pieces


def token_qgrams(token: str, q: int = 2) -> tuple[str, ...]:
    """Sliding character q-grams of one token (the token itself when shorter)."""
    if len(token) < q:
        return (token,) if token else ()
    return tuple(token[i : i + q] for i in range(len(token) - q + 1))
