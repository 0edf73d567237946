"""Batched record linkage: normalization, blocking, vectorized kernels.

This package is the engine behind step 1 of the paper's attack (linking
release identifiers to web auxiliary records).  It factors linkage into three
layers — normalization (:mod:`repro.linkage.normalize`), candidate generation
(:mod:`repro.linkage.blocking`) and vectorized similarity scoring
(:mod:`repro.linkage.kernels`) — composed by :class:`LinkageIndex`, which is
built once per corpus and resolves whole batches of queries at a time.

The scalar similarity functions in ``tests/linkage_reference.py`` remain the
executable specification: the NumPy kernels, the only kernel implementation,
reproduce them bit-for-bit.  Callers that match names build a
:class:`LinkageIndex` and query it directly; it answers in corpus rows and
scores (``match_many`` for a batch, ``candidates`` for one name).
"""

from repro.linkage.blocking import (
    BLOCKING_SCHEMES,
    BlockingIndex,
    TokenStream,
    tokenize_corpus,
)
from repro.linkage.index import LinkageIndex
from repro.linkage.kernels import encode_query, encode_strings_flat, pad_ragged
from repro.linkage.normalize import (
    normalize_name,
    normalize_names,
    token_qgrams,
)

__all__ = [
    "LinkageIndex",
    "BlockingIndex",
    "BLOCKING_SCHEMES",
    "TokenStream",
    "tokenize_corpus",
    "normalize_name",
    "normalize_names",
    "token_qgrams",
    "encode_query",
    "encode_strings_flat",
    "pad_ragged",
]
