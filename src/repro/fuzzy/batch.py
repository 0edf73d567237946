"""Column blocks: the one batch layout of the fusion layer.

The batch fusion kernels (:class:`~repro.fuzzy.inference.MamdaniSystem` and
:class:`~repro.fuzzy.tsk.SugenoSystem`) and the estimators of
:mod:`repro.fusion.estimators` take a **column block**: a mapping of input
name to one ``(N,)`` float array, with ``NaN`` (or ``None``) marking a missing
cell (a suppressed release value, a person with no web presence).
:class:`~repro.fusion.attack.WebFusionAttack` assembles that block column-wise
straight from the release table and the harvest.

:func:`as_columns` validates a caller's block and fills absent inputs with
``NaN``; anything other than a mapping (a list of per-record dicts, say) is
rejected with a :class:`~repro.exceptions.FuzzyEvaluationError` that names the
layout, and a cell that is not a number is rejected with one that names the
column.  There is no one-record form: one record is a one-row block.
Downstream the fuzzifier masks ``NaN`` inputs by assigning full membership to
every term (the input contributes no information).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import FuzzyEvaluationError

__all__ = ["as_columns"]


def _column_array(values: object, name: str) -> np.ndarray:
    """Coerce one column to a 1-D float array, mapping ``None`` cells to NaN."""
    try:
        column = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        try:
            column = np.array(
                [np.nan if v is None else float(v) for v in values],  # type: ignore[union-attr]
                dtype=float,
            )
        except (TypeError, ValueError) as error:
            raise FuzzyEvaluationError(
                f"column {name!r} must hold numbers or None: {error}"
            ) from None
    if column.ndim == 0:
        column = column.reshape(1)
    if column.ndim != 1:
        raise FuzzyEvaluationError(
            f"column {name!r} must be 1-D, got shape {column.shape}"
        )
    return column


def as_columns(
    columns: Mapping[str, object],
    variable_names: Sequence[str],
    strict: bool = False,
) -> tuple[int, dict[str, np.ndarray]]:
    """Normalize a column block into ``(N, {variable: (N,) float array})``.

    Every name in ``variable_names`` gets a column; cells that are ``None``
    or NaN, and columns that are absent, become ``NaN``.  With
    ``strict=True`` any key not in ``variable_names`` raises (the Mamdani
    engine's validation); otherwise extra keys are ignored.
    """
    if not isinstance(columns, Mapping):
        raise FuzzyEvaluationError(
            "batch inputs must be a column block {input name: (N,) float array}, "
            f"got {type(columns).__name__}"
        )
    names = list(variable_names)
    known = set(names)
    unknown = set(columns) - known
    if strict and unknown:
        raise FuzzyEvaluationError(
            f"inputs reference unknown variables: {sorted(unknown)}"
        )
    # Every provided column — recognized or not — participates in the length
    # check, so a block of only-unknown keys still yields an N-record batch
    # (of all-NaN inputs) rather than collapsing to N=0.
    arrays: dict[str, np.ndarray] = {}
    lengths: dict[str, int] = {}
    for name, values in columns.items():
        column = _column_array(values, name)
        lengths[name] = len(column)
        if name in known:
            arrays[name] = column
    if len(set(lengths.values())) > 1:
        raise FuzzyEvaluationError(
            f"input columns have inconsistent lengths: {lengths}"
        )
    n = next(iter(lengths.values())) if lengths else 0
    for name in names:
        if name not in arrays:
            arrays[name] = np.full(n, np.nan)
    return n, arrays
