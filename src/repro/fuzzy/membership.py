"""Membership functions for fuzzy sets.

The fuzzy inference system the adversary builds (Figure 2 of the paper) maps
crisp inputs — investment volume index, customer valuation, property holdings,
... — to degrees of membership in linguistic terms ("Low", "Medium", "High").
This module provides the piecewise-linear membership function shapes of
Matlab's fuzzy toolbox, which the paper's experiments were implemented with:

* triangular (``trimf``)
* trapezoidal (``trapmf``), including half-open shoulders

Both are vectorized over numpy arrays and clamp their degrees to ``[0, 1]``.
:meth:`~repro.fuzzy.variables.LinguisticVariable.fuzzify_batch` calls them on
whole input columns and relies on that range; a custom subclass (the tests
add a Gaussian) must keep it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import FuzzyDefinitionError

__all__ = [
    "MembershipFunction",
    "TriangularMF",
    "TrapezoidalMF",
]


class MembershipFunction(abc.ABC):
    """A function mapping crisp values to membership degrees in ``[0, 1]``."""

    @abc.abstractmethod
    def __call__(self, values: np.ndarray | float) -> np.ndarray | float:
        """Membership degrees of ``values``, elementwise, in ``[0, 1]``."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """An interval outside of which the membership is (essentially) zero."""


@dataclass(frozen=True)
class TriangularMF(MembershipFunction):
    """Triangular membership function with feet ``a``/``c`` and peak ``b``."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c:
            raise FuzzyDefinitionError(
                f"triangular MF requires a <= b <= c, got ({self.a}, {self.b}, {self.c})"
            )
        if self.a == self.c:
            raise FuzzyDefinitionError("triangular MF must have non-zero width")

    def __call__(self, values: np.ndarray | float) -> np.ndarray | float:
        values = np.asarray(values, dtype=float)
        if self.b > self.a:
            rising = (values - self.a) / (self.b - self.a)
        else:
            # Degenerate left edge: the peak sits on the left foot, so every
            # value at or above the peak is fully rising.
            rising = np.where(values >= self.b, 1.0, 0.0)
        if self.c > self.b:
            falling = (self.c - values) / (self.c - self.b)
        else:
            falling = np.where(values <= self.b, 1.0, 0.0)
        return np.clip(np.minimum(rising, falling), 0.0, 1.0)

    def support(self) -> tuple[float, float]:
        return (self.a, self.c)


@dataclass(frozen=True)
class TrapezoidalMF(MembershipFunction):
    """Trapezoidal membership function with feet ``a``/``d`` and plateau ``[b, c]``.

    Setting ``a == b`` produces a left shoulder (membership 1 at the low end);
    ``c == d`` produces a right shoulder, the usual way the extreme linguistic
    terms ("Low", "High") are modelled.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not self.a <= self.b <= self.c <= self.d:
            raise FuzzyDefinitionError(
                f"trapezoidal MF requires a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if self.a == self.d:
            raise FuzzyDefinitionError("trapezoidal MF must have non-zero width")

    def __call__(self, values: np.ndarray | float) -> np.ndarray | float:
        values = np.asarray(values, dtype=float)
        if self.b > self.a:
            rising = (values - self.a) / (self.b - self.a)
        else:
            # Degenerate left edge (shoulder): membership is full from the
            # plateau onward, including exactly at the edge.
            rising = np.where(values >= self.b, 1.0, 0.0)
        if self.d > self.c:
            falling = (self.d - values) / (self.d - self.c)
        else:
            falling = np.where(values <= self.c, 1.0, 0.0)
        plateau = np.ones_like(values)
        return np.clip(np.minimum(np.minimum(rising, plateau), falling), 0.0, 1.0)

    def support(self) -> tuple[float, float]:
        return (self.a, self.d)
