"""Linguistic variables and fuzzy sets.

A :class:`LinguisticVariable` bundles a crisp universe of discourse (the value
range of an input or output attribute) with a set of named linguistic terms,
each backed by a membership function.  In the paper's attack the inputs are
the release quasi-identifiers and the harvested web attributes, the output is
the sensitive attribute (personal income), and the terms are ranges such as
``Low = [$40,000 - $60,000]``, ``Medium``, ``High``.

The :meth:`LinguisticVariable.with_uniform_terms` and
:meth:`LinguisticVariable.from_values` constructors build evenly-spaced and
quantile-calibrated term partitions, which is how the adversary calibrates the
fuzzy sets from whatever marginal information is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import FuzzyDefinitionError
from repro.fuzzy.membership import MembershipFunction, TrapezoidalMF, TriangularMF

__all__ = ["FuzzySet", "LinguisticVariable"]


@dataclass(frozen=True)
class FuzzySet:
    """A named linguistic term with its membership function."""

    name: str
    membership: MembershipFunction


@dataclass
class LinguisticVariable:
    """A crisp variable with linguistic terms defined over its universe."""

    name: str
    universe: tuple[float, float]
    terms: dict[str, FuzzySet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        low, high = self.universe
        if not low < high:
            raise FuzzyDefinitionError(
                f"variable {self.name!r}: universe must satisfy low < high, got {self.universe}"
            )

    # Term management -----------------------------------------------------------

    def add_term(self, name: str, membership: MembershipFunction) -> "LinguisticVariable":
        """Register a linguistic term (returns ``self`` for chaining)."""
        if name in self.terms:
            raise FuzzyDefinitionError(f"variable {self.name!r} already has a term {name!r}")
        self.terms[name] = FuzzySet(name, membership)
        return self

    def term(self, name: str) -> FuzzySet:
        """Look up a term by name."""
        if name not in self.terms:
            raise FuzzyDefinitionError(
                f"variable {self.name!r} has no term {name!r}; known terms: {sorted(self.terms)}"
            )
        return self.terms[name]

    @property
    def term_names(self) -> tuple[str, ...]:
        """Names of all registered terms, in registration order."""
        return tuple(self.terms)

    # Evaluation -----------------------------------------------------------------

    def fuzzify_batch(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Membership degrees of an ``(N,)`` value array in every term.

        ``NaN`` entries mark missing inputs and fuzzify to full membership
        (degree 1) in every term: the input contributes no information.
        """
        if not self.terms:
            raise FuzzyDefinitionError(f"variable {self.name!r} has no terms defined")
        values = np.asarray(values, dtype=float)
        missing = np.isnan(values)
        # Evaluate the membership functions at a harmless stand-in so NaN does
        # not propagate, then mask the missing rows.
        safe = np.where(missing, self.universe[0], values)
        return {
            name: np.where(missing, 1.0, fuzzy_set.membership(safe))
            for name, fuzzy_set in self.terms.items()
        }

    def grid(self, resolution: int = 201) -> np.ndarray:
        """A uniform sampling of the universe, used by Mamdani defuzzification."""
        if resolution < 3:
            raise FuzzyDefinitionError("grid resolution must be at least 3")
        return np.linspace(self.universe[0], self.universe[1], resolution)

    # Constructors ------------------------------------------------------------------

    @classmethod
    def with_uniform_terms(
        cls, name: str, universe: tuple[float, float], term_names: Sequence[str]
    ) -> "LinguisticVariable":
        """Evenly spaced triangular terms with shoulder trapezoids at the ends.

        This is the textbook construction: for terms ``Low / Medium / High``
        over ``[0, 10]`` it produces a left shoulder for ``Low``, a centred
        triangle for ``Medium`` and a right shoulder for ``High``.
        """
        if len(term_names) < 2:
            raise FuzzyDefinitionError("a variable needs at least 2 linguistic terms")
        low, high = universe
        variable = cls(name=name, universe=universe)
        centers = np.linspace(low, high, len(term_names))
        step = centers[1] - centers[0]
        for i, term_name in enumerate(term_names):
            center = centers[i]
            if i == 0:
                membership: MembershipFunction = TrapezoidalMF(
                    low, low, center, center + step
                )
            elif i == len(term_names) - 1:
                membership = TrapezoidalMF(center - step, center, high, high)
            else:
                membership = TriangularMF(center - step, center, center + step)
            variable.add_term(term_name, membership)
        return variable

    @classmethod
    def from_values(
        cls,
        name: str,
        values: Iterable[float],
        term_names: Sequence[str],
        padding: float = 0.05,
    ) -> "LinguisticVariable":
        """Quantile-calibrated terms: term centres sit at evenly spaced quantiles.

        The adversary uses this constructor when calibrating input fuzzy sets
        from the released (or harvested) marginal distributions rather than
        from a known domain range.  Only finite values calibrate: ``NaN``
        (missing) and ``±inf`` cells are ignored.
        """
        data = np.asarray(list(values), dtype=float)
        data = data[np.isfinite(data)]
        if data.size < 2:
            raise FuzzyDefinitionError(
                f"variable {name!r}: need at least 2 finite values to calibrate terms"
            )
        low, high = float(data.min()), float(data.max())
        if high <= low:
            high = low + 1.0
        span = high - low
        low -= padding * span
        high += padding * span

        quantiles = np.linspace(0.0, 1.0, len(term_names))
        centers = np.quantile(data, quantiles)
        centers = np.clip(centers, low, high)
        # Enforce strictly increasing centres so the triangles are well formed.
        for i in range(1, len(centers)):
            if centers[i] <= centers[i - 1]:
                centers[i] = centers[i - 1] + 1e-9 * max(1.0, abs(span))

        variable = cls(name=name, universe=(low, high))
        for i, term_name in enumerate(term_names):
            center = float(centers[i])
            left = float(centers[i - 1]) if i > 0 else low
            right = float(centers[i + 1]) if i < len(term_names) - 1 else high
            if i == 0:
                membership: MembershipFunction = TrapezoidalMF(low, low, center, right)
            elif i == len(term_names) - 1:
                membership = TrapezoidalMF(left, center, high, high)
            else:
                membership = TriangularMF(left, center, right)
            variable.add_term(term_name, membership)
        return variable

    @classmethod
    def from_ranges(
        cls,
        name: str,
        ranges: Mapping[str, tuple[float, float]],
        overlap: float = 0.25,
    ) -> "LinguisticVariable":
        """Terms defined by explicit crisp ranges, as the paper's Figure 2 does.

        ``ranges`` maps term names to ``(low, high)`` intervals, e.g.
        ``{"Low": (40_000, 60_000), "Medium": (60_000, 80_000), "High": (80_000, 100_000)}``.
        Adjacent terms are given a proportional ``overlap`` so inference is not
        piecewise-constant.
        """
        if not ranges:
            raise FuzzyDefinitionError("from_ranges requires at least one term range")
        sorted_items = sorted(ranges.items(), key=lambda item: item[1][0])
        low = min(r[0] for r in ranges.values())
        high = max(r[1] for r in ranges.values())
        variable = cls(name=name, universe=(low, high))
        for i, (term_name, (term_low, term_high)) in enumerate(sorted_items):
            if term_high <= term_low:
                raise FuzzyDefinitionError(
                    f"term {term_name!r} of variable {name!r} has an empty range"
                )
            width = term_high - term_low
            fuzz = overlap * width
            a = max(low, term_low - fuzz) if i > 0 else low
            d = min(high, term_high + fuzz) if i < len(sorted_items) - 1 else high
            variable.add_term(term_name, TrapezoidalMF(a, term_low, term_high, d))
        return variable
