"""The weighted protection/utility objective ``H`` (Section IV).

For every candidate anonymization level the publisher weighs the protection
against fusion attacks (``P ∘ P̂``, the dissimilarity between the private data
and the adversary's post-fusion estimate) against the utility of the release
(``U``, the inverse discernibility metric)::

    H_i = W1 * (P ∘ P̂_i) + W2 * U_i

Raw protection and utility live on wildly different scales (1e8 vs 1e-3 in the
paper's experiments), so adding them directly makes the weights meaningless.
The paper folds a ``1/m`` normalization into its weight matrices; this module
makes the normalization explicit and configurable:

* ``"minmax"`` (default) rescales protection and utility to ``[0, 1]`` over the
  swept levels before weighting, which reproduces the shape and magnitude of
  the paper's Figure 8 (H values in the 0.1-0.5 range with an interior
  optimum);
* ``"none"`` uses the raw values, for callers who pre-scale their weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import FREDConfigurationError

__all__ = ["WeightedObjective"]


@dataclass(frozen=True)
class WeightedObjective:
    """Weighted sum of protection and utility over a sweep of candidate levels.

    Parameters
    ----------
    protection_weight:
        ``W1``, the weight on the dissimilarity ``P ∘ P̂``.
    utility_weight:
        ``W2``, the weight on the release utility ``U``.
    normalization:
        ``"minmax"`` or ``"none"`` (see module docstring).
    """

    protection_weight: float = 0.5
    utility_weight: float = 0.5
    normalization: str = "minmax"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.protection_weight) and math.isfinite(self.utility_weight)):
            raise FREDConfigurationError(
                f"objective weights must be finite, got ({self.protection_weight}, "
                f"{self.utility_weight})"
            )
        if self.protection_weight < 0 or self.utility_weight < 0:
            raise FREDConfigurationError("objective weights must be non-negative")
        if self.protection_weight == 0 and self.utility_weight == 0:
            raise FREDConfigurationError("at least one objective weight must be positive")
        if self.normalization not in ("minmax", "none"):
            raise FREDConfigurationError(
                f"unknown normalization {self.normalization!r}; use 'minmax' or 'none'"
            )

    def _normalize(self, values: np.ndarray) -> np.ndarray:
        if self.normalization == "none":
            return values
        low = float(values.min())
        high = float(values.max())
        if high <= low:
            return np.full_like(values, 0.5)
        return (values - low) / (high - low)

    def scores(
        self, protections: Sequence[float], utilities: Sequence[float]
    ) -> np.ndarray:
        """``H_i`` for every level of a sweep."""
        protections = np.asarray(protections, dtype=float)
        utilities = np.asarray(utilities, dtype=float)
        if protections.shape != utilities.shape or protections.ndim != 1:
            raise FREDConfigurationError(
                "protections and utilities must be equal-length vectors"
            )
        if protections.size == 0:
            raise FREDConfigurationError("cannot score an empty sweep")
        scaled_protection = self._normalize(protections)
        scaled_utility = self._normalize(utilities)
        return (
            self.protection_weight * scaled_protection
            + self.utility_weight * scaled_utility
        )

    def score(self, protection: float, utility: float) -> float:
        """``H`` for a single level without normalization (raw weighted sum)."""
        return self.protection_weight * protection + self.utility_weight * utility
