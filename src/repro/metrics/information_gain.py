"""Adversarial information gain (Figure 6).

The paper quantifies the value of the web-based auxiliary information to the
adversary as::

    G = (P ∘ P') − (P ∘ P̂)

the drop in dissimilarity between the adversary's estimate of the private data
before and after information fusion.  ``G > 0`` means fusion moved the
adversary strictly closer to the truth; the paper's central empirical claim is
that ``G`` stays positive at every anonymization level but does not grow with
``k`` (stronger anonymization starves the fusion system of signal).
"""

from __future__ import annotations

import numpy as np

from repro.dataset.table import Table
from repro.metrics.dissimilarity import (
    dissimilarity_after_fusion,
    dissimilarity_before_fusion,
)

__all__ = ["information_gain"]


def information_gain(
    private: Table,
    release: Table,
    sensitive_estimates: np.ndarray,
    assumed_sensitive_range: tuple[float, float],
) -> float:
    """``G = (P ∘ P') − (P ∘ P̂)`` for one release and one attack outcome."""
    before = dissimilarity_before_fusion(private, release, assumed_sensitive_range)
    after = dissimilarity_after_fusion(private, release, sensitive_estimates)
    return before - after
