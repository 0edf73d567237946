"""Protection, utility and breach metrics."""

from repro.metrics.dissimilarity import (
    adversary_estimate_matrix,
    dissimilarity_after_fusion,
    dissimilarity_before_fusion,
    mean_square_dissimilarity,
    private_matrix,
)
from repro.metrics.information_gain import information_gain
from repro.metrics.privacy import (
    breach_rate,
    mean_absolute_error,
    rank_correlation,
    reidentification_risk,
    relative_errors,
    root_mean_square_error,
)
from repro.metrics.utility import (
    discernibility_cost,
    discernibility_utility,
    generalized_information_loss,
    utility_of_result,
)

__all__ = [
    "mean_square_dissimilarity",
    "private_matrix",
    "adversary_estimate_matrix",
    "dissimilarity_before_fusion",
    "dissimilarity_after_fusion",
    "information_gain",
    "discernibility_cost",
    "discernibility_utility",
    "generalized_information_loss",
    "utility_of_result",
    "relative_errors",
    "breach_rate",
    "mean_absolute_error",
    "root_mean_square_error",
    "rank_correlation",
    "reidentification_risk",
]
