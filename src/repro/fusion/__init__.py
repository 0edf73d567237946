"""Web-based information-fusion attack: auxiliary sources, linkage, fusion."""

from repro.fusion.attack import (
    AttackConfig,
    AttackResult,
    WebFusionAttack,
    build_income_fusion_system,
    harvest_auxiliary,
)
from repro.fusion.auxiliary import (
    AuxiliaryRecord,
    AuxiliarySource,
    TableAuxiliarySource,
    auxiliary_table,
)
from repro.fusion.estimators import (
    MidpointEstimator,
    RankScalingEstimator,
    SensitiveEstimator,
    columns_to_matrix,
)
from repro.fusion.linkage import (
    MatchCandidate,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    name_similarity,
    normalize_name,
    token_set_similarity,
)
from repro.fusion.rulegen import monotone_rules, wang_mendel_rules
from repro.fusion.web import SimulatedWebCorpus, WebPage, name_variant

__all__ = [
    "AttackConfig",
    "AttackResult",
    "WebFusionAttack",
    "build_income_fusion_system",
    "harvest_auxiliary",
    "AuxiliaryRecord",
    "AuxiliarySource",
    "TableAuxiliarySource",
    "auxiliary_table",
    "SimulatedWebCorpus",
    "WebPage",
    "name_variant",
    "MatchCandidate",
    "normalize_name",
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "token_set_similarity",
    "name_similarity",
    "monotone_rules",
    "wang_mendel_rules",
    "MidpointEstimator",
    "RankScalingEstimator",
    "SensitiveEstimator",
    "columns_to_matrix",
]
