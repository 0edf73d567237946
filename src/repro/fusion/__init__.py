"""Web-based information-fusion attack: auxiliary sources, linkage, fusion."""

from repro.fusion.attack import (
    AttackConfig,
    AttackResult,
    WebFusionAttack,
    build_income_fusion_system,
    harvest_auxiliary,
)
from repro.fusion.auxiliary import AuxiliaryRecord, AuxiliarySource, TableAuxiliarySource
from repro.fusion.estimators import (
    MidpointEstimator,
    RankScalingEstimator,
    SensitiveEstimator,
    columns_to_matrix,
)
from repro.fusion.rulegen import monotone_rules, wang_mendel_rules
from repro.fusion.web import SimulatedWebCorpus, WebPage, name_variant
from repro.linkage import normalize_name

__all__ = [
    "AttackConfig",
    "AttackResult",
    "WebFusionAttack",
    "build_income_fusion_system",
    "harvest_auxiliary",
    "AuxiliaryRecord",
    "AuxiliarySource",
    "TableAuxiliarySource",
    "SimulatedWebCorpus",
    "WebPage",
    "name_variant",
    "normalize_name",
    "monotone_rules",
    "wang_mendel_rules",
    "MidpointEstimator",
    "RankScalingEstimator",
    "SensitiveEstimator",
    "columns_to_matrix",
]
