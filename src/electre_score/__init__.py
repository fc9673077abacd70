"""Outranking-based score-range assignment for multi-criteria decision aiding."""

from .model import (
    AllZeroWeightsError,
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
    ValidationReport,
    validate_model,
)
from .credibility import (
    CompiledCriteria,
    compile_criteria,
    credibility,
    dominates,
    sigma_pair,
)
from .refsets import (
    ProfileTable,
    SetClassification,
    check_comparability,
    check_separability,
    derived_relation,
    validate_basic_assumptions,
)
from .scoring import (
    BasicAssumptionsViolatedError,
    DeckOfCards,
    ScoreRange,
    ScoringResult,
    deck_of_cards_scores,
    scan_bounds,
    score_ranges,
)

__version__ = "0.1.0"
