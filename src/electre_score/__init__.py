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

# refsets and scoring load on first use (PEP 562): sweep-lambda runs
# neither, and every command is its own short process
_LAZY = dict.fromkeys((
    "ProfileTable", "SetClassification", "check_comparability", "check_separability",
    "derived_relation", "validate_basic_assumptions",
), "refsets") | dict.fromkeys((
    "BasicAssumptionsViolatedError", "DeckOfCards", "ScoreRange", "ScoringResult",
    "deck_of_cards_scores", "scan_bounds", "score_ranges",
), "scoring")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)


__version__ = "0.1.0"
