"""Score-range assignment and deck-of-cards reference scales.

The bound scan implements the general definitions: the lower bound is
the largest reference score whose set the action is strictly preferred
to, with every lower level either also action-preferred or incomparable;
the upper bound is symmetric. When both soft-dominance separability
flags hold the universal clause is automatic and the scan collapses to
the simple highest/lowest rule, which is used as a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .credibility import compile_criteria
from .model import Criterion, PerformanceTable, ReferenceStructure, check_cutting_level
from .refsets import (
    ActionSetRelation,
    ProfileTable,
    SetClassification,
    classify_action_vs_levels,
    level_relations,
)


class NoLowerBoundError(ValueError):
    """No reference level qualifies as a lower bound for the action."""


class NoUpperBoundError(ValueError):
    """No reference level qualifies as an upper bound for the action."""


class BasicAssumptionsViolatedError(ValueError):
    """The reference collection violates the basic structural assumptions."""

    def __init__(self, violations: Sequence[str]):
        super().__init__(
            "reference collection violates basic assumptions: "
            + "; ".join(violations)
        )
        self.violations = list(violations)


@dataclass(frozen=True)
class DeckOfCards:
    """Blank-card counts between consecutive scored sets, with anchor scores."""

    blank_cards: tuple[int, ...]
    anchors: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self) -> None:
        if len(self.blank_cards) < 1:
            raise ValueError("need at least two levels (one blank-card count)")
        if any(e < 0 or int(e) != e for e in self.blank_cards):
            raise ValueError("blank-card counts must be nonnegative integers")
        low, high = self.anchors
        if not low < high:
            raise ValueError("anchor scores must satisfy low < high")

    @property
    def levels(self) -> int:
        return len(self.blank_cards) + 1

    def unit(self) -> float:
        """Value of one unit: the anchor span divided by the total unit count."""
        low, high = self.anchors
        alpha = sum(e + 1 for e in self.blank_cards)
        return float(Fraction(high - low) / alpha)


def deck_of_cards_scores(deck: DeckOfCards) -> list[float]:
    """Scores for all levels: cumulative blank-card units between the anchors.

    Exact rational arithmetic keeps the top score equal to the high
    anchor and renders thirds and the like at full double precision.
    """
    low, high = deck.anchors
    alpha = sum(e + 1 for e in deck.blank_cards)
    unit = Fraction(high - low) / alpha
    scores = [Fraction(low)]
    for e in deck.blank_cards:
        scores.append(scores[-1] + (e + 1) * unit)
    return [float(x) for x in scores]


@dataclass(frozen=True)
class ScoreRange:
    """Open score interval assigned to one action.

    Bound values are members of the reference score list; ``None`` marks
    a bound that could not be established (comparability failure), with
    the reason kept alongside.
    """

    action: str
    lower: float | None
    upper: float | None
    lower_level: int | None
    upper_level: int | None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.lower is not None and self.upper is not None


def _scan_lower(
    relations: Sequence[ActionSetRelation], scores: Sequence[float], fast: bool
) -> tuple[float, int]:
    candidates = [
        k
        for k, rel in enumerate(relations)
        if rel.classification is SetClassification.ACTION_PREFERRED
    ]
    for k in reversed(candidates):
        if fast:
            return scores[k], k
        if all(
            relations[h].classification
            in (SetClassification.ACTION_PREFERRED, SetClassification.INCOMPARABLE)
            for h in range(k)
        ):
            return scores[k], k
    raise NoLowerBoundError("action is not strictly preferred to any reference set")


def _scan_upper(
    relations: Sequence[ActionSetRelation], scores: Sequence[float], fast: bool
) -> tuple[float, int]:
    candidates = [
        k
        for k, rel in enumerate(relations)
        if rel.classification is SetClassification.SET_PREFERRED
    ]
    for k in candidates:
        if fast:
            return scores[k], k
        if all(
            relations[h].classification
            in (SetClassification.SET_PREFERRED, SetClassification.INCOMPARABLE)
            for h in range(k + 1, len(relations))
        ):
            return scores[k], k
    raise NoUpperBoundError("no reference set is strictly preferred to the action")


def lower_bound(
    action: Sequence[float],
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    fast: bool = False,
) -> tuple[float, int]:
    """Highest reference score the action is strictly preferred to.

    Returns (score, level index). ``fast`` skips the universal clause on
    the levels below; callers enable it only once both soft-dominance
    separability flags are confirmed.
    """
    relations = classify_action_vs_levels(action, refs, criteria, lam)
    return _scan_lower(relations, refs.scores, fast)


def upper_bound(
    action: Sequence[float],
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    fast: bool = False,
) -> tuple[float, int]:
    """Lowest reference score whose set is strictly preferred to the action."""
    relations = classify_action_vs_levels(action, refs, criteria, lam)
    return _scan_upper(relations, refs.scores, fast)


@dataclass(frozen=True)
class ScoringResult:
    """Score ranges for every action plus post-hoc consistency findings.

    ``relations`` holds, per range, the action's relation to every level
    bottom to top: the input of the bound scan and of comparability.
    """

    ranges: tuple[ScoreRange, ...]
    findings: tuple[str, ...]
    used_fast_path: bool
    relations: tuple[tuple[ActionSetRelation, ...], ...]

    def by_action(self) -> dict[str, ScoreRange]:
        return {r.action: r for r in self.ranges}


def _range_findings(
    action: str, relations: Sequence[ActionSetRelation], scores: Sequence[float],
    lo_idx: int, hi_idx: int,
) -> list[str]:
    # post-hoc checks of the range conditions; violations are reported,
    # never repaired, because they flag a collection the guarantees do
    # not cover rather than a computation error
    findings = []
    if not scores[lo_idx] < scores[hi_idx]:
        findings.append(
            f"{action}: bounds not strictly ordered "
            f"({scores[lo_idx]} !< {scores[hi_idx]})"
        )
    for k, rel in enumerate(relations):
        c = rel.classification
        if scores[k] <= scores[lo_idx] and c is SetClassification.SET_PREFERRED:
            findings.append(
                f"{action}: set at or below the lower bound is preferred "
                f"to the action (level {k + 1})"
            )
        if scores[k] >= scores[hi_idx] and c is SetClassification.ACTION_PREFERRED:
            findings.append(
                f"{action}: action preferred to a set at or above the upper "
                f"bound (level {k + 1})"
            )
        if scores[lo_idx] < scores[k] < scores[hi_idx] and c in (
            SetClassification.ACTION_PREFERRED,
            SetClassification.SET_PREFERRED,
        ):
            findings.append(
                f"{action}: strict preference strictly inside the range "
                f"(level {k + 1}, {c.value})"
            )
    return findings


def score_ranges(
    table: PerformanceTable,
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    force: bool = False,
) -> ScoringResult:
    """Assign an open score range to every action of the table.

    Refuses to run on a collection violating the basic assumptions
    unless ``force`` is set; the separability fast path engages only
    when both soft-dominance flags hold. Every profile pair and every
    action-profile pair is computed once.
    """
    check_cutting_level(lam)
    kernel = compile_criteria(criteria)
    profiles = ProfileTable(kernel, refs)
    violations = profiles.basic_assumption_violations(lam)
    if violations and not force:
        raise BasicAssumptionsViolatedError(violations)
    fast = profiles.separability(lam).soft_dominance

    scores = refs.scores
    ranges: list[ScoreRange] = []
    all_relations: list[tuple[ActionSetRelation, ...]] = []
    findings: list[str] = [f"basic-assumption violation: {v}" for v in violations]
    for action in table.actions:
        relations = level_relations(kernel, table.vector(action), refs, lam)
        all_relations.append(relations)
        reasons = []
        lo = lo_idx = hi = hi_idx = None
        try:
            lo, lo_idx = _scan_lower(relations, scores, fast)
        except NoLowerBoundError:
            reasons.append("no lower bound")
        try:
            hi, hi_idx = _scan_upper(relations, scores, fast)
        except NoUpperBoundError:
            reasons.append("no upper bound")
        if lo_idx is not None and hi_idx is not None:
            findings.extend(_range_findings(action, relations, scores, lo_idx, hi_idx))
        ranges.append(
            ScoreRange(action, lo, hi, lo_idx, hi_idx, "; ".join(reasons) or None)
        )
    return ScoringResult(tuple(ranges), tuple(findings), fast, tuple(all_relations))
