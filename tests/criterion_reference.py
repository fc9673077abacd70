"""Per-criterion reference for the pair kernel.

The credibility of one ordered pair, the slow and explicit way: each
criterion's threshold is evaluated on its own, the pair is classified
into one of five per-criterion relations, and concordance, discordance
and credibility are built from those. Every function works on
direction-adjusted differences ("advantage"), so minimized criteria
need no data preprocessing. The discordance band is ``d = 1`` strictly
below the veto margin and the credibility discount applies to criteria
whose discordance exceeds the concordance index; both follow the
standard pseudo-criterion reading.

``electre_score.credibility.sigma_pair`` repeats these float operations
in the same order, so the two give the same bits and raise the same
errors; ``tests/test_credibility.py::TestPairKernel`` checks that with
exact equality. ``tests/oracle.py`` stays the independent cross-check,
written in another style.
"""

from __future__ import annotations

import enum
from typing import Sequence

from electre_score.credibility import (
    InvalidVetoError,
    InvertedThresholdsError,
    NegativeThresholdError,
)
from electre_score.model import (
    AllZeroWeightsError,
    Criterion,
    Direction,
    ThresholdMode,
    ThresholdSpec,
)


class PerCriterionRelation(enum.Enum):
    STRICT_PREF_A = "strict_pref_a"
    WEAK_PREF_A = "weak_pref_a"
    INDIFFERENT = "indifferent"
    WEAK_PREF_B = "weak_pref_b"
    STRICT_PREF_B = "strict_pref_b"


def advantage(criterion: Criterion, ga: float, gb: float) -> float:
    """Direction-adjusted difference; positive means the first performer is better."""
    if criterion.direction is Direction.MAX:
        return ga - gb
    return gb - ga


def threshold_at(spec: ThresholdSpec, criterion: Criterion, ga: float, gb: float) -> float:
    """Evaluate a threshold for the ordered pair (ga, gb).

    Direct thresholds attach to the worse performance of the pair under
    the criterion's direction, inverse thresholds to the better one.
    """
    if spec.mode is ThresholdMode.CONSTANT:
        value = spec.intercept
    else:
        if criterion.direction is Direction.MAX:
            worse, better = min(ga, gb), max(ga, gb)
        else:
            worse, better = max(ga, gb), min(ga, gb)
        value = spec.at(worse if spec.mode is ThresholdMode.DIRECT else better)
    if value < 0:
        raise NegativeThresholdError(
            f"criterion {criterion.name}: threshold {value} < 0 for pair ({ga}, {gb})"
        )
    return value


def per_criterion_relation(
    criterion: Criterion, ga: float, gb: float
) -> PerCriterionRelation:
    """Classify the ordered pair on one criterion under the pseudo-criterion model."""
    q = threshold_at(criterion.indifference, criterion, ga, gb)
    p = threshold_at(criterion.preference, criterion, ga, gb)
    if q > p:
        raise InvertedThresholdsError(
            f"criterion {criterion.name}: q={q} > p={p} for pair ({ga}, {gb})"
        )
    delta = advantage(criterion, ga, gb)
    if delta > p:
        return PerCriterionRelation.STRICT_PREF_A
    if delta > q:
        return PerCriterionRelation.WEAK_PREF_A
    if delta >= -q:
        return PerCriterionRelation.INDIFFERENT
    if delta >= -p:
        return PerCriterionRelation.WEAK_PREF_B
    return PerCriterionRelation.STRICT_PREF_B


def concordance(
    criteria: Sequence[Criterion],
    pa: Sequence[float],
    pb: Sequence[float],
) -> float:
    """Weighted strength of the coalition supporting "a outranks b".

    Criteria where a is indifferent, weakly or strictly preferred count
    their full normalized weight; criteria where b is weakly preferred
    count a linear fraction of it; strict opposition counts nothing.
    """
    if all(c.weight == 0 for c in criteria):
        raise AllZeroWeightsError("all criterion weights are zero")
    # accumulate raw weights and divide once, so a fully concordant
    # coalition yields exactly 1.0
    numerator = 0.0
    total_weight = 0.0
    for j, crit in enumerate(criteria):
        total_weight += crit.weight
        rel = per_criterion_relation(crit, pa[j], pb[j])
        if rel in (
            PerCriterionRelation.STRICT_PREF_A,
            PerCriterionRelation.WEAK_PREF_A,
            PerCriterionRelation.INDIFFERENT,
        ):
            numerator += crit.weight
        elif rel is PerCriterionRelation.WEAK_PREF_B:
            # -p <= delta < -q here, so p > q
            q = threshold_at(crit.indifference, crit, pa[j], pb[j])
            p = threshold_at(crit.preference, crit, pa[j], pb[j])
            phi = (advantage(crit, pa[j], pb[j]) + p) / (p - q)
            numerator += phi * crit.weight
    return numerator / total_weight


def discordance(criterion: Criterion, ga: float, gb: float) -> float:
    """Per-criterion opposition against "a outranks b" (0 without a veto).

    Rises linearly from 0 at the preference margin to 1 at the veto
    margin, and stays 1 beyond it.
    """
    if criterion.veto is None:
        return 0.0
    p = threshold_at(criterion.preference, criterion, ga, gb)
    v = threshold_at(criterion.veto, criterion, ga, gb)
    if v <= p:
        raise InvalidVetoError(
            f"criterion {criterion.name}: veto {v} must exceed preference {p}"
        )
    delta = advantage(criterion, ga, gb)
    if delta >= -p:
        return 0.0
    if delta >= -v:
        return (delta + p) / (p - v)
    return 1.0


def credibility(
    criteria: Sequence[Criterion],
    pa: Sequence[float],
    pb: Sequence[float],
) -> float:
    """Credibility that a outranks b: concordance discounted by strong discordance."""
    c = concordance(criteria, pa, pb)
    sigma = c
    for j, crit in enumerate(criteria):
        d = discordance(crit, pa[j], pb[j])
        if d > c:
            # d <= 1 = c would contradict d > c, so 1 - c > 0 here
            sigma *= (1.0 - d) / (1.0 - c)
    return sigma
