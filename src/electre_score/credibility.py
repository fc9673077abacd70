"""Pairwise engine: per-criterion relations, concordance, discordance,
credibility, the crisp cut, derived relations, and dominance.

Every function here is pure and works on direction-adjusted differences
("advantage"), so minimized criteria need no data preprocessing. The
discordance band is ``d = 1`` strictly below the veto margin and the
credibility discount applies to criteria whose discordance exceeds the
concordance index; both follow the standard pseudo-criterion reading.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    Criterion,
    Direction,
    ThresholdMode,
    ThresholdSpec,
    check_cutting_level,
    normalize_weights,
)


class NegativeThresholdError(ValueError):
    """A variable threshold evaluated to a negative value."""


class InvertedThresholdsError(ValueError):
    """Indifference threshold exceeds preference threshold at the evaluation point."""


class InvalidVetoError(ValueError):
    """Veto threshold does not exceed the preference threshold."""


class PerCriterionRelation(enum.Enum):
    STRICT_PREF_A = "strict_pref_a"
    WEAK_PREF_A = "weak_pref_a"
    INDIFFERENT = "indifferent"
    WEAK_PREF_B = "weak_pref_b"
    STRICT_PREF_B = "strict_pref_b"


class DerivedRelation(enum.Enum):
    A_PREFERRED = "a_preferred"
    B_PREFERRED = "b_preferred"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


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
    if not any(c.weight > 0 for c in criteria):
        normalize_weights(criteria)  # raises AllZeroWeightsError
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
    """Credibility that a outranks b: concordance discounted by strong discordance.

    This is the scalar reference; batch code uses :func:`sigma_pair`,
    which returns the same bits for both directions at once.
    """
    c = concordance(criteria, pa, pb)
    sigma = c
    for j, crit in enumerate(criteria):
        d = discordance(crit, pa[j], pb[j])
        if d > c:
            # d <= 1 = c would contradict d > c, so 1 - c > 0 here
            sigma *= (1.0 - d) / (1.0 - c)
    return sigma


# ---------------------------------------------------------------------------
# pair kernel: credibility() for both directions of a pair at once
#
# Thresholds depend only on the worse and the better value of a pair, so
# one evaluation serves both directions, and the reverse advantage is the
# exact negation of the forward one. The float operations and their order
# are those of concordance(), discordance() and credibility(), so the
# kernel returns the same bits as two scalar calls, and raises the same
# errors in the same order.

# where a threshold's base value comes from
CONSTANT, LOWER, HIGHER = 0, 1, 2


def _compile_spec(spec: ThresholdSpec, is_max: bool) -> tuple[int, float, float]:
    if spec.mode is ThresholdMode.CONSTANT:
        return CONSTANT, spec.intercept, 0.0
    # direct thresholds read the worse value, inverse ones the better
    worse_is_lower = is_max
    reads_lower = worse_is_lower == (spec.mode is ThresholdMode.DIRECT)
    return (LOWER if reads_lower else HIGHER), spec.intercept, spec.slope


@dataclass(frozen=True)
class CompiledCriteria:
    """Criteria flattened to plain tuples for :func:`sigma_pair`.

    Each row is ``(name, is_max, weight, q, p, v)`` where q, p and v are
    ``(base, intercept, slope)`` and v is None without a veto. The base,
    CONSTANT, LOWER or HIGHER, says which value of a pair a threshold reads.
    """

    criteria: tuple[Criterion, ...]
    rows: tuple[tuple, ...]
    total_weight: float


def compile_criteria(criteria: Sequence[Criterion]) -> CompiledCriteria:
    """Prepare criteria once per command for repeated :func:`sigma_pair` calls."""
    criteria = tuple(criteria)
    if not any(c.weight > 0 for c in criteria):
        normalize_weights(criteria)  # raises AllZeroWeightsError
    rows = []
    total = 0.0
    for crit in criteria:
        # a plain loop, not sum(): concordance() adds the weights one by one
        total += crit.weight
        is_max = crit.direction is Direction.MAX
        q, p, v = (
            None if spec is None else _compile_spec(spec, is_max)
            for spec in (crit.indifference, crit.preference, crit.veto)
        )
        rows.append((crit.name, is_max, crit.weight, q, p, v))
    return CompiledCriteria(criteria, tuple(rows), total)


def _negative(name: str, value: float, ga: float, gb: float) -> NegativeThresholdError:
    return NegativeThresholdError(
        f"criterion {name}: threshold {value} < 0 for pair ({ga}, {gb})"
    )


def sigma_pair(
    kernel: CompiledCriteria, pa: Sequence[float], pb: Sequence[float]
) -> tuple[float, float]:
    """``(credibility(a, b), credibility(b, a))`` in one pass over the criteria."""
    num_ab = 0.0
    num_ba = 0.0
    vetoes = []  # veto criteria that discount a direction or fail their check
    for (name, is_max, w, qs, ps, vs), x, y in zip(kernel.rows, pa, pb):
        d = x - y if is_max else y - x
        lower, higher = (y, x) if y < x else (x, y)
        # a constant threshold (base 0) is its intercept, with no addition
        base, q, slope = qs
        if base:
            q = q + slope * (lower if base == LOWER else higher)
        if q < 0:
            raise _negative(name, q, x, y)
        base, p, slope = ps
        if base:
            p = p + slope * (lower if base == LOWER else higher)
        if p < 0:
            raise _negative(name, p, x, y)
        if q > p:
            raise InvertedThresholdsError(
                f"criterion {name}: q={q} > p={p} for pair ({x}, {y})"
            )
        # p = q leaves the weak zone ]q, p] empty, so p - q > 0 below
        if d > q:
            num_ab += w
            if d <= p:
                num_ba += ((-d + p) / (p - q)) * w
        elif d >= -q:
            num_ab += w
            num_ba += w
        else:
            num_ba += w
            if d >= -p:
                num_ab += ((d + p) / (p - q)) * w
        if vs is not None:
            base, v, slope = vs
            if base:
                v = v + slope * (lower if base == LOWER else higher)
            if v <= p or d < -p or d > p:
                vetoes.append((name, x, y, d, p, v))
    c_ab = num_ab / kernel.total_weight
    c_ba = num_ba / kernel.total_weight
    sigma_ab, sigma_ba = c_ab, c_ba
    # veto checks and discounts follow every threshold-order check, in
    # criterion order, as in credibility()
    for name, x, y, d, p, v in vetoes:
        if v < 0:
            raise _negative(name, v, x, y)
        if v <= p:
            raise InvalidVetoError(
                f"criterion {name}: veto {v} must exceed preference {p}"
            )
        if d < -p:
            dj = (d + p) / (p - v) if d >= -v else 1.0
            if dj > c_ab:
                sigma_ab *= (1.0 - dj) / (1.0 - c_ab)
        elif d > p:
            nd = -d
            dj = (nd + p) / (p - v) if nd >= -v else 1.0
            if dj > c_ba:
                sigma_ba *= (1.0 - dj) / (1.0 - c_ba)
    return sigma_ab, sigma_ba


def crisp_outranks(sigma: float, lam: float) -> bool:
    """Fuzzy-to-crisp cut: outranking holds iff sigma reaches the cutting level."""
    check_cutting_level(lam)
    return sigma >= lam


def derived_relation(sab: bool, sba: bool) -> DerivedRelation:
    """Combine the two crisp outranking directions into one of four relations."""
    if sab and not sba:
        return DerivedRelation.A_PREFERRED
    if sba and not sab:
        return DerivedRelation.B_PREFERRED
    if sab and sba:
        return DerivedRelation.INDIFFERENT
    return DerivedRelation.INCOMPARABLE


def band_ends(sigmas: Iterable[float]) -> list[float]:
    """Right endpoints of the cutting-level bands that ``sigmas`` cut ]0.5, 1] into.

    A pair's derived relation changes only where the cutting level crosses
    one of its two credibilities, so it is constant on each band.
    """
    return sorted({s for s in sigmas if 0.5 < s <= 1.0} | {1.0})


def preferred_bands(ends: Sequence[float], sab: float, sba: float) -> range:
    """Indices of the bands of ``ends`` on which a is strictly preferred to b.

    Band i of the sorted cutting levels ``ends`` is judged at its right
    endpoint, and ``sigma >= ends[i]`` holds exactly for i below
    ``bisect_right(ends, sigma)``. So the run is where
    ``derived_relation(sab >= u, sba >= u)`` is A_PREFERRED, found by
    comparisons alone; ``ends=[lam]`` judges the single level lam. An empty
    run starts at its stop, so ``range(start)`` and ``range(stop, len(ends))``
    are its complement.
    """
    stop = bisect_right(ends, sab)
    return range(min(bisect_right(ends, sba), stop), stop)


def dominates(
    criteria: Sequence[Criterion], pa: Sequence[float], pb: Sequence[float]
) -> bool:
    """Componentwise at-least-as-good with at least one strict advantage."""
    strict = False
    for j, crit in enumerate(criteria):
        delta = advantage(crit, pa[j], pb[j])
        if delta < 0:
            return False
        if delta > 0:
            strict = True
    return strict
