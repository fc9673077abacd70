"""Score-range assignment: the bound scan and :func:`score_ranges`.

One bound scan implements the general definitions: the lower bound is
the highest level the action is strictly preferred to with every lower
level also action-preferred or incomparable, and the upper bound is the
mirror case. It is one pass per bound over the action's relations.
``ScoringResult.used_fast_path`` records whether both soft-dominance
separability flags hold, under which the bounds are simply the highest
action-preferred and the lowest set-preferred levels.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .credibility import compile_criteria
from .model import Criterion, PerformanceTable, ReferenceStructure, check_cutting_level
from .refsets import CertifiedFold, ProfileTable, SetClassification, soft_dominance


class BasicAssumptionsViolatedError(ValueError):
    """The reference collection violates the basic structural assumptions."""

    def __init__(self, violations: Sequence[str]):
        super().__init__(
            "reference collection violates basic assumptions: "
            + "; ".join(violations)
        )
        self.violations = list(violations)


class ScoreRange(NamedTuple):
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


# the scan tests by identity; a global is cheaper than an enum attribute
_ACTION_PREFERRED = SetClassification.ACTION_PREFERRED
_SET_PREFERRED = SetClassification.SET_PREFERRED
_INCOMPARABLE = SetClassification.INCOMPARABLE


def scan_bounds(
    relations: Sequence[SetClassification], scores: Sequence[float]
) -> tuple[tuple[float, int] | None, tuple[float, int] | None]:
    """Lower and upper bound of one action as ``(score, level index)`` pairs.

    ``relations`` is the action's relation to every level, bottom to top.
    The lower bound is the last action-preferred level of the bottom run
    of action-preferred or incomparable levels: the highest level the
    action is strictly preferred to with every level below it
    action-preferred or incomparable. The upper bound is the first
    set-preferred level of the top run of set-preferred or incomparable
    levels. A missing bound is ``None``.
    """
    lo = hi = None
    for k, r in enumerate(relations):
        if r is _ACTION_PREFERRED:
            lo = k
        elif r is not _INCOMPARABLE:
            break
    k = len(relations)
    for r in reversed(relations):
        k -= 1
        if r is _SET_PREFERRED:
            hi = k
        elif r is not _INCOMPARABLE:
            break
    return (None if lo is None else (scores[lo], lo)), (None if hi is None else (scores[hi], hi))


class ScoringResult(NamedTuple):
    """Score ranges for every action plus post-hoc consistency findings.

    ``relations`` holds, per range, the action's relation to every level
    bottom to top: the input of the bound scan and of comparability.
    ``used_fast_path``: both soft-dominance flags hold, so the bounds are
    the highest action-preferred and the lowest set-preferred levels.
    ``violations`` holds the basic-assumption violations scored past
    with ``force``, empty by default; each also opens the findings,
    prefixed ``basic-assumption violation: ``, where an action's id
    could match it.
    """

    ranges: tuple[ScoreRange, ...]
    findings: tuple[str, ...]
    used_fast_path: bool
    relations: tuple[tuple[SetClassification, ...], ...]
    violations: tuple[str, ...] = ()


def _range_findings(
    action: str, relations: Sequence[SetClassification], scores: Sequence[float],
    lo_idx: int, hi_idx: int,
) -> list[str]:
    # post-hoc checks of the range conditions the scan does not guarantee
    # (scores of a structure built in code are not checked to increase);
    # violations are reported, never repaired
    findings = []
    lo, hi = scores[lo_idx], scores[hi_idx]
    if not lo < hi:
        findings.append(f"{action}: bounds not strictly ordered ({lo} !< {hi})")
    for k, c in enumerate(relations):
        if lo < scores[k] < hi and (c is _ACTION_PREFERRED or c is _SET_PREFERRED):
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
    unless ``force`` is set. Every profile pair is computed once, and
    every action-profile pair at most once: a
    :class:`~.refsets.CertifiedFold` decides a level without the kernel
    when the action beats, or loses to, every profile of it by more than
    p on every criterion, once a guard has shown that no pair of the
    input can raise a threshold error.
    """
    check_cutting_level(lam)
    kernel = compile_criteria(criteria)
    profiles = ProfileTable(kernel, refs)
    [violations] = profiles.basic_assumption_violations([lam])
    if violations and not force:
        raise BasicAssumptionsViolatedError(violations)
    fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), table.rows.values(), lam)

    scores = refs.scores
    ranges: list[ScoreRange] = []
    all_relations: list[tuple[SetClassification, ...]] = []
    findings: list[str] = [f"basic-assumption violation: {v}" for v in violations]
    for action, vector in table.rows.items():
        relations = fold.relations(vector)
        all_relations.append(relations)
        lower, upper = scan_bounds(relations, scores)
        lo, lo_idx = lower or (None, None)
        hi, hi_idx = upper or (None, None)
        if lower and upper:
            findings.extend(_range_findings(action, relations, scores, lo_idx, hi_idx))
            reason = None
        else:
            reason = "; ".join(
                f"no {side} bound" for side, bound in (("lower", lower), ("upper", upper))
                if bound is None
            )
        ranges.append(ScoreRange(action, lo, hi, lo_idx, hi_idx, reason))
    fast = all(soft_dominance(criteria, refs))  # reported only; the scan needs no gate
    return ScoringResult(
        tuple(ranges), tuple(findings), fast, tuple(all_relations), tuple(violations)
    )
