"""Exact cutting-level sweep.

Crisp relations only change when the cutting level crosses a credibility
value, so the admissible set for any relation target is a union of
left-open right-closed intervals whose endpoints are credibility values
(or the domain bounds 0.5 and 1). The sweep enumerates those elementary
bands and evaluates each at its right endpoint; no sampling is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .credibility import DerivedRelation, compile_criteria, derived_relation, sigma_pair
from .model import Criterion, PerformanceTable, ReferenceStructure


@dataclass(frozen=True)
class LambdaInterval:
    """Maximal band ]lower, upper] of admissible cutting levels."""

    lower: float
    upper: float

    def contains(self, lam: float) -> bool:
        return self.lower < lam <= self.upper

    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2


@dataclass(frozen=True)
class SweepResult:
    intervals: tuple[LambdaInterval, ...]
    breakpoints: tuple[float, ...]
    mismatches_best: tuple[tuple[str, str], ...]  # closest band's failing pairs
    best_band: LambdaInterval | None

    @property
    def feasible(self) -> bool:
        return bool(self.intervals)


def _pair_mark(sigma_ap: float, sigma_pa: float, lam: float) -> str:
    """Target-table cell of the derived relation of (action, profile)."""
    relation = derived_relation(sigma_ap >= lam, sigma_pa >= lam)
    if relation is DerivedRelation.A_PREFERRED:
        return "a"
    if relation is DerivedRelation.B_PREFERRED:
        return "b"
    return ""


def sweep_lambda(
    table: PerformanceTable,
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    target: Mapping[tuple[str, str], str],
    dont_care_blanks: bool = False,
) -> SweepResult:
    """All maximal cutting-level bands reproducing the target exactly.

    ``target`` maps (profile name, action id) to ``"a"`` (action strictly
    preferred), ``"b"`` (profile strictly preferred) or ``""``. A blank
    demands indifference-or-incomparability unless ``dont_care_blanks``
    relaxes it to no constraint.
    """
    profiles = {name: vec for name, _, _, vec in refs.flat_profiles()}
    unknown = [
        key for key in target
        if key[0] not in profiles or key[1] not in table.actions
    ]
    if unknown:
        raise KeyError(f"target refers to unknown pairs: {unknown[:5]}")

    kernel = compile_criteria(criteria)
    # (action, profile) -> (sigma(action, profile), sigma(profile, action))
    sigma: dict[tuple[str, str], tuple[float, float]] = {}
    for (pname, action) in target:
        sigma[(action, pname)] = sigma_pair(kernel, table.vector(action), profiles[pname])

    values = sorted({v for pair in sigma.values() for v in pair if 0.5 < v <= 1.0} | {1.0})
    bands: list[tuple[float, float, list[tuple[str, str]]]] = []
    lower = 0.5
    for upper in values:
        lam = upper  # right endpoint lies in the band and represents it
        mismatches = [
            (pname, action)
            for (pname, action), mark in target.items()
            if (mark or not dont_care_blanks)
            and _pair_mark(*sigma[(action, pname)], lam) != mark
        ]
        bands.append((lower, upper, mismatches))
        lower = upper

    intervals: list[LambdaInterval] = []
    for lower, upper, mismatches in bands:
        if mismatches:
            continue
        if intervals and intervals[-1].upper == lower:
            intervals[-1] = LambdaInterval(intervals[-1].lower, upper)
        else:
            intervals.append(LambdaInterval(lower, upper))

    best = min(bands, key=lambda b: len(b[2]))
    return SweepResult(
        intervals=tuple(intervals),
        breakpoints=tuple(values),
        mismatches_best=tuple(best[2]),
        best_band=LambdaInterval(best[0], best[1]),
    )
