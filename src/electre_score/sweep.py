"""Exact cutting-level sweep.

Crisp relations only change when the cutting level crosses a credibility
value, so the admissible set for any relation target is a union of
left-open right-closed intervals whose endpoints are credibility values
(or the domain bounds 0.5 and 1). The sweep judges every elementary band
at its right endpoint, with no sampling: each target pair misses on at
most two runs of bands (:func:`~.credibility.preferred_bands`), and one
difference array counts the misses of every band.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .credibility import band_ends, compile_criteria, preferred_bands, sigma_pair
from .model import Criterion, PerformanceTable, ReferenceStructure


class LambdaInterval(NamedTuple):
    """Maximal band ]lower, upper] of admissible cutting levels."""

    lower: float
    upper: float

    def contains(self, lam: float) -> bool:
        return self.lower < lam <= self.upper

    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2


class SweepResult(NamedTuple):
    intervals: tuple[LambdaInterval, ...]
    breakpoints: tuple[float, ...]
    mismatches_best: tuple[tuple[str, str], ...]  # closest band's failing pairs
    best_band: LambdaInterval

    @property
    def feasible(self) -> bool:
        return bool(self.intervals)


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
    relaxes it to no constraint, and then its credibilities cut no band;
    any other mark raises KeyError.
    """
    profiles = {name: vec for name, _, _, vec in refs.flat_profiles()}
    unknown = [
        key for key in target
        if key[0] not in profiles or key[1] not in table.rows
    ]
    if unknown:
        raise KeyError(f"target refers to unknown pairs: {unknown[:5]}")

    # a blank under dont_care_blanks constrains nothing, so its
    # credibilities cut no band either
    constrained = {
        key: mark for key, mark in target.items() if mark or not dont_care_blanks
    }
    kernel = compile_criteria(criteria)
    # (profile, action) -> (sigma(action, profile), sigma(profile, action))
    sigma = {
        (pname, action): sigma_pair(kernel, table.rows[action], profiles[pname])
        for (pname, action) in constrained
    }
    ends = band_ends(v for pair in sigma.values() for v in pair)
    lowers = [0.5, *ends[:-1]]
    n = len(ends)
    # constrained pair -> the runs of bands on which its mark fails
    misses: dict[tuple[str, str], tuple[range, range]] = {}
    for key, mark in constrained.items():
        sap, spa = sigma[key]
        a = preferred_bands(ends, sap, spa)
        b = preferred_bands(ends, spa, sap)
        misses[key] = {
            "a": (range(a.start), range(a.stop, n)),
            "b": (range(b.start), range(b.stop, n)),
            "": (a, b),
        }[mark]
    diff = [0] * (n + 1)
    for runs in misses.values():
        for run in runs:
            diff[run.start] += 1
            diff[run.stop] -= 1
    counts = list(itertools.accumulate(diff[:n]))

    intervals: list[LambdaInterval] = []
    for lower, upper, count in zip(lowers, ends, counts):
        if count:
            continue
        if intervals and intervals[-1].upper == lower:
            intervals[-1] = LambdaInterval(intervals[-1].lower, upper)
        else:
            intervals.append(LambdaInterval(lower, upper))

    best = counts.index(min(counts))
    return SweepResult(
        intervals=tuple(intervals),
        breakpoints=tuple(ends),
        mismatches_best=tuple(
            key for key, runs in misses.items() if any(best in run for run in runs)
        ),
        best_band=LambdaInterval(lowers[best], ends[best]),
    )
