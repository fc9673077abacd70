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

    Per constrained pair the sweep keeps only its two credibilities, in
    two lists in target order. The miss runs go straight into one
    difference array, and the closest band is judged as the single
    level ``ends[best]``.
    """
    profiles = {name: vec for name, _, _, vec in refs.flat_profiles()}
    unknown = [
        key for key in target
        if key[0] not in profiles or key[1] not in table.rows
    ]
    if unknown:
        raise KeyError(f"target refers to unknown pairs: {unknown[:5]}")

    # a blank under dont_care_blanks constrains nothing, so its
    # credibilities cut no band either; each pass walks the target in order
    def constrained():
        return (
            (key, mark) for key, mark in target.items()
            if mark or not dont_care_blanks
        )

    kernel = compile_criteria(criteria)
    saps, spas = [], []  # sigma(action, profile), sigma(profile, action)
    for (pname, action), _ in constrained():
        sap, spa = sigma_pair(kernel, table.rows[action], profiles[pname])
        saps.append(sap)
        spas.append(spa)
    ends = band_ends(itertools.chain(saps, spas))
    lowers = [0.5, *ends[:-1]]
    n = len(ends)
    # every pair's mark fails on at most two runs of bands
    diff = [0] * (n + 1)
    for (_, mark), sap, spa in zip(constrained(), saps, spas):
        a, b = preferred_bands(ends, sap, spa)
        if mark == "a":
            runs = (range(a.start), range(a.stop, n))
        elif mark == "b":
            runs = (range(b.start), range(b.stop, n))
        elif mark == "":
            runs = (a, b)
        else:
            raise KeyError(mark)
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
    level = ends[best:best + 1]
    mismatches = []
    for (key, mark), sap, spa in zip(constrained(), saps, spas):
        a, b = preferred_bands(level, sap, spa)
        if (bool(a), bool(b)) != (mark == "a", mark == "b"):
            mismatches.append(key)
    return SweepResult(
        intervals=tuple(intervals),
        breakpoints=tuple(ends),
        mismatches_best=tuple(mismatches),
        best_band=LambdaInterval(lowers[best], ends[best]),
    )
