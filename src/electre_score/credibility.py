"""Pairwise numbers: the pair kernel, the lambda-band rule and dominance.

:func:`sigma_pair` is the one credibility implementation: per-criterion
pseudo-criterion thresholds, a weighted concordance index, optional veto
discordance, and the classical discount of concordance by criteria whose
discordance exceeds it. The discordance band is ``d = 1`` strictly below
the veto margin. Minimized criteria need no data preprocessing. The
relations read from these numbers live in :mod:`.refsets`;
:func:`preferred_bands` makes its crisp cut at every band end, and is
kept here so that the sweep loads no :mod:`.refsets`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from .model import AllZeroWeightsError, Criterion, Direction, ThresholdMode, ThresholdSpec


class ThresholdError(ValueError):
    """A threshold that cannot be evaluated at a pair of performances."""


class NegativeThresholdError(ThresholdError):
    """A variable threshold evaluated to a negative value."""


class InvertedThresholdsError(ThresholdError):
    """Indifference threshold exceeds preference threshold at the evaluation point."""


class InvalidVetoError(ThresholdError):
    """Veto threshold does not exceed the preference threshold."""


# ---------------------------------------------------------------------------
# pair kernel: the credibility of both directions of a pair at once
#
# Thresholds depend only on the worse and the better value of a pair, so
# one evaluation serves both directions, and the reverse advantage is the
# exact negation of the forward one. The float operations and their order
# are those of the per-criterion reference in tests/criterion_reference.py
# (concordance(), discordance() and credibility()), so the kernel returns
# the same bits as two reference calls, and raises the same errors in the
# same order; the tests check both with exact equality.

# where a threshold's base value comes from
CONSTANT, LOWER, HIGHER = 0, 1, 2


def _compile_spec(spec: ThresholdSpec, is_max: bool) -> tuple[int, float, float]:
    if spec.mode is ThresholdMode.CONSTANT:
        return CONSTANT, spec.intercept, 0.0
    # direct thresholds read the worse value, inverse ones the better
    worse_is_lower = is_max
    reads_lower = worse_is_lower == (spec.mode is ThresholdMode.DIRECT)
    return (LOWER if reads_lower else HIGHER), spec.intercept, spec.slope


class CompiledCriteria(NamedTuple):
    """Criteria flattened to plain tuples for :func:`sigma_pair`.

    Each row is ``(name, is_max, weight, q, p, v, variable)`` where q, p
    and v are ``(base, intercept, slope)`` and v is None without a veto.
    The base, CONSTANT, LOWER or HIGHER, says which value of a pair a
    threshold reads, and ``variable`` whether any of the three reads one.
    """

    criteria: tuple[Criterion, ...]
    rows: tuple[tuple, ...]
    total_weight: float


def compile_criteria(criteria: Sequence[Criterion]) -> CompiledCriteria:
    """Prepare criteria once per command for repeated :func:`sigma_pair` calls."""
    criteria = tuple(criteria)
    if all(c.weight == 0 for c in criteria):
        raise AllZeroWeightsError("all criterion weights are zero")
    rows = []
    total = 0.0
    for crit in criteria:
        # a plain loop, not sum(): the reference adds the weights one by one
        total += crit.weight
        is_max = crit.direction is Direction.MAX
        q, p, v = (
            None if spec is None else _compile_spec(spec, is_max)
            for spec in (crit.indifference, crit.preference, crit.veto)
        )
        variable = any(spec is not None and spec[0] != CONSTANT for spec in (q, p, v))
        rows.append((crit.name, is_max, crit.weight, q, p, v, variable))
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
    vetoes = ()  # veto criteria that discount a direction or fail their check
    for (name, is_max, w, qs, ps, vs, variable), x, y in zip(kernel.rows, pa, pb):
        d = x - y if is_max else y - x
        if variable:
            if y < x:
                lower, higher = y, x
            else:
                lower, higher = x, y
            # a constant threshold (base 0) is its intercept, with no addition
            base, q, slope = qs
            if base:
                q = q + slope * (lower if base == LOWER else higher)
            base, p, slope = ps
            if base:
                p = p + slope * (lower if base == LOWER else higher)
        else:
            q, p = qs[1], ps[1]
        if not 0 <= q <= p:  # one test on the common path; NaN raises nothing
            if q < 0:
                raise _negative(name, q, x, y)
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
                vetoes += ((name, x, y, d, p, v),)
    c_ab = num_ab / kernel.total_weight
    c_ba = num_ba / kernel.total_weight
    sigma_ab, sigma_ba = c_ab, c_ba
    # veto checks and discounts follow every threshold-order check, in
    # criterion order, as in the reference's credibility()
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


def credibility(
    criteria: Sequence[Criterion], pa: Sequence[float], pb: Sequence[float]
) -> float:
    """Credibility that a outranks b, for one ordered pair.

    A convenience over :func:`sigma_pair`; code that scores many pairs
    compiles the criteria once and reads both directions from one call.
    """
    return sigma_pair(compile_criteria(criteria), pa, pb)[0]


def band_ends(sigmas: Iterable[float]) -> list[float]:
    """Right endpoints of the cutting-level bands that ``sigmas`` cut ]0.5, 1] into.

    A pair's relation changes only where the cutting level crosses
    one of its two credibilities, so it is constant on each band.
    """
    return sorted({s for s in sigmas if 0.5 < s <= 1.0} | {1.0})


def preferred_bands(ends: Sequence[float], sab: float, sba: float) -> tuple[range, range]:
    """Runs of the bands of ``ends`` on which a P b and on which b P a.

    Band i of the sorted cutting levels ``ends`` is judged at its right
    endpoint u, so each run is where ``refsets.derived_relation(sab, sba, u)``
    is ACTION_PREFERRED, and where it is SET_PREFERRED. ``sigma >= ends[i]``
    holds exactly for i below ``bisect_right(ends, sigma)``, so one
    bisection per credibility finds both; ``ends=[lam]`` judges the single
    level lam. An empty run starts at its stop, so ``range(start)`` and
    ``range(stop, len(ends))`` are its complement.
    """
    a, b = bisect_right(ends, sab), bisect_right(ends, sba)
    return range(min(a, b), a), range(min(a, b), b)


def dominates(
    criteria: Sequence[Criterion], pa: Sequence[float], pb: Sequence[float]
) -> bool:
    """Componentwise at-least-as-good with at least one strict advantage."""
    strict = False
    for crit, x, y in zip(criteria, pa, pb):
        delta = x - y if crit.direction is Direction.MAX else y - x
        if not delta >= 0:  # a NaN coordinate is never at least as good
            return False
        if delta > 0:
            strict = True
    return strict
