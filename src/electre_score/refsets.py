"""Relations between an action and a scored reference set, plus the
structural checks on a reference collection: basic assumptions,
dominance/preference separability, and comparability.

:class:`SetClassification` is the one four-valued relation, a P b,
b P a, a I b or a R b, whether b is one profile (:func:`derived_relation`,
the one crisp cut: a S b exactly where σ(a, b) ≥ λ) or a whole set
(:func:`classify_relations`, which folds the relations to the set's
profiles). The first vector plays the action, or a profile scored as
one. The six set relations are read from it:

==================  ==========================
classification      set relations that hold
==================  ==========================
ACTION_PREFERRED    a S B, a P B
SET_PREFERRED       B S a, B P a
INDIFFERENT         a S B, B S a, a I B
INCOMPARABLE        a R B
==================  ==========================

Quantifiers are evaluated exhaustively; reference sets are small by
design.

Batch code computes each pair at most once: a :class:`ProfileTable`
holds the credibility between every two profiles for the basic
assumptions, separability, the lambda bands and each profile's relation
to every level, and a :class:`CertifiedFold` relates each action of a
table to every level, with no kernel call for a level the action clears
by more than p on every criterion.
Each separability hypothesis has one rule: soft dominance comes from
:func:`soft_dominance`, which compares adjacent levels and computes no
credibility, and soft preference from :meth:`ProfileTable.soft_preference`,
which compares every pair of levels. :meth:`ProfileTable.separability`
gives the flags per level pair; the validator reads each hypothesis off
them, as holding where it holds for every pair. The
public functions validate the cutting level once and compile the
criteria themselves.
"""

from __future__ import annotations

import enum
import math
from itertools import accumulate, combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .credibility import (
    CONSTANT,
    HIGHER,
    CompiledCriteria,
    band_ends,
    compile_criteria,
    dominates,
    preferred_bands,
    sigma_pair,
)
from .model import (
    Criterion,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    check_cutting_level,
    threshold_faults,
)


class SetClassification(enum.Enum):
    ACTION_PREFERRED = "action_preferred"
    SET_PREFERRED = "set_preferred"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


# the fold tests by identity; a global is cheaper than an enum attribute
_ACTION_PREFERRED = SetClassification.ACTION_PREFERRED
_SET_PREFERRED = SetClassification.SET_PREFERRED
_INDIFFERENT = SetClassification.INDIFFERENT
_INCOMPARABLE = SetClassification.INCOMPARABLE


def derived_relation(sab: float, sba: float, lam: float) -> SetClassification:
    """The one crisp cut: a pair's relation at cutting level ``lam``, where
    a S b exactly when ``sab`` = σ(a, b) >= lam, and b S a when ``sba`` >= lam.
    :func:`~.credibility.preferred_bands` makes the same cut at band ends."""
    if sab >= lam:
        return _INDIFFERENT if sba >= lam else _ACTION_PREFERRED
    return _SET_PREFERRED if sba >= lam else _INCOMPARABLE


def classify_relations(relations: Iterable[SetClassification]) -> SetClassification:
    """Fold the relations to a set's profiles into the relation to the set.

    The four classifications are exhaustive and mutually exclusive:
    conflicting strict preferences in both directions mean incomparable,
    a one-sided strict preference wins outright, indifference needs at
    least one indifferent profile and no strict preference, and a set
    whose every profile is incomparable is incomparable.

    Every relation is consumed, so each kernel call behind a lazy input
    still happens. The flags are set by identity: ``set(relations)``
    would hash each member through the Python-level ``Enum.__hash__``.
    """
    empty = True
    ap = bp = ind = False
    for rel in relations:
        empty = False
        if rel is _ACTION_PREFERRED:
            ap = True
        elif rel is _SET_PREFERRED:
            bp = True
        elif rel is _INDIFFERENT:
            ind = True
    if empty:
        raise ValueError("reference set produced no per-profile relations")
    if ap and bp:
        return _INCOMPARABLE
    if ap:
        return _ACTION_PREFERRED
    if bp:
        return _SET_PREFERRED
    if ind:
        return _INDIFFERENT
    return _INCOMPARABLE


def profile_relations(
    kernel: CompiledCriteria,
    action: Sequence[float],
    profiles: Sequence[Sequence[float]],
    lam: float,
) -> Iterator[SetClassification]:
    """Relation of one action to each profile; one kernel call each.

    A one-pass iterator: the set fold needs no tuple of the relations,
    and building one per action and level raises the peak memory of a
    large ``evaluate`` measurably.
    """
    for prof in profiles:
        sab, sba = sigma_pair(kernel, action, prof)
        yield derived_relation(sab, sba, lam)


def _thresholds_hold(kernel: CompiledCriteria, vectors: Sequence[Sequence[float]]) -> bool:
    """Whether no pair of ``vectors`` can make :func:`sigma_pair` raise.

    A pair's variable thresholds read its lower or its higher value, one
    of the column's values. When a criterion's variable thresholds all
    read one base, no :func:`~.model.threshold_faults` at any column
    value rules out every threshold error. Values must be finite and
    vectors full, since the certificate takes bounds over them.
    """
    n = len(kernel.rows)
    if not math.isfinite(kernel.total_weight) or any(len(x) != n for x in vectors):
        return False
    for crit, (_, _, _, q, p, v, _), column in zip(kernel.criteria, kernel.rows, zip(*vectors)):
        if not all(map(math.isfinite, column)):
            return False
        if len({spec[0] for spec in (q, p, v) if spec} - {CONSTANT}) > 1:
            return False
        if any(threshold_faults(crit, column)):
            return False
    return True


def _clearing_tests(kernel: CompiledCriteria, level: Sequence[Sequence[float]]) -> tuple:
    """Per criterion ``(higher, bound, p)`` for an action beating every
    profile of ``level``, and for one losing to every profile; see
    :class:`CertifiedFold`."""
    wins, losses = [], []
    for (_, is_max, _, _, (base, t, slope), _, _), column in zip(kernel.rows, zip(*level)):
        lo, hi = min(column), max(column)
        # p at a profile's value is monotone in it, rounding included, so
        # the largest over the profiles is p at one end of the column
        p = t if base == CONSTANT else t + slope * (hi if slope >= 0 else lo)
        for tests, higher in ((wins, is_max), (losses, not is_max)):
            # higher: the action holds the higher value of each pair;
            # None where p reads the action's own value
            reads_action = base != CONSTANT and (base == HIGHER) == higher
            tests.append((higher, hi if higher else lo, None if reads_action else p))
    return tuple(wins), tuple(losses)


def _reachable(tests: tuple, reach: Sequence[tuple[float, float]]) -> bool:
    """Whether the lowest and highest action values, ``reach``, pass every
    test that reads no action's p; if not, no action passes them all."""
    for (higher, bound, p), (lo, hi) in zip(tests, reach):
        if p is not None and not (hi - bound if higher else bound - lo) > p:
            return False
    return True


def _clears(tests: tuple, action: Sequence[float], p_action: Sequence[float]) -> bool:
    for (higher, bound, p), x, p_x in zip(tests, action, p_action):
        if not (x - bound if higher else bound - x) > (p_x if p is None else p):
            return False
    return True


class CertifiedFold:
    """Each action's relation to every level, bottom to top, with no
    kernel call where a certificate decides a level.

    If a beats every profile b of a level by more than p on every
    criterion, each pair has concordance exactly 1.0 (the weights add in
    the order of ``total_weight``) against 0.0, and vetoes discount only
    the side at 0: the level is ACTION_PREFERRED at every cutting level,
    and the mirror case is SET_PREFERRED. On a MAX criterion a wins when
    ``fl(a - max b) > P``, where P is the largest p over the profiles as
    the kernel evaluates it, or p at a's value where p reads that. Rounding
    is monotone, so ``fl(a - b) >= fl(a - max b) > P >= p`` for every b.
    A MIN criterion takes ``min b``, and losing is winning with the
    direction flipped, since ``a - b`` and ``b - a`` round to exact
    negatives. Every other level goes through :func:`profile_relations`,
    one kernel call per profile, and :func:`classify_relations`; a
    certified level's class goes through without a fold.

    A test no action of the table can pass, since its lowest or highest
    value on some criterion fails it, is dropped, so a level no action
    clears costs nothing per action. The kept tests are used only when
    :func:`_thresholds_hold` shows that no pair of the actions and
    profiles can raise, so no skipped pair would have; otherwise no level
    is certified and the kernel raises where it always did.
    :meth:`relations` takes one of ``actions``, and ``lam`` must already
    be validated.

    :func:`~.scoring.score_ranges`, :func:`check_comparability` and
    :func:`classify_action_vs_levels` read it. A trial of ``verify``
    (:class:`~.properties.Trial`) folds every level through the kernel
    instead: on its few actions the certificate's set-up costs more
    than the calls it saves.
    """

    def __init__(
        self,
        kernel: CompiledCriteria,
        levels: Iterable[Sequence[Sequence[float]]],
        actions: Iterable[Sequence[float]],
        lam: float,
    ):
        self.kernel, self.lam = kernel, lam
        self.levels = [tuple(level) for level in levels]
        actions = list(actions)
        reach = [(min(column), max(column)) for column in zip(*actions)]
        tests = [
            tuple(side if _reachable(side, reach) else None
                  for side in _clearing_tests(kernel, level))
            for level in self.levels
        ]
        # per level the tests for winning and for losing, each None where
        # nothing is certified, and p's (intercept, slope) per criterion
        self._tests = [(None, None)] * len(self.levels)
        self._p = ()
        profiles = (b for level in self.levels for b in level)
        if any(any(sides) for sides in tests) and _thresholds_hold(kernel, [*actions, *profiles]):
            self._tests = tests
            self._p = [p[1:] for _, _, _, _, p, _, _ in kernel.rows]

    def relations(self, action: Sequence[float]) -> tuple[SetClassification, ...]:
        """Relation of one action to every level, bottom to top; a
        certified level's class goes through without a fold."""
        kernel, lam = self.kernel, self.lam
        p_action = [t + slope * x for (t, slope), x in zip(self._p, action)]
        return tuple(
            _ACTION_PREFERRED if better and _clears(better, action, p_action)
            else _SET_PREFERRED if worse and _clears(worse, action, p_action)
            else classify_relations(profile_relations(kernel, action, level, lam))
            for level, (better, worse) in zip(self.levels, self._tests)
        )


def classify_action_vs_levels(
    action: Sequence[float],
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
) -> list[SetClassification]:
    """Relation of one action to every reference level, bottom to top."""
    check_cutting_level(lam)
    levels = (ref.profiles for ref in refs.sets)
    return list(CertifiedFold(compile_criteria(criteria), levels, [action], lam).relations(action))


def is_comparable(relations: Sequence[SetClassification]) -> bool:
    """Strictly above the bottom set and strictly below the top set."""
    return relations[0] is _ACTION_PREFERRED and relations[-1] is _SET_PREFERRED


class LevelPairFlags(NamedTuple):
    """Separability flags for one ordered level pair (lower, higher)."""

    strong_dominance: bool
    soft_dominance_primal: bool
    soft_dominance_dual: bool
    strong_preference: bool
    soft_preference_primal: bool
    soft_preference_dual: bool


def _flags(matrix: Sequence[Sequence[bool]]) -> tuple[bool, bool, bool]:
    """(strong, primal, dual) of a lower-by-higher level matrix: every
    cell, some cell in every row, some cell in every column."""
    return (all(map(all, matrix)), all(map(any, matrix)), all(map(any, zip(*matrix))))


def _soft(flags: Iterable[tuple[bool, bool, bool]]) -> tuple[bool, bool]:
    """(primal, dual) over level pairs, from each pair's (strong, primal,
    dual): each holds where it holds for every pair. Every pair is judged."""
    primal = dual = True
    for _, p, d in flags:
        primal, dual = primal and p, dual and d
    return primal, dual


def dominance_flags(
    criteria: Sequence[Criterion], low: ReferenceSet, high: ReferenceSet
) -> tuple[bool, bool, bool]:
    """(strong, primal, dual) dominance of level ``high`` over level ``low``.

    Strong: each profile of ``high`` dominates each profile of ``low``.
    Primal: each profile of ``low`` is dominated by some profile of
    ``high``. Dual: each profile of ``high`` dominates some profile of
    ``low``. It needs no credibility, so no threshold is evaluated.
    """
    dom = [[dominates(criteria, up, down) for up in high.profiles] for down in low.profiles]
    return _flags(dom)


def soft_dominance(
    criteria: Sequence[Criterion], refs: ReferenceStructure
) -> tuple[bool, bool]:
    """(primal, dual) soft dominance over every pair of levels.

    Primal: each profile of a lower level is dominated by some profile of
    every higher level. Dual: each profile of a higher level dominates
    some profile of every lower level. This is the one soft-dominance
    rule, :func:`dominance_flags` over each two neighbouring levels.

    Only adjacent levels are compared. Dominance is componentwise ``>=``
    with one strict ``>``, the sign of each difference is exact, and a
    NaN difference is never ``>= 0``, so dominance is transitive. A
    chain of adjacent witnesses then gives a witness at any higher
    (primal) or lower (dual) level, and both flags over adjacent pairs
    equal the flags over all pairs.
    """
    return _soft(dominance_flags(criteria, *pair) for pair in zip(refs.sets, refs.sets[1:]))


class ProfileTable:
    """Credibility in both directions between every two profiles.

    Built with one kernel call per pair, in the order the basic-assumption
    check reads them (within each set, then lower set against higher set),
    so a threshold error surfaces at the same pair as in a pairwise scan.
    The basic assumptions, separability and the lambda bands all read
    from one table, for any number of cutting levels.
    """

    def __init__(self, kernel: CompiledCriteria, refs: ReferenceStructure):
        self.criteria = kernel.criteria
        self.refs = refs
        vectors = [b for ref in refs.sets for b in ref.profiles]
        ends = list(accumulate((len(ref.profiles) for ref in refs.sets), initial=0))
        # each level's rows of the table, bottom to top
        self.levels = [range(start, end) for start, end in zip(ends, ends[1:])]
        self._within = [pair for level in self.levels for pair in combinations(level, 2)]
        self._across = [(i, j) for lo, hi in combinations(self.levels, 2) for i in lo for j in hi]
        # the diagonal is the kernel's exact sigma of a vector over itself
        self._sigma = [[1.0] * len(vectors) for _ in vectors]
        for i, j in self._within + self._across:
            self._sigma[i][j], self._sigma[j][i] = sigma_pair(kernel, vectors[i], vectors[j])

    def profile_levels(self, k: int, p: int, lam: float) -> tuple[SetClassification, ...]:
        """Relation of profile p of level k to every level, bottom to top.

        The profile scored as an action; its own cell reads as indifferent,
        since the credibility of a vector over itself is 1.
        """
        i = self.levels[k][p]
        out, back = self._sigma[i], [row[i] for row in self._sigma]
        return tuple(
            classify_relations(derived_relation(out[j], back[j], lam) for j in level)
            for level in self.levels
        )

    def breakpoints(self) -> list[float]:
        """Band ends cut by the credibilities between profiles."""
        return band_ends(s for row in self._sigma for s in row)

    def basic_assumption_violations(self, ends: Sequence[float]) -> list[list[str]]:
        """One message list per band of the sorted cutting levels ``ends``.

        (i) within a set no profile is strictly preferred to another;
        (ii) no profile of a lower-scored set is strictly preferred to a
        profile of a higher-scored set. Pass ``[lam]`` for a single
        cutting level. Each pair is judged once, over a run of bands, and
        each band lists its messages in the order of a pairwise scan.
        """
        bands: list[list[str]] = [[] for _ in ends]
        names = [name for level in self.refs.profile_names() for name in level]
        sigma = self._sigma
        for i, j in self._within:
            messages = (f"within-set preference: {names[i]} > {names[j]}",
                        f"within-set preference: {names[j]} > {names[i]}")
            for run, message in zip(preferred_bands(ends, sigma[i][j], sigma[j][i]), messages):
                for band in run:
                    bands[band].append(message)
        for i, j in self._across:
            message = (
                f"lower-set profile preferred to higher-set profile: {names[i]} > {names[j]}"
            )
            for band in preferred_bands(ends, sigma[i][j], sigma[j][i])[0]:
                bands[band].append(message)
        return bands

    def _preferred(self, lo: range, hi: range, lam: float) -> list[list[bool]]:
        """Whether each profile of the higher level ``hi`` (columns) is
        strictly preferred to each profile of the lower level ``lo`` (rows),
        both given as their rows of the table."""
        sigma = self._sigma
        return [[derived_relation(sigma[i][j], sigma[j][i], lam) is _SET_PREFERRED for j in hi]
                for i in lo]

    def soft_preference(self, lam: float) -> tuple[bool, bool]:
        """(primal, dual) soft preference over every pair of levels.

        As :func:`soft_dominance` with strict preference at ``lam`` in
        place of dominance. Preference is not transitive, so every pair
        of levels is compared.
        """
        return _soft(_flags(self._preferred(*pair, lam)) for pair in combinations(self.levels, 2))

    def separability(self, lam: float) -> dict[tuple[int, int], LevelPairFlags]:
        """Dominance and preference flags at ``lam`` per level pair.

        Keyed by (lower, higher) 0-based level indices, in sorted order.
        A soft flag holds for every pair exactly where :func:`soft_dominance`
        or :meth:`soft_preference` gives it over all pairs.
        """
        sets, levels = self.refs.sets, self.levels
        return {
            (lo, hi): LevelPairFlags(*dominance_flags(self.criteria, sets[lo], sets[hi]),
                                     *_flags(self._preferred(levels[lo], levels[hi], lam)))
            for lo, hi in combinations(range(len(sets)), 2)
        }


def validate_basic_assumptions(
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
) -> list[str]:
    """Check the two structural requirements on a reference collection.

    Returns one message per violation; see
    :meth:`ProfileTable.basic_assumption_violations`.
    """
    check_cutting_level(lam)
    return ProfileTable(compile_criteria(criteria), refs).basic_assumption_violations([lam])[0]


def check_separability(
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
) -> dict[tuple[int, int], LevelPairFlags]:
    """Dominance and preference flags per level pair; see
    :meth:`ProfileTable.separability`."""
    check_cutting_level(lam)
    return ProfileTable(compile_criteria(criteria), refs).separability(lam)


def check_comparability(
    table: PerformanceTable,
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
) -> dict[str, bool]:
    """Per action: strictly above the bottom set and strictly below the top set."""
    check_cutting_level(lam)
    ends = (refs.sets[0].profiles, refs.sets[-1].profiles)
    fold = CertifiedFold(compile_criteria(criteria), ends, table.rows.values(), lam)
    return {action: is_comparable(fold.relations(vector)) for action, vector in table.rows.items()}
