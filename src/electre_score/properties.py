"""Executable verification harness: randomized instances, reference-set
edit operations, and checkers for the method's consistency guarantees
(set-relation propositions, conformity, stability under single edits).

Each checker reads one :class:`Trial`, an instance at one cutting
level, and checkers run on the same trial share all it derives, from the
compiled kernel to each action's relation to every profile. Each checker
verifies its own hypothesis (the separability flags its guarantee is
stated under) before asserting the conclusion; when the hypothesis fails
the report is marked gated rather than failed. :func:`shrink_instance`
reduces a failing instance to a smaller one that still fails.
"""

from __future__ import annotations

import json
import math
import random
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .credibility import CompiledCriteria, compile_criteria
from .model import (
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
    check_cutting_level,
    checked,
)
from .refsets import (
    CertifiedFold,
    ProfileTable,
    SetClassification,
    classify_relations,
    dominance_flags,
    profile_relations,
    soft_dominance,
)
from .scoring import scan_bounds


class InvalidEditError(ValueError):
    """An edit operation would break a structural invariant."""


# ---------------------------------------------------------------------------
# instance generation


@checked
class GeneratorConfig(NamedTuple):
    """Sizes and flavor knobs for random instances."""

    n_criteria: int = 4
    n_levels: int = 4
    max_profiles_per_level: int = 2
    n_actions: int = 6
    threshold_mode: str = "constant"  # "constant" | "variable"
    veto: bool = False
    strong_dominance: bool = True

    def _check(self) -> None:
        if self.n_criteria < 1 or self.n_levels < 2 or self.n_actions < 0:
            raise ValueError("config sizes below the minimal instance")
        if self.max_profiles_per_level < 1:
            raise ValueError("need at least one profile per level")
        if self.threshold_mode not in ("constant", "variable"):
            raise ValueError("threshold_mode must be 'constant' or 'variable'")


class Instance(NamedTuple):
    criteria: tuple[Criterion, ...]
    table: PerformanceTable
    refs: ReferenceStructure

    def digest(self) -> str:
        payload = {
            "criteria": [
                (c.name, c.direction.value, c.weight,
                 (c.indifference.intercept, c.indifference.slope, c.indifference.mode.value),
                 (c.preference.intercept, c.preference.slope, c.preference.mode.value),
                 None if c.veto is None else (c.veto.intercept, c.veto.slope, c.veto.mode.value))
                for c in self.criteria
            ],
            "actions": dict(self.table.rows),
            "refs": [(s.score, s.profiles) for s in self.refs.sets],
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        # only a failing trial has a digest; hashlib loads OpenSSL's
        # libcrypto, about 3 MB of memory that a passing verify never needs
        import hashlib

        return hashlib.sha256(blob).hexdigest()[:12]

    def dims(self) -> str:
        profs = sum(len(s.profiles) for s in self.refs.sets)
        return (
            f"{len(self.criteria)}crit/{len(self.refs.sets)}lvl/"
            f"{profs}prof/{len(self.table.actions)}act"
        )


# offsets keep raw values positive so variable thresholds stay nonnegative
_RAW_OFFSET_MAX = 1_000.0
_RAW_OFFSET_MIN = 10_000.0


def generate_instance(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Instance:
    """Deterministically generate (criteria, performance table, reference sets).

    In strong-dominance mode profiles of a higher level dominate every
    lower-level profile componentwise with a margin beyond the preference
    threshold, which makes all separability flags and the basic
    assumptions hold by construction; free mode draws smaller level gaps
    so any of them may fail.

    ``random.uniform(a, b)`` is ``a + (b - a) * random()``; each draw
    below is written out that way (``a`` dropped where it is 0.0), so it
    gives the same float from the same state without the method call.
    """
    rng = random.Random(seed)
    draw = rng.random
    criteria: list[Criterion] = []
    p_caps: list[float] = []
    for j in range(config.n_criteria):
        direction = rng.choice((Direction.MAX, Direction.MIN))
        q0 = 0.4 + (1.2 - 0.4) * draw()
        p0 = q0 + (0.4 + (1.2 - 0.4) * draw())
        if config.threshold_mode == "variable":
            sq = 5e-5 * draw()
            sp = sq + 5e-5 * draw()
            mode = rng.choice((ThresholdMode.DIRECT, ThresholdMode.INVERSE))
            ind = ThresholdSpec(q0, sq, mode)
            pref = ThresholdSpec(p0, sp, mode)
            p_cap = p0 + sp * (_RAW_OFFSET_MIN + 200.0)
        else:
            ind = ThresholdSpec(q0)
            pref = ThresholdSpec(p0)
            p_cap = p0
        veto = None
        if config.veto:
            veto = ThresholdSpec(p0 + (1.0 + (3.0 - 1.0) * draw()), pref.slope, pref.mode)
        weight = 1.0 + (5.0 - 1.0) * draw()
        criteria.append(Criterion(f"g{j + 1}", direction, weight, ind, pref, veto))
        p_caps.append(p_cap)

    # per-criterion level base values in "bigger is better" space
    bases: list[list[float]] = []
    for j in range(config.n_criteria):
        if config.strong_dominance:
            gaps = [(2.2 + (3.2 - 2.2) * draw()) * p_caps[j] for _ in range(config.n_levels - 1)]
        else:
            gaps = [2.5 * p_caps[j] * draw() for _ in range(config.n_levels - 1)]
        level_values = [0.0]
        for g in gaps:
            level_values.append(level_values[-1] + g)
        bases.append(level_values)

    # per criterion: whether bigger raw values are better, the low end and
    # width of a profile's jitter around its level's base value and of the
    # span an action is drawn from, and the mid-scale value an action is
    # parked at instead when that span is degenerate, else None
    shapes = []
    for c, base, p_cap in zip(criteria, bases, p_caps):
        q = c.indifference.intercept
        span = q / 2 if config.strong_dominance else q
        lo, hi = -span / 2, span / 2
        lo_u, hi_u = base[0] + 1.3 * p_cap, base[-1] - 1.3 * p_cap
        parked = (base[0] + base[-1]) / 2 if hi_u <= lo_u else None
        shapes.append((c.direction is Direction.MAX, lo, hi - lo, lo_u, hi_u - lo_u, parked))

    sets = []
    for k in range(config.n_levels):
        count = rng.randint(1, config.max_profiles_per_level)
        profiles = []
        for _ in range(count):
            profile = []
            for (is_max, lo, width, *_), base in zip(shapes, bases):
                u = base[k] + (lo + width * draw())
                profile.append(_RAW_OFFSET_MAX + u if is_max else _RAW_OFFSET_MIN - u)
            profiles.append(tuple(profile))
        sets.append(ReferenceSet(score=float(10 * (k + 1)), profiles=tuple(profiles)))
    refs = ReferenceStructure(tuple(sets))

    rows = {}
    for i in range(config.n_actions):
        vec = []
        for is_max, _, _, lo_u, width, parked in shapes:
            u = lo_u + width * draw() if parked is None else parked
            vec.append(_RAW_OFFSET_MAX + u if is_max else _RAW_OFFSET_MIN - u)
        rows[f"a{i + 1}"] = tuple(vec)
    table = PerformanceTable.from_rows(criteria, rows)
    return Instance(tuple(criteria), table, refs)


# ---------------------------------------------------------------------------
# edit operations


class InsertSet(NamedTuple):
    score: float
    profiles: tuple[tuple[float, ...], ...]


class DeleteSet(NamedTuple):
    level: int


class InsertProfile(NamedTuple):
    level: int
    profile: tuple[float, ...]


class DeleteProfile(NamedTuple):
    level: int
    profile_index: int


EditOperation = InsertSet | DeleteSet | InsertProfile | DeleteProfile


def apply_edit(refs: ReferenceStructure, edit: EditOperation) -> ReferenceStructure:
    """Return a new structure with the edit applied; the input is untouched."""
    sets = list(refs.sets)
    if isinstance(edit, InsertSet):
        if any(s.score == edit.score for s in sets):
            raise InvalidEditError(f"score {edit.score} already present")
        if not edit.profiles:
            raise InvalidEditError("inserted set needs at least one profile")
        sets.append(ReferenceSet(edit.score, tuple(edit.profiles)))
        sets.sort(key=lambda s: s.score)
    elif isinstance(edit, DeleteSet):
        if not 0 <= edit.level < len(sets):
            raise InvalidEditError(f"no level {edit.level}")
        if len(sets) <= 2:
            raise InvalidEditError("deletion would leave fewer than two sets")
        del sets[edit.level]
    elif isinstance(edit, InsertProfile):
        if not 0 <= edit.level < len(sets):
            raise InvalidEditError(f"no level {edit.level}")
        target = sets[edit.level]
        sets[edit.level] = ReferenceSet(
            target.score,
            target.profiles + (tuple(edit.profile),),
            target.names + (f"ins{len(target.profiles) + 1}",) if target.names else (),
        )
    elif isinstance(edit, DeleteProfile):
        if not 0 <= edit.level < len(sets):
            raise InvalidEditError(f"no level {edit.level}")
        target = sets[edit.level]
        if not 0 <= edit.profile_index < len(target.profiles):
            raise InvalidEditError(f"no profile {edit.profile_index} at level {edit.level}")
        if len(target.profiles) <= 1:
            raise InvalidEditError("deletion would empty the set")
        profiles = (
            target.profiles[: edit.profile_index]
            + target.profiles[edit.profile_index + 1 :]
        )
        names = ()
        if target.names:
            names = (
                target.names[: edit.profile_index]
                + target.names[edit.profile_index + 1 :]
            )
        sets[edit.level] = ReferenceSet(target.score, profiles, names)
    else:  # pragma: no cover - exhaustive union
        raise InvalidEditError(f"unknown edit {edit!r}")
    return ReferenceStructure(tuple(sets))


# ---------------------------------------------------------------------------
# reports


class PropertyFailure(NamedTuple):
    # the checkers leave seed None and digest empty; the suites stamp both
    seed: int | None
    digest: str
    case: str
    expected: str
    observed: str


class PropertyReport(NamedTuple):
    name: str
    trials: int
    failures: tuple[PropertyFailure, ...] = ()
    skipped: int = 0
    hypothesis_met: bool = True
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        """The fields by name, each failure as a dict of its own fields;
        a report writer would print a failure left as a tuple as an array."""
        return {**self._asdict(), "failures": [f._asdict() for f in self.failures]}


# ---------------------------------------------------------------------------
# theorem checkers


class Trial:
    """One instance at one cutting level, as the checkers read it.

    Each derived value is built on its first read and kept: the compiled
    kernel, the :class:`~.refsets.ProfileTable`, soft dominance, soft
    preference at ``lam``, every profile's relation to every level, and
    every action's relation to every profile (through a
    :class:`~.refsets.CertifiedFold`) and to every level. Checkers that
    read one trial compute each pair once between them, and a checker
    that reads no credibility computes none.
    """

    def __init__(
        self,
        criteria: Sequence[Criterion],
        refs: ReferenceStructure,
        lam: float,
        actions: Mapping[str, Sequence[float]] | None = None,
    ):
        self.criteria, self.refs, self.actions = criteria, refs, actions or {}
        self.lam = check_cutting_level(lam)

    @cached_property
    def kernel(self) -> CompiledCriteria:
        return compile_criteria(self.criteria)

    @cached_property
    def table(self) -> ProfileTable:
        return ProfileTable(self.kernel, self.refs)

    @cached_property
    def dominance(self) -> tuple[bool, bool]:
        """(primal, dual) soft dominance; reads no credibility."""
        return soft_dominance(self.criteria, self.refs)

    @cached_property
    def preference(self) -> tuple[bool, bool]:
        """(primal, dual) soft preference at ``lam``."""
        return self.table.soft_preference(self.lam)

    @cached_property
    def ladder(self) -> tuple[tuple[tuple[SetClassification, ...], ...], ...]:
        """Per level and profile, the profile's relation to every level."""
        table, lam = self.table, self.lam
        return tuple(
            tuple(table.profile_levels(k, p, lam) for p in range(len(ref.profiles)))
            for k, ref in enumerate(self.refs.sets)
        )

    @cached_property
    def rows(self) -> dict[str, tuple[tuple, ...]]:
        """Per action and level, bottom to top, the level's certified class
        or None, and the action's relation to every profile of the level."""
        levels = (ref.profiles for ref in self.refs.sets)
        fold = CertifiedFold(self.kernel, levels, self.actions.values(), self.lam)
        return {name: tuple((cls, tuple(row)) for cls, row in fold.rows(vec))
                for name, vec in self.actions.items()}

    @cached_property
    def relations(self) -> dict[str, tuple[SetClassification, ...]]:
        """Per action, its relation to every level, bottom to top; a
        certified level's class goes through without a fold."""
        return {name: tuple(cls or classify_relations(row) for cls, row in rows)
                for name, rows in self.rows.items()}


def check_conformity(trial: Trial) -> PropertyReport:
    """Interior profiles, scored as actions, must get their neighbours' scores.

    Hypothesis: all four soft separability flags (dominance and
    preference, primal and dual). When unmet the report is gated and the
    deviations are logged as notes only.
    """
    hypothesis = all(trial.dominance) and all(trial.preference)
    scores = trial.refs.scores

    failures: list[PropertyFailure] = []
    notes: list[str] = []
    trials = 0
    for k in range(1, len(scores) - 1):
        for p, relations in enumerate(trial.ladder[k]):
            trials += 1
            lo, hi = scan_bounds(relations, scores)
            expected = (scores[k - 1], scores[k + 1])
            observed = (None if lo is None else lo[0], None if hi is None else hi[0])
            if observed != expected:
                entry = PropertyFailure(
                    None, "", f"profile L{k}P{p} at level {k + 1}",
                    f"bounds {expected}", f"bounds {observed}",
                )
                if hypothesis:
                    failures.append(entry)
                else:
                    notes.append(f"gated deviation: {entry.case}: {entry.observed}")
    if not hypothesis:
        notes.insert(0, "hypothesis not met: soft dominance/preference separability")
    return PropertyReport(
        "conformity", trials, tuple(failures), 0, hypothesis, tuple(notes)
    )


# the checkers test by identity; a global is cheaper than an enum attribute
_AP, _SP = SetClassification.ACTION_PREFERRED, SetClassification.SET_PREFERRED
# the classifications under which the action outranks the set (a S B)
_OUTRANKS_SET = (_AP, SetClassification.INDIFFERENT)


def _flag_checks_for_action(
    name: str,
    relations: Sequence[SetClassification],
    primal: bool,
    dual: bool,
) -> list[str]:
    """Violated set-relation implications for one entity; empty when clean."""
    bad: list[str] = []
    n = len(relations)
    for k in range(n):
        if primal and relations[k] in _OUTRANKS_SET:
            for h in range(k):
                if relations[h] is _SP:
                    bad.append(f"{name}: outranks level {k+1} but level {h+1} preferred to it")
        if primal and relations[k] is _SP:
            for h in range(k + 1, n):
                if relations[h] in _OUTRANKS_SET:
                    bad.append(f"{name}: level {k+1} preferred yet outranks level {h+1}")
        if primal and dual:
            if relations[k] in _OUTRANKS_SET:
                for h in range(k):
                    if relations[h] not in _OUTRANKS_SET:
                        bad.append(f"{name}: outranks level {k+1} but not level {h+1}")
            if relations[k] is _SP:
                for h in range(k + 1, n):
                    if relations[h] is not _SP:
                        bad.append(f"{name}: level {k+1} preferred but level {h+1} not")
    return bad


def check_propositions(trial: Trial) -> PropertyReport:
    """Set-relation implications plus the bound characterizations.

    Per action with both bounds: strictly preferred to every level at or
    below its lower bound, every level at or above its upper bound
    strictly preferred to it, no strict preference strictly inside the
    range, indifference/incomparability only inside, and the bounds
    being the highest action-preferred and the lowest set-preferred
    levels. Profiles are checked against
    the ladder implications as well. Gating is per-implication: primal
    and dual soft dominance enable exactly the items stated under them,
    and a higher level is strictly preferred to a lower profile under
    primal soft preference (with basic assumption (ii)), since dominance
    alone gives only outranking.
    """
    primal, dual = trial.dominance
    preference_primal, _ = trial.preference
    scores = trial.refs.scores

    failures: list[PropertyFailure] = []
    notes: list[str] = []
    skipped = 0
    trials = 0

    def fail(case: str, expected: str, observed: str) -> None:
        failures.append(PropertyFailure(None, "", case, expected, observed))

    for name, relations in trial.relations.items():
        trials += 1
        for msg in _flag_checks_for_action(name, relations, primal, dual):
            fail(msg, "implication holds", "violated")
        if not (primal and dual):
            skipped += 1
            continue
        lo, hi = scan_bounds(relations, scores)
        if lo is None or hi is None:
            skipped += 1  # comparability failure; propositions assume both bounds
            continue
        lo_idx, hi_idx = lo[1], hi[1]
        # under both flags the bounds are the highest AP and the lowest SP level
        ap = [k for k, r in enumerate(relations) if r is _AP]
        sp = [k for k, r in enumerate(relations) if r is _SP]
        if (ap[-1], sp[0]) != (lo_idx, hi_idx):
            fail(f"{name}: fast path diverges", f"{(lo, hi)}",
                 f"{((scores[ap[-1]], ap[-1]), (scores[sp[0]], sp[0]))}")
        for k, r in enumerate(relations):
            if k <= lo_idx and r is not _AP:
                fail(f"{name}: level {k+1} at/below lower bound", "action preferred",
                     r.value)
            if k >= hi_idx and r is not _SP:
                fail(f"{name}: level {k+1} at/above upper bound", "set preferred",
                     r.value)
            inside = lo_idx < k < hi_idx
            strict = r in (_AP, _SP)
            if inside and strict:
                fail(f"{name}: level {k+1} inside range", "no strict preference",
                     r.value)
            if not inside and not strict:
                fail(f"{name}: level {k+1} indifferent/incomparable", "inside range",
                     f"outside (bounds {lo_idx+1}..{hi_idx+1})")

    # ladder implications for the profiles themselves
    for k, level in enumerate(trial.ladder):
        for p, relations in enumerate(level):
            trials += 1
            if dual:
                for h in range(k + 1):
                    if relations[h] not in _OUTRANKS_SET:
                        fail(f"profile L{k}P{p}: must outrank level {h+1}",
                             "outranks", relations[h].value)
            if preference_primal:
                for h in range(k + 1, len(scores)):
                    if relations[h] is not _SP:
                        fail(f"profile L{k}P{p}: level {h+1} must be preferred to it",
                             "set preferred", relations[h].value)

    hypothesis = primal and dual
    if not hypothesis:
        notes.append("hypothesis not met: soft dominance separability")
    return PropertyReport(
        "propositions", trials, tuple(failures), skipped, hypothesis, tuple(notes)
    )


def _edited_level(refs: ReferenceStructure, edit: EditOperation) -> int:
    """The level the edit touches: an inserted set's index once inserted,
    else the edit's own level."""
    if isinstance(edit, InsertSet):
        return sum(1 for s in refs.sets if s.score < edit.score)
    return edit.level


def _keeps_dominance(
    criteria: Sequence[Criterion],
    new_refs: ReferenceStructure,
    edit: EditOperation,
    at: int,
) -> bool:
    """Whether the edited structure ``new_refs`` holds both soft-dominance
    flags, given that the structure before the edit held them.

    :func:`~.refsets.soft_dominance` is both flags of every adjacent pair.
    An adjacent pair the edit does not touch is the same two
    :class:`~.model.ReferenceSet` objects as before, so it still holds
    them, and the rule over ``new_refs`` is the flags of the touched
    pairs. Deleting a set makes one new pair, its two neighbours, or none
    at either end; any other edit touches the pairs on either side of
    level ``at``.
    """
    sets = new_refs.sets
    pairs = ((at - 1, at),) if isinstance(edit, DeleteSet) else ((at - 1, at), (at, at + 1))
    return all(
        all(dominance_flags(criteria, sets[lo], sets[hi])[1:])
        for lo, hi in pairs if lo >= 0 and hi < len(sets)
    )


# Per edit type, the bounds the single-edit case analysis predicts (None =
# no bound) and the action's relation to every level after the edit, from
# ``relations`` and ``rows``, its relation to every level and to every
# profile before the edit, the scores ``x``, its bound levels ``r`` and
# ``t``, and ``added``, its relation to the inserted profiles. ``at`` is
# the level the edit touches; only that level is classified again.


def _after_insert_set(edit, at, relations, rows, x, r, t, added):
    cls = classify_relations(added)
    lower, upper = x[r], x[t]
    if cls is _AP and x[r] < edit.score < (x[r + 1] if r + 1 < len(x) else math.inf):
        lower = edit.score
    if cls is _SP and (x[t - 1] if t >= 1 else -math.inf) < edit.score < x[t]:
        upper = edit.score
    out = list(relations)
    out.insert(at, cls)
    return lower, upper, out


def _after_delete_set(edit, at, relations, rows, x, r, t, added):
    lower = (x[r - 1] if r >= 1 else None) if at == r else x[r]
    upper = (x[t + 1] if t + 1 < len(x) else None) if at == t else x[t]
    out = list(relations)
    del out[at]
    return lower, upper, out


def _after_insert_profile(edit, at, relations, rows, x, r, t, added):
    row, (new,) = rows[at], added
    lower, upper = x[r], x[t]
    if new is _SP and at == r:
        lower = x[r - 1] if r >= 1 else None
    elif new is _AP and at == r + 1 and _SP not in row:
        lower = x[r + 1]
    if new is _AP and at == t:
        upper = x[t + 1] if t + 1 < len(x) else None
    elif new is _SP and at == t - 1 and _AP not in row:
        upper = x[t - 1]
    out = list(relations)
    out[at] = classify_relations(row + added)
    return lower, upper, out


def _after_delete_profile(edit, at, relations, rows, x, r, t, added):
    row, i = rows[at], edit.profile_index
    gone, others = row[i], row[:i] + row[i + 1 :]
    lower, upper = x[r], x[t]
    if at == r and gone is _AP and _AP not in others:
        lower = x[r - 1] if r >= 1 else None
    elif at == r + 1 and gone is _SP and _SP not in others and _AP in others:
        lower = x[r + 1]
    if at == t and gone is _SP and _SP not in others:
        upper = x[t + 1] if t + 1 < len(x) else None
    elif at == t - 1 and gone is _AP and _AP not in others and _SP in others:
        upper = x[t - 1]
    out = list(relations)
    out[at] = classify_relations(others)
    return lower, upper, out


_AFTER_EDIT: dict[type, Callable[..., tuple]] = {
    InsertSet: _after_insert_set,
    DeleteSet: _after_delete_set,
    InsertProfile: _after_insert_profile,
    DeleteProfile: _after_delete_profile,
}


def check_stability(trial: Trial, edits: Sequence[EditOperation]) -> PropertyReport:
    """Every single insert/delete moves each bound by at most one level.

    Checks the coarse one-level window against the original neighbours
    and the exact case analysis predicting the new bound. Edits that
    break the soft-dominance hypothesis (before or after) are skipped
    and counted, not failed. The hypothesis is read from dominance
    alone, so the only credibilities computed, and the only threshold
    errors raised, are those of the action-profile pairs checked. Once
    the structure holds it, an edited structure's hypothesis is read
    from the one or two adjacent level pairs the edit touches (see
    :func:`_keeps_dominance`), which equals :func:`soft_dominance` over
    the whole edited structure. The pre-edit relations are the trial's;
    after an edit only the level it touches is classified again, and
    every (edit, action) pair runs the bound scan on its edited relations.
    """
    criteria, refs, lam = trial.criteria, trial.refs, trial.lam
    if not all(trial.dominance):
        return PropertyReport(
            "stability", 0, (), len(edits), False,
            ("hypothesis not met before edits: soft dominance separability",),
        )
    kept = []
    for edit in edits:
        new_refs = apply_edit(refs, edit)
        at = _edited_level(refs, edit)
        if _keeps_dominance(criteria, new_refs, edit, at):
            kept.append((edit, at, new_refs.scores))
    if not kept:  # nothing to check, so no action-profile pair is computed
        return PropertyReport("stability", 0, (), len(edits), True)

    # each action's relations, bounds and one-level windows before any
    # edit, for the actions that have both bounds
    x, inf = refs.scores, math.inf
    bounded = []
    for name, relations in trial.relations.items():
        lo, hi = scan_bounds(relations, x)
        if lo is not None and hi is not None:
            r, t = lo[1], hi[1]
            rows = [row for _, row in trial.rows[name]]
            windows = (x[r - 1] if r >= 1 else -inf, x[r + 1] if r + 1 < len(x) else inf,
                       x[t - 1] if t >= 1 else -inf, x[t + 1] if t + 1 < len(x) else inf)
            bounded.append((name, trial.actions[name], relations, rows, r, t, windows))

    kernel = trial.kernel
    failures: list[PropertyFailure] = []
    for edit, at, new_scores in kept:
        after = _AFTER_EDIT[type(edit)]
        inserted = (
            edit.profiles if isinstance(edit, InsertSet)
            else (edit.profile,) if isinstance(edit, InsertProfile)
            else ()
        )
        for name, vec, relations, rows, r, t, windows in bounded:
            added = tuple(profile_relations(kernel, vec, inserted, lam)) if inserted else ()
            exp_lower, exp_upper, edited = after(edit, at, relations, rows, x, r, t, added)
            new_lo, new_hi = scan_bounds(edited, new_scores)
            got_lower = None if new_lo is None else new_lo[0]
            got_upper = None if new_hi is None else new_hi[0]

            lo_floor, lo_ceil, hi_floor, hi_ceil = windows
            if got_lower is not None and not lo_floor <= got_lower <= lo_ceil:
                failures.append(PropertyFailure(
                    None, "", f"{name} lower window after {edit!r}",
                    f"[{lo_floor}, {lo_ceil}]", f"{got_lower}",
                ))
            if got_upper is not None and not hi_floor <= got_upper <= hi_ceil:
                failures.append(PropertyFailure(
                    None, "", f"{name} upper window after {edit!r}",
                    f"[{hi_floor}, {hi_ceil}]", f"{got_upper}",
                ))

            if (got_lower, got_upper) != (exp_lower, exp_upper):
                failures.append(PropertyFailure(
                    None, "", f"{name} exact case analysis after {edit!r}",
                    f"bounds ({exp_lower}, {exp_upper})",
                    f"bounds ({got_lower}, {got_upper})",
                ))

    trials = len(kept) * len(bounded)
    return PropertyReport("stability", trials, tuple(failures), len(edits) - len(kept), True)


# ---------------------------------------------------------------------------
# hypothesis-preserving edit generation


def _midpoint(a: Sequence[float], b: Sequence[float]) -> tuple[float, ...]:
    return tuple((x + y) / 2 for x, y in zip(a, b))


def _extrapolate(near: Sequence[float], far: Sequence[float]) -> tuple[float, ...]:
    # step beyond `near`, away from `far`, by half their separation
    return tuple(n + (n - f) / 2 for n, f in zip(near, far))


def make_edits(
    instance: Instance, rng: random.Random, count: int = 4
) -> list[EditOperation]:
    """Draw edits designed to keep the separability hypotheses intact.

    Inserted sets take componentwise midpoints of neighbouring profiles
    (or extrapolations beyond the ends); inserted profiles jitter an
    existing one within half the indifference threshold.
    """
    refs = instance.refs
    criteria = instance.criteria
    edits: list[EditOperation] = []
    kinds = ["insert_set", "delete_set", "insert_profile", "delete_profile"]
    for i in range(count):
        kind = kinds[i % len(kinds)]
        if kind == "insert_set":
            position = rng.randint(0, len(refs.sets))
            if position == 0:
                above = refs.sets[0]
                base = _extrapolate(above.profiles[0], refs.sets[1].profiles[0])
                score = refs.sets[0].score - 1.0
            elif position == len(refs.sets):
                below = refs.sets[-1]
                base = _extrapolate(below.profiles[0], refs.sets[-2].profiles[0])
                score = refs.sets[-1].score + 1.0
            else:
                below = refs.sets[position - 1]
                above = refs.sets[position]
                base = _midpoint(below.profiles[0], above.profiles[0])
                score = (below.score + above.score) / 2
            edits.append(InsertSet(score, (base,)))
        elif kind == "delete_set":
            if len(refs.sets) > 2:
                edits.append(DeleteSet(rng.randrange(len(refs.sets))))
        elif kind == "insert_profile":
            level = rng.randrange(len(refs.sets))
            source = rng.choice(refs.sets[level].profiles)
            jittered = tuple(
                v + rng.uniform(-c.indifference.intercept / 4, c.indifference.intercept / 4)
                for v, c in zip(source, criteria)
            )
            edits.append(InsertProfile(level, jittered))
        else:
            candidates = [
                k for k, s in enumerate(refs.sets) if len(s.profiles) > 1
            ]
            if candidates:
                level = rng.choice(candidates)
                edits.append(
                    DeleteProfile(level, rng.randrange(len(refs.sets[level].profiles)))
                )
    return edits


# ---------------------------------------------------------------------------
# counterexample shrinking


def _drop_criterion(instance: Instance, j: int) -> Instance | None:
    if len(instance.criteria) <= 1:
        return None
    criteria = instance.criteria[:j] + instance.criteria[j + 1 :]
    if not any(c.weight > 0 for c in criteria):
        return None
    rows = {
        a: tuple(v for i, v in enumerate(vec) if i != j)
        for a, vec in instance.table.rows.items()
    }
    table = PerformanceTable.from_rows(criteria, rows)
    sets = tuple(
        ReferenceSet(
            s.score,
            tuple(tuple(v for i, v in enumerate(p) if i != j) for p in s.profiles),
            s.names,
        )
        for s in instance.refs.sets
    )
    return Instance(criteria, table, ReferenceStructure(sets))


def _reductions(instance: Instance) -> Iterator[Instance | None]:
    """One-step reductions, each built when tried: criteria, profiles, actions."""
    for j in range(len(instance.criteria)):
        yield _drop_criterion(instance, j)
    for level, ref in enumerate(instance.refs.sets):
        for idx in range(len(ref.profiles)):
            # a level's last profile goes with its set
            edit = DeleteSet(level) if len(ref.profiles) == 1 else DeleteProfile(level, idx)
            try:
                refs = apply_edit(instance.refs, edit)
            except InvalidEditError:  # the set is one of the last two
                continue
            yield instance._replace(refs=refs)
    for action in instance.table.actions:
        rows = {a: vec for a, vec in instance.table.rows.items() if a != action}
        yield instance._replace(table=PerformanceTable(instance.criteria, rows))


def shrink_instance(
    instance: Instance, still_fails: Callable[[Instance], bool]
) -> Instance:
    """Greedy reduction: drop criteria, then profiles, then actions.

    Each removal is kept only when the failure persists; the search
    restarts after every kept removal until none is left to keep.
    """
    current = instance
    while True:
        for cand in _reductions(current):
            if cand is not None and still_fails(cand):
                current = cand
                break
        else:
            return current
