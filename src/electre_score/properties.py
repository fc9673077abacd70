"""Executable verification harness: randomized instances, reference-set
edit operations, and checkers for the method's consistency guarantees
(set-relation propositions, conformity, stability under single edits).

Each checker verifies its own hypothesis (the separability flags its
guarantee is stated under) before asserting the conclusion; when the
hypothesis fails the report is marked gated rather than failed. On a
genuine failure the offending instance is shrunk by dropping criteria,
then profiles, then actions, and the smallest failing instance's digest
is recorded.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .credibility import compile_criteria, derived_relation, sigma_pair
from .model import (
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
)
from .refsets import (
    ActionSetRelation,
    SetClassification,
    check_separability,
    classify_relations,
)
from .scoring import NoLowerBoundError, NoUpperBoundError, _scan_lower, _scan_upper


class InvalidEditError(ValueError):
    """An edit operation would break a structural invariant."""


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizes and flavor knobs for random instances."""

    n_criteria: int = 4
    n_levels: int = 4
    max_profiles_per_level: int = 2
    n_actions: int = 6
    threshold_mode: str = "constant"  # "constant" | "variable"
    veto: bool = False
    strong_dominance: bool = True

    def __post_init__(self) -> None:
        if self.n_criteria < 1 or self.n_levels < 2 or self.n_actions < 0:
            raise ValueError("config sizes below the minimal instance")
        if self.max_profiles_per_level < 1:
            raise ValueError("need at least one profile per level")
        if self.threshold_mode not in ("constant", "variable"):
            raise ValueError("threshold_mode must be 'constant' or 'variable'")


@dataclass(frozen=True)
class Instance:
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
            "actions": {a: self.table.vector(a) for a in self.table.actions},
            "refs": [(s.score, s.profiles) for s in self.refs.sets],
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
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


def _raw(direction: Direction, u: float) -> float:
    if direction is Direction.MAX:
        return _RAW_OFFSET_MAX + u
    return _RAW_OFFSET_MIN - u


def generate_instance(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Instance:
    """Deterministically generate (criteria, performance table, reference sets).

    In strong-dominance mode profiles of a higher level dominate every
    lower-level profile componentwise with a margin beyond the preference
    threshold, which makes all separability flags and the basic
    assumptions hold by construction; free mode draws smaller level gaps
    so any of them may fail.
    """
    rng = random.Random(seed)
    criteria: list[Criterion] = []
    p_caps: list[float] = []
    for j in range(config.n_criteria):
        direction = rng.choice((Direction.MAX, Direction.MIN))
        q0 = rng.uniform(0.4, 1.2)
        p0 = q0 + rng.uniform(0.4, 1.2)
        if config.threshold_mode == "variable":
            sq = rng.uniform(0.0, 5e-5)
            sp = sq + rng.uniform(0.0, 5e-5)
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
            veto = ThresholdSpec(p0 + rng.uniform(1.0, 3.0), pref.slope, pref.mode)
        criteria.append(
            Criterion(f"g{j + 1}", direction, rng.uniform(1.0, 5.0), ind, pref, veto)
        )
        p_caps.append(p_cap)

    # per-criterion level base values in "bigger is better" space
    bases: list[list[float]] = []
    for j in range(config.n_criteria):
        if config.strong_dominance:
            gaps = [rng.uniform(2.2, 3.2) * p_caps[j] for _ in range(config.n_levels - 1)]
        else:
            gaps = [rng.uniform(0.0, 2.5 * p_caps[j]) for _ in range(config.n_levels - 1)]
        level_values = [0.0]
        for g in gaps:
            level_values.append(level_values[-1] + g)
        bases.append(level_values)

    def jitter(j: int) -> float:
        q = criteria[j].indifference.intercept
        span = q / 2 if config.strong_dominance else q
        return rng.uniform(-span / 2, span / 2)

    sets = []
    for k in range(config.n_levels):
        count = rng.randint(1, config.max_profiles_per_level)
        profiles = tuple(
            tuple(
                _raw(criteria[j].direction, bases[j][k] + jitter(j))
                for j in range(config.n_criteria)
            )
            for _ in range(count)
        )
        sets.append(ReferenceSet(score=float(10 * (k + 1)), profiles=profiles))
    refs = ReferenceStructure(tuple(sets))

    rows = {}
    for i in range(config.n_actions):
        vec = []
        for j in range(config.n_criteria):
            margin = 1.3 * p_caps[j]
            lo_u = bases[j][0] + margin
            hi_u = bases[j][-1] - margin
            if hi_u <= lo_u:  # degenerate span; park the action mid-scale
                u = (bases[j][0] + bases[j][-1]) / 2
            else:
                u = rng.uniform(lo_u, hi_u)
            vec.append(_raw(criteria[j].direction, u))
        rows[f"a{i + 1}"] = tuple(vec)
    table = PerformanceTable.from_rows(criteria, rows)
    return Instance(tuple(criteria), table, refs)


# ---------------------------------------------------------------------------
# edit operations


@dataclass(frozen=True)
class InsertSet:
    score: float
    profiles: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class DeleteSet:
    level: int


@dataclass(frozen=True)
class InsertProfile:
    level: int
    profile: tuple[float, ...]


@dataclass(frozen=True)
class DeleteProfile:
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


@dataclass(frozen=True)
class PropertyFailure:
    seed: int | None
    digest: str
    case: str
    expected: str
    observed: str


@dataclass(frozen=True)
class PropertyReport:
    name: str
    trials: int
    failures: tuple[PropertyFailure, ...] = ()
    skipped: int = 0
    hypothesis_met: bool = True
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def merged(self, other: "PropertyReport") -> "PropertyReport":
        return PropertyReport(
            self.name,
            self.trials + other.trials,
            self.failures + other.failures,
            self.skipped + other.skipped,
            self.hypothesis_met and other.hypothesis_met,
            self.notes + other.notes,
        )


# ---------------------------------------------------------------------------
# memoized relation helper shared by the checkers


class _Relations:
    """Memoized credibility over a registry of named vectors.

    A miss computes both directions of the pair with one kernel call.
    """

    def __init__(self, criteria: Sequence[Criterion]):
        self.kernel = compile_criteria(criteria)
        self.vectors: dict[str, tuple[float, ...]] = {}
        self._sigma: dict[tuple[str, str], float] = {}

    def register(self, key: str, vec: Sequence[float]) -> str:
        self.vectors[key] = tuple(vec)
        return key

    def sigma(self, a: str, b: str) -> float:
        try:
            return self._sigma[(a, b)]
        except KeyError:
            sab, sba = sigma_pair(self.kernel, self.vectors[a], self.vectors[b])
            self._sigma[(a, b)] = sab
            self._sigma[(b, a)] = sba
            return sab

    def strictly_preferred(self, a: str, b: str, lam: float) -> bool:
        return self.sigma(a, b) >= lam and not self.sigma(b, a) >= lam

    def classify(self, action: str, profile_keys: Sequence[str], lam: float) -> ActionSetRelation:
        rels = []
        for pk in profile_keys:
            sab = self.sigma(action, pk) >= lam
            sba = self.sigma(pk, action) >= lam
            rels.append(derived_relation(sab, sba))
        return classify_relations(rels)

    def level_relations(
        self, action: str, levels: Sequence[Sequence[str]], lam: float
    ) -> list[ActionSetRelation]:
        return [self.classify(action, keys, lam) for keys in levels]

    def bounds(
        self,
        action: str,
        levels: Sequence[Sequence[str]],
        scores: Sequence[float],
        lam: float,
        fast: bool = False,
    ) -> tuple[tuple[float, int] | None, tuple[float, int] | None]:
        relations = self.level_relations(action, levels, lam)
        try:
            lo = _scan_lower(relations, scores, fast)
        except NoLowerBoundError:
            lo = None
        try:
            hi = _scan_upper(relations, scores, fast)
        except NoUpperBoundError:
            hi = None
        return lo, hi


def _register_structure(rel: _Relations, refs: ReferenceStructure, tag: str = "") -> list[list[str]]:
    levels: list[list[str]] = []
    for k, ref in enumerate(refs.sets):
        keys = []
        for p, vec in enumerate(ref.profiles):
            key = f"{tag}L{k}P{p}"
            rel.register(key, vec)
            keys.append(key)
        levels.append(keys)
    return levels


# ---------------------------------------------------------------------------
# theorem checkers


def check_conformity(
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    seed: int | None = None,
    digest: str = "",
) -> PropertyReport:
    """Interior profiles, scored as actions, must get their neighbours' scores.

    Hypothesis: all four soft separability flags (dominance and
    preference, primal and dual). When unmet the report is gated and the
    deviations are logged as notes only.
    """
    sep = check_separability(refs, criteria, lam)
    hypothesis = sep.soft_dominance and sep.soft_preference
    rel = _Relations(criteria)
    levels = _register_structure(rel, refs)
    scores = refs.scores

    failures: list[PropertyFailure] = []
    notes: list[str] = []
    trials = 0
    for k in range(1, len(levels) - 1):
        for key in levels[k]:
            trials += 1
            lo, hi = rel.bounds(key, levels, scores, lam)
            expected = (scores[k - 1], scores[k + 1])
            observed = (None if lo is None else lo[0], None if hi is None else hi[0])
            if observed != expected:
                entry = PropertyFailure(
                    seed, digest, f"profile {key} at level {k + 1}",
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


def _flag_checks_for_action(
    name: str,
    relations: Sequence[ActionSetRelation],
    primal: bool,
    dual: bool,
) -> list[str]:
    """Violated set-relation implications for one entity; empty when clean."""
    bad: list[str] = []
    n = len(relations)
    for k in range(n):
        if primal and relations[k].a_outranks_set:
            for h in range(k):
                if relations[h].set_preferred:
                    bad.append(f"{name}: outranks level {k+1} but level {h+1} preferred to it")
        if primal and relations[k].set_preferred:
            for h in range(k + 1, n):
                if relations[h].a_outranks_set:
                    bad.append(f"{name}: level {k+1} preferred yet outranks level {h+1}")
        if primal and dual:
            if relations[k].a_outranks_set:
                for h in range(k):
                    if not relations[h].a_outranks_set:
                        bad.append(f"{name}: outranks level {k+1} but not level {h+1}")
            if relations[k].set_preferred:
                for h in range(k + 1, n):
                    if not relations[h].set_preferred:
                        bad.append(f"{name}: level {k+1} preferred but level {h+1} not")
    return bad


def check_propositions(
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    actions: Mapping[str, Sequence[float]],
    seed: int | None = None,
    digest: str = "",
) -> PropertyReport:
    """Set-relation implications plus the bound characterizations.

    Per action with both bounds: strictly preferred to every level at or
    below its lower bound, every level at or above its upper bound
    strictly preferred to it, no strict preference strictly inside the
    range, indifference/incomparability only inside, and the general
    bound scan agreeing with the fast path. Profiles are checked against
    the ladder implications as well. Gating is per-implication: primal
    and dual soft dominance enable exactly the items stated under them.
    """
    sep = check_separability(refs, criteria, lam)
    primal = sep.all_soft_dominance_primal
    dual = sep.all_soft_dominance_dual
    rel = _Relations(criteria)
    levels = _register_structure(rel, refs)
    scores = refs.scores

    failures: list[PropertyFailure] = []
    notes: list[str] = []
    skipped = 0
    trials = 0

    def fail(case: str, expected: str, observed: str) -> None:
        failures.append(PropertyFailure(seed, digest, case, expected, observed))

    for name, vec in actions.items():
        rel.register(name, vec)
        trials += 1
        relations = rel.level_relations(name, levels, lam)
        for msg in _flag_checks_for_action(name, relations, primal, dual):
            fail(msg, "implication holds", "violated")
        if not (primal and dual):
            skipped += 1
            continue
        lo, hi = rel.bounds(name, levels, scores, lam)
        if lo is None or hi is None:
            skipped += 1  # comparability failure; propositions assume both bounds
            continue
        lo_idx, hi_idx = lo[1], hi[1]
        fast_lo, fast_hi = rel.bounds(name, levels, scores, lam, fast=True)
        if (fast_lo, fast_hi) != (lo, hi):
            fail(f"{name}: fast path diverges", f"{(lo, hi)}", f"{(fast_lo, fast_hi)}")
        for k, r in enumerate(relations):
            if k <= lo_idx and not r.a_preferred:
                fail(f"{name}: level {k+1} at/below lower bound", "action preferred",
                     r.classification.value)
            if k >= hi_idx and not r.set_preferred:
                fail(f"{name}: level {k+1} at/above upper bound", "set preferred",
                     r.classification.value)
            inside = lo_idx < k < hi_idx
            if inside and r.classification in (
                SetClassification.ACTION_PREFERRED, SetClassification.SET_PREFERRED
            ):
                fail(f"{name}: level {k+1} inside range", "no strict preference",
                     r.classification.value)
            if (r.indifferent or r.incomparable) and not inside:
                fail(f"{name}: level {k+1} indifferent/incomparable", "inside range",
                     f"outside (bounds {lo_idx+1}..{hi_idx+1})")

    # ladder implications for the profiles themselves
    for k, keys in enumerate(levels):
        for key in keys:
            trials += 1
            relations = rel.level_relations(key, levels, lam)
            if dual:
                for h in range(k + 1):
                    if not relations[h].a_outranks_set:
                        fail(f"profile {key}: must outrank level {h+1}",
                             "outranks", relations[h].classification.value)
            if primal:
                for h in range(k + 1, len(levels)):
                    if not relations[h].set_preferred:
                        fail(f"profile {key}: level {h+1} must be preferred to it",
                             "set preferred", relations[h].classification.value)

    hypothesis = primal and dual
    if not hypothesis:
        notes.append("hypothesis not met: soft dominance separability")
    return PropertyReport(
        "propositions", trials, tuple(failures), skipped, hypothesis, tuple(notes)
    )


def _expected_after_edit(
    rel: _Relations,
    action: str,
    levels: Sequence[Sequence[str]],
    scores: Sequence[float],
    lam: float,
    lo_idx: int,
    hi_idx: int,
    edit: EditOperation,
    new_keys: Sequence[str],
) -> tuple[float | None, float | None]:
    """Bound values the single-edit case analysis predicts (None = no bound)."""
    x = list(scores)
    r, t = lo_idx, hi_idx

    def strict_to_action(pk: str) -> bool:
        return rel.strictly_preferred(pk, action, lam)

    def strict_from_action(pk: str) -> bool:
        return rel.strictly_preferred(action, pk, lam)

    exp_lower: float | None = x[r]
    exp_upper: float | None = x[t]

    if isinstance(edit, InsertSet):
        cls = rel.classify(action, new_keys, lam).classification
        upper_neigh = x[r + 1] if r + 1 < len(x) else float("inf")
        if x[r] < edit.score < upper_neigh and cls is SetClassification.ACTION_PREFERRED:
            exp_lower = edit.score
        lower_neigh = x[t - 1] if t >= 1 else float("-inf")
        if lower_neigh < edit.score < x[t] and cls is SetClassification.SET_PREFERRED:
            exp_upper = edit.score
    elif isinstance(edit, DeleteSet):
        if edit.level == r:
            exp_lower = x[r - 1] if r >= 1 else None
        if edit.level == t:
            exp_upper = x[t + 1] if t + 1 < len(x) else None
    elif isinstance(edit, InsertProfile):
        k = edit.level
        new_key = new_keys[0]
        if strict_to_action(new_key) and k == r:
            exp_lower = x[r - 1] if r >= 1 else None
        elif (
            strict_from_action(new_key)
            and k == r + 1
            and not any(strict_to_action(pk) for pk in levels[k])
        ):
            exp_lower = x[r + 1]
        if strict_from_action(new_key) and k == t:
            exp_upper = x[t + 1] if t + 1 < len(x) else None
        elif (
            strict_to_action(new_key)
            and k == t - 1
            and not any(strict_from_action(pk) for pk in levels[k])
        ):
            exp_upper = x[t - 1]
    elif isinstance(edit, DeleteProfile):
        k = edit.level
        gone = levels[k][edit.profile_index]
        others = [pk for i, pk in enumerate(levels[k]) if i != edit.profile_index]
        if k == r and strict_from_action(gone) and not any(
            strict_from_action(pk) for pk in others
        ):
            exp_lower = x[r - 1] if r >= 1 else None
        elif (
            k == r + 1
            and strict_to_action(gone)
            and not any(strict_to_action(pk) for pk in others)
            and any(strict_from_action(pk) for pk in others)
        ):
            exp_lower = x[r + 1]
        if k == t and strict_to_action(gone) and not any(
            strict_to_action(pk) for pk in others
        ):
            exp_upper = x[t + 1] if t + 1 < len(x) else None
        elif (
            k == t - 1
            and strict_from_action(gone)
            and not any(strict_from_action(pk) for pk in others)
            and any(strict_to_action(pk) for pk in others)
        ):
            exp_upper = x[t - 1]
    return exp_lower, exp_upper


def check_stability(
    refs: ReferenceStructure,
    criteria: Sequence[Criterion],
    lam: float,
    edits: Sequence[EditOperation],
    actions: Mapping[str, Sequence[float]],
    seed: int | None = None,
    digest: str = "",
) -> PropertyReport:
    """Every single insert/delete moves each bound by at most one level.

    Checks the coarse one-level window against the original neighbours
    and the exact case analysis predicting the new bound. Edits that
    break the soft-dominance hypothesis (before or after) are skipped
    and counted, not failed.
    """
    sep_before = check_separability(refs, criteria, lam)
    if not sep_before.soft_dominance:
        return PropertyReport(
            "stability", 0, (), len(edits), False,
            ("hypothesis not met before edits: soft dominance separability",),
        )

    rel = _Relations(criteria)
    levels = _register_structure(rel, refs)
    scores = refs.scores
    for name, vec in actions.items():
        rel.register(name, vec)

    failures: list[PropertyFailure] = []
    skipped = 0
    trials = 0

    for e_idx, edit in enumerate(edits):
        new_refs = apply_edit(refs, edit)
        if not check_separability(new_refs, criteria, lam).soft_dominance:
            skipped += 1
            continue

        # register edited-structure levels, reusing surviving profile keys
        if isinstance(edit, InsertSet):
            new_keys = [
                rel.register(f"E{e_idx}N{i}", vec) for i, vec in enumerate(edit.profiles)
            ]
            position = sum(1 for s in refs.sets if s.score < edit.score)
            new_levels = [list(keys) for keys in levels]
            new_levels.insert(position, new_keys)
        elif isinstance(edit, DeleteSet):
            new_keys = []
            new_levels = [list(keys) for k, keys in enumerate(levels) if k != edit.level]
        elif isinstance(edit, InsertProfile):
            new_keys = [rel.register(f"E{e_idx}N0", edit.profile)]
            new_levels = [list(keys) for keys in levels]
            new_levels[edit.level].append(new_keys[0])
        else:
            new_keys = []
            new_levels = [list(keys) for keys in levels]
            del new_levels[edit.level][edit.profile_index]
        new_scores = new_refs.scores

        for name in actions:
            old_lo, old_hi = rel.bounds(name, levels, scores, lam)
            if old_lo is None or old_hi is None:
                continue
            trials += 1
            r, t = old_lo[1], old_hi[1]
            exp_lower, exp_upper = _expected_after_edit(
                rel, name, levels, scores, lam, r, t, edit, new_keys
            )
            new_lo, new_hi = rel.bounds(name, new_levels, new_scores, lam)
            got_lower = None if new_lo is None else new_lo[0]
            got_upper = None if new_hi is None else new_hi[0]

            lo_floor = scores[r - 1] if r >= 1 else float("-inf")
            lo_ceil = scores[r + 1] if r + 1 < len(scores) else float("inf")
            if got_lower is not None and not lo_floor <= got_lower <= lo_ceil:
                failures.append(PropertyFailure(
                    seed, digest, f"{name} lower window after {edit!r}",
                    f"[{lo_floor}, {lo_ceil}]", f"{got_lower}",
                ))
            hi_floor = scores[t - 1] if t >= 1 else float("-inf")
            hi_ceil = scores[t + 1] if t + 1 < len(scores) else float("inf")
            if got_upper is not None and not hi_floor <= got_upper <= hi_ceil:
                failures.append(PropertyFailure(
                    seed, digest, f"{name} upper window after {edit!r}",
                    f"[{hi_floor}, {hi_ceil}]", f"{got_upper}",
                ))

            if (got_lower, got_upper) != (exp_lower, exp_upper):
                failures.append(PropertyFailure(
                    seed, digest, f"{name} exact case analysis after {edit!r}",
                    f"bounds ({exp_lower}, {exp_upper})",
                    f"bounds ({got_lower}, {got_upper})",
                ))

    return PropertyReport("stability", trials, tuple(failures), skipped, True)


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
                below = None
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
        a: tuple(v for i, v in enumerate(instance.table.vector(a)) if i != j)
        for a in instance.table.actions
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


def _drop_profile(instance: Instance, level: int, idx: int) -> Instance | None:
    sets = list(instance.refs.sets)
    target = sets[level]
    if len(target.profiles) <= 1:
        if len(sets) <= 2:
            return None
        del sets[level]
    else:
        sets[level] = ReferenceSet(
            target.score,
            target.profiles[:idx] + target.profiles[idx + 1 :],
            (target.names[:idx] + target.names[idx + 1 :]) if target.names else (),
        )
    return Instance(instance.criteria, instance.table, ReferenceStructure(tuple(sets)))


def _drop_action(instance: Instance, action: str) -> Instance | None:
    remaining = [a for a in instance.table.actions if a != action]
    rows = {a: instance.table.vector(a) for a in remaining}
    table = PerformanceTable.from_rows(instance.criteria, rows)
    return Instance(instance.criteria, table, instance.refs)


def shrink_instance(
    instance: Instance, still_fails: Callable[[Instance], bool]
) -> Instance:
    """Greedy reduction: drop criteria, then profiles, then actions.

    Each removal is kept only when the failure persists; restarts after
    every successful removal until a fixed point.
    """
    current = instance
    reduced = True
    while reduced:
        reduced = False
        for j in range(len(current.criteria)):
            cand = _drop_criterion(current, j)
            if cand is not None and still_fails(cand):
                current, reduced = cand, True
                break
        if reduced:
            continue
        for level in range(len(current.refs.sets)):
            for idx in range(len(current.refs.sets[level].profiles)):
                cand = _drop_profile(current, level, idx)
                if cand is not None and still_fails(cand):
                    current, reduced = cand, True
                    break
            if reduced:
                break
        if reduced:
            continue
        for action in current.table.actions:
            cand = _drop_action(current, action)
            if cand is not None and still_fails(cand):
                current, reduced = cand, True
                break
    return current
