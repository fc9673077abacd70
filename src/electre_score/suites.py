"""Seeded trial suites over randomized instances.

Five suites back the verification harness: the dominance/outranking
implication chain, the credibility invariants, the set-relation
propositions, conformity, and stability under single edits. Trials are
deterministic per (base seed, index) and all drawn by :func:`_trials`.
A failing trial of a checked suite is shrunk by dropping criteria, then
profiles, then actions, and its failures carry the trial seed and the
digest of the smallest instance that still fails. ``deck-example`` is a
notice, not a trial suite.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from .credibility import compile_criteria, dominates, sigma_pair
from .model import Criterion, Direction
from .properties import (
    GeneratorConfig,
    Instance,
    PropertyFailure,
    PropertyReport,
    check_conformity,
    check_propositions,
    check_stability,
    generate_instance,
    make_edits,
    shrink_instance,
)
from .scoring import DeckOfCards, deck_of_cards_scores

LAMBDA_GRID = (0.55, 0.65, 0.75, 0.85, 0.95, 1.0)

# size caps honoured by every suite
MAX_CRITERIA = 8
MAX_LEVELS = 8
MAX_PROFILES = 4
MAX_ACTIONS = 20


def _trials(
    trials: int,
    seed: int,
    actions: tuple[int, int] | None = None,
    salt: int = 0,
    **overrides,
) -> Iterator[tuple[int, random.Random, Instance]]:
    """Yield ``(trial_seed, rng, instance)`` for each trial.

    Trial ``i`` has seed ``seed + i``; its ``rng`` is seeded with that
    seed xor ``salt`` and draws the instance's sizes, after the action
    count in ``actions`` when one is given. The suite reads its own
    draws from the same ``rng`` afterwards.
    """
    for trial_seed in range(seed, seed + trials):
        rng = random.Random(trial_seed ^ salt)
        n_actions = rng.randint(*actions) if actions else None
        config = dict(
            n_criteria=rng.randint(1, MAX_CRITERIA),
            n_levels=rng.randint(2, MAX_LEVELS),
            max_profiles_per_level=rng.randint(1, MAX_PROFILES),
            # drawn even when replaced, so the suite's later draws stay put
            n_actions=rng.randint(1, MAX_ACTIONS),
            **overrides,
        )
        if n_actions is not None:
            config["n_actions"] = n_actions
        yield trial_seed, rng, generate_instance(trial_seed, GeneratorConfig(**config))


def _recorder(
    failures: list[PropertyFailure], trial_seed: int, inst: Instance
) -> Callable[[str, str, str], None]:
    def record(case: str, expected: str, observed: str) -> None:
        failures.append(PropertyFailure(trial_seed, inst.digest(), case, expected, observed))

    return record


def _dominated_variant(
    rng: random.Random, criteria: Sequence[Criterion], vec: Sequence[float]
) -> tuple[float, ...]:
    """A vector the input dominates: every advantage nonnegative, one positive."""
    shifts = [rng.uniform(0.0, 2.0) for _ in criteria]
    if all(s == 0.0 for s in shifts):  # pragma: no cover - measure zero
        shifts[0] = 1.0
    out = []
    for c, v, s in zip(criteria, vec, shifts):
        out.append(v - s if c.direction is Direction.MAX else v + s)
    return tuple(out)


def run_dominance_implication_suite(trials: int, seed: int) -> PropertyReport:
    """Dominance/outranking implications on triples, constant thresholds.

    Randomized pairs with explicitly constructed dominated variants;
    asserts, at every grid cutting level: dominance forces credibility 1,
    outranking survives replacing the outranked side by anything it
    dominates (and the outranking side by anything dominating it), and
    likewise for strict preference.
    """
    failures: list[PropertyFailure] = []
    for trial_seed, rng, inst in _trials(trials, seed, actions=(3, 8),
                                         strong_dominance=False):
        crit = inst.criteria
        kernel = compile_criteria(crit)
        pool = list(inst.table.rows.values())
        record = _recorder(failures, trial_seed, inst)
        for _ in range(3):
            a = rng.choice(pool)
            b = rng.choice(pool)
            b_minus = _dominated_variant(rng, crit, b)
            a_plus_source = rng.choice(pool)
            a_plus = a_plus_source  # dominating side of (a_plus, a_minus)
            a_minus = _dominated_variant(rng, crit, a_plus_source)

            if not dominates(crit, a_plus, a_minus):
                record("constructed dominance pair", "dominates", "does not")
                continue
            sigma_dom, _ = sigma_pair(kernel, a_plus, a_minus)
            if sigma_dom != 1.0:
                record("dominance gives credibility 1", "1.0", f"{sigma_dom}")

            s_ab, s_ba = sigma_pair(kernel, a, b)
            s_abm, s_bma = sigma_pair(kernel, a, b_minus)
            s_pb, s_bp = sigma_pair(kernel, a_plus, b)
            s_mb, s_bm = sigma_pair(kernel, a_minus, b)
            for lam in LAMBDA_GRID:
                if s_ab >= lam and not s_abm >= lam:
                    record(f"outrank then dominated target, lam={lam}",
                           "still outranks", f"{s_ab} vs {s_abm}")
                if s_mb >= lam and not s_pb >= lam:
                    record(f"dominating source keeps outranking, lam={lam}",
                           "still outranks", f"{s_mb} vs {s_pb}")
                if (s_ab >= lam and not s_ba >= lam) and not (
                    s_abm >= lam and not s_bma >= lam
                ):
                    record(f"strict preference to dominated target, lam={lam}",
                           "still strict", f"({s_abm}, {s_bma})")
                if (s_mb >= lam and not s_bm >= lam) and not (
                    s_pb >= lam and not s_bp >= lam
                ):
                    record(f"dominating source keeps strict preference, lam={lam}",
                           "still strict", f"({s_pb}, {s_bp})")
    return PropertyReport("dominance-implications", trials, tuple(failures))


def _sigma_invariant_trials(
    trials: int, seed: int, name: str, veto: bool, threshold_mode: str
) -> PropertyReport:
    failures: list[PropertyFailure] = []
    for trial_seed, rng, inst in _trials(trials, seed, actions=(2, 8), veto=veto,
                                         threshold_mode=threshold_mode,
                                         strong_dominance=False):
        crit = inst.criteria
        kernel = compile_criteria(crit)
        # with every veto stripped, credibility is concordance
        concordance = (
            compile_criteria([c._replace(veto=None) for c in crit]) if veto else kernel
        )
        entities = dict(inst.table.rows)
        for pname, _, _, vec in inst.refs.flat_profiles():
            entities[pname] = vec
        keys = list(entities)
        record = _recorder(failures, trial_seed, inst)
        for key in rng.sample(keys, min(3, len(keys))):
            if sigma_pair(kernel, entities[key], entities[key]) != (1.0, 1.0):
                record(f"reflexivity at {key}", "1.0", "not 1")
        for _ in range(6):
            a, b = rng.choice(keys), rng.choice(keys)
            sigma, back = sigma_pair(kernel, entities[a], entities[b])
            c = sigma_pair(concordance, entities[a], entities[b])[0] if veto else sigma
            if not -1e-12 <= c <= 1 + 1e-12:
                record(f"concordance range ({a},{b})", "[0,1]", f"{c}")
            if not -1e-12 <= sigma <= c + 1e-12:
                record(f"credibility cap ({a},{b})", f"[0, c={c}]", f"{sigma}")
            # the pair read the other way round gives the same two values
            mirror = sigma_pair(kernel, entities[b], entities[a])
            if mirror != (back, sigma):
                record(f"relation mirror symmetry ({a},{b})", f"{(back, sigma)}", f"{mirror}")
            if sigma != 1.0 and dominates(crit, entities[a], entities[b]):
                record(f"dominance gives credibility 1 ({a},{b})", "1.0", f"{sigma}")
    return PropertyReport(name, trials, tuple(failures))


def run_sigma_invariants_suite(trials: int, seed: int) -> PropertyReport:
    """Range, reflexivity, credibility cap, mirror symmetry, and
    credibility 1 under dominance."""
    return _sigma_invariant_trials(trials, seed, "sigma-invariants",
                                   veto=False, threshold_mode="constant")


def run_veto_invariants_suite(trials: int, seed: int) -> PropertyReport:
    """The same credibility invariants with veto thresholds switched on."""
    return _sigma_invariant_trials(trials, seed, "sigma-invariants-veto",
                                   veto=True, threshold_mode="constant")


def run_variable_threshold_suite(trials: int, seed: int) -> PropertyReport:
    """Credibility invariants under variable thresholds, with the
    dominance/outranking implication chain probed and any violations
    reported as notes, never asserted: variable thresholds change the
    evaluation point per pair, so those guarantees are not implied by the
    formulas alone.
    """
    base = _sigma_invariant_trials(trials, seed, "variable-thresholds",
                                   veto=False, threshold_mode="variable")
    notes: list[str] = []
    observed = 0
    for trial_seed, rng, inst in _trials(trials, seed, actions=(3, 6), salt=0x7A11,
                                         threshold_mode="variable",
                                         strong_dominance=False):
        crit = inst.criteria
        kernel = compile_criteria(crit)
        pool = list(inst.table.rows.values())
        for _ in range(2):
            a, b = rng.choice(pool), rng.choice(pool)
            b_minus = _dominated_variant(rng, crit, b)
            s_ab, _ = sigma_pair(kernel, a, b)
            s_abm, _ = sigma_pair(kernel, a, b_minus)
            for lam in LAMBDA_GRID:
                if s_ab >= lam and not s_abm >= lam:
                    observed += 1
                    if observed <= 5:
                        notes.append(
                            f"seed {trial_seed}: outranking lost against a "
                            f"dominated target at lam={lam} "
                            f"({s_ab:.6f} -> {s_abm:.6f})"
                        )
    if observed:
        notes.append(
            f"{observed} implication violations observed under variable "
            "thresholds (reported, not asserted)"
        )
    return replace(base, notes=tuple(notes))


def _run_checked_suite(
    name: str,
    trials: int,
    seed: int,
    runner: Callable[[Instance, float, int], PropertyReport],
) -> PropertyReport:
    failures: list[PropertyFailure] = []
    notes: list[str] = []
    skipped, hypothesis_met = 0, True
    for trial_seed, rng, inst in _trials(trials, seed):
        lam = rng.choice(LAMBDA_GRID)
        report = runner(inst, lam, trial_seed)
        skipped += report.skipped
        hypothesis_met = hypothesis_met and report.hypothesis_met
        notes.extend(report.notes)
        if not report.failures:
            continue
        small = shrink_instance(
            inst, lambda candidate: bool(runner(candidate, lam, trial_seed).failures)
        )
        shrunk = runner(small, lam, trial_seed).failures
        found = report.failures
        if shrunk:
            found = tuple(
                replace(f, case=f"{f.case} [shrunk to {small.dims()}]") for f in shrunk
            )
        # the checkers record neither seed nor digest: both are stamped
        # here, the digest computed for failing trials only
        digest = (small if shrunk else inst).digest()
        failures.extend(replace(f, seed=trial_seed, digest=digest) for f in found)
    return PropertyReport(name, trials, tuple(failures), skipped, hypothesis_met, tuple(notes))


def run_propositions_suite(trials: int, seed: int) -> PropertyReport:
    def runner(inst: Instance, lam: float, trial_seed: int) -> PropertyReport:
        return check_propositions(inst.refs, inst.criteria, lam, inst.table.rows)

    return _run_checked_suite("propositions", trials, seed, runner)


def run_conformity_suite(trials: int, seed: int) -> PropertyReport:
    def runner(inst: Instance, lam: float, trial_seed: int) -> PropertyReport:
        return check_conformity(inst.refs, inst.criteria, lam)

    return _run_checked_suite("conformity", trials, seed, runner)


def run_stability_suite(trials: int, seed: int) -> PropertyReport:
    def runner(inst: Instance, lam: float, trial_seed: int) -> PropertyReport:
        rng = random.Random(trial_seed ^ 0x5EED)
        edits = make_edits(inst, rng, count=4)
        return check_stability(inst.refs, inst.criteria, lam, edits, inst.table.rows)

    return _run_checked_suite("stability", trials, seed, runner)


# the bundled hotel example's recorded blank cards and its elicited
# score list, as in data/hotel_model.json
HOTEL_DECK = DeckOfCards(blank_cards=(1, 2, 0, 1, 0, 2), anchors=(0.0, 100.0))
HOTEL_SCORES = (0.0, 25.0, 100.0 / 3.0, 50.0, 175.0 / 3.0, 250.0 / 3.0, 100.0)


def run_deck_example(trials: int, seed: int) -> PropertyReport:
    """The documented deck-of-cards discrepancy, as a passing notice.

    Takes no trials: the hotel deck is fixed, so ``trials`` and
    ``seed`` are ignored.
    """
    computed = deck_of_cards_scores(HOTEL_DECK)
    matches = all(abs(c - s) < 1e-6 for c, s in zip(computed, HOTEL_SCORES))
    return PropertyReport("deck-example", 1, notes=(
        "documented discrepancy: the bundled hotel deck's blank-card "
        "counts do not reproduce its elicited score list under the "
        "cumulative unit formula; the elicited list stays authoritative",
        f"computed: {[round(x, 4) for x in computed]}",
        f"elicited: {[round(x, 4) for x in HOTEL_SCORES]}",
        f"formula-consistent: {matches}",
    ))


SUITES: dict[str, Callable[[int, int], PropertyReport]] = {
    "dominance-implications": run_dominance_implication_suite,
    "sigma-invariants": run_sigma_invariants_suite,
    "sigma-invariants-veto": run_veto_invariants_suite,
    "variable-thresholds": run_variable_threshold_suite,
    "propositions": run_propositions_suite,
    "conformity": run_conformity_suite,
    "stability": run_stability_suite,
    "deck-example": run_deck_example,
}
