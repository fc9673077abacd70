import hashlib
import random

import pytest

from electre_score import properties as props
from electre_score import refsets
from electre_score.credibility import compile_criteria
from electre_score.model import ReferenceSet, ReferenceStructure
from electre_score.properties import (
    DeleteProfile,
    DeleteSet,
    GeneratorConfig,
    InsertProfile,
    InsertSet,
    InvalidEditError,
    PropertyFailure,
    PropertyReport,
    Trial,
    apply_edit,
    check_conformity,
    check_propositions,
    check_stability,
    generate_instance,
    make_edits,
    shrink_instance,
)
from electre_score.refsets import (
    ProfileTable,
    SetClassification,
    check_separability,
    classify_action_vs_levels,
    soft_dominance,
)
from electre_score.scoring import scan_bounds
from electre_score.suites import LAMBDA_GRID

import stability_reference


def soft_preference(inst, lam):
    return ProfileTable(compile_criteria(inst.criteria), inst.refs).soft_preference(lam)


def bounds(vec, refs, crit, lam):
    """(lower, upper) as (score, level) pairs, None where a bound is missing."""
    return scan_bounds(classify_action_vs_levels(vec, refs, crit, lam), refs.scores)


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance(42)
        b = generate_instance(42)
        assert a.digest() == b.digest()
        assert a.table.actions == b.table.actions
        assert a.refs.scores == b.refs.scores

    def test_seed_changes_instance(self):
        assert generate_instance(1).digest() != generate_instance(2).digest()

    def test_strong_dominance_construction_has_all_flags(self):
        for seed in range(8):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=4, n_levels=4, max_profiles_per_level=3, n_actions=2))
            pairs = check_separability(inst.refs, inst.criteria, 0.75)
            for pair, flags in pairs.items():
                assert flags.strong_dominance, (seed, pair)
                assert flags.soft_preference_primal and flags.soft_preference_dual

    def test_free_mode_flags_can_vary(self):
        seen_false = False
        for seed in range(20):
            inst = generate_instance(seed, GeneratorConfig(
                n_levels=4, strong_dominance=False, n_actions=0))
            if not all(soft_dominance(inst.criteria, inst.refs)):
                seen_false = True
                break
        assert seen_false

    def test_minimal_sizes(self):
        inst = generate_instance(0, GeneratorConfig(
            n_criteria=1, n_levels=2, max_profiles_per_level=1, n_actions=1))
        assert len(inst.criteria) == 1
        assert len(inst.refs.sets) == 2

    def test_rejects_undersized_config(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_levels=1)


class TestApplyEdit:
    def test_delete_set_keeps_other_scores(self, hotel):
        out = apply_edit(hotel["refs"], DeleteSet(3))
        assert len(out.sets) == 6
        assert out.scores == tuple(
            s for i, s in enumerate(hotel["refs"].scores) if i != 3
        )
        # original untouched
        assert len(hotel["refs"].sets) == 7

    def test_insert_set_sorts_by_score(self, hotel):
        new = InsertSet(40.0, ((14000.0, 2900.0, 4.0, 4.0, 3.0),))
        out = apply_edit(hotel["refs"], new)
        assert out.scores.index(40.0) == 3

    def test_insert_duplicate_score_rejected(self, hotel):
        with pytest.raises(InvalidEditError):
            apply_edit(hotel["refs"], InsertSet(50.0, ((0.0,) * 5,)))

    def test_delete_profile_keeps_set_nonempty(self, hotel):
        with pytest.raises(InvalidEditError):
            apply_edit(hotel["refs"], DeleteProfile(0, 0))
        out = apply_edit(hotel["refs"], DeleteProfile(1, 0))
        assert len(out.sets[1].profiles) == 1

    def test_delete_set_keeps_two_levels(self):
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0,),)), ReferenceSet(1.0, ((5.0,),)),
        ))
        with pytest.raises(InvalidEditError):
            apply_edit(refs, DeleteSet(0))

    def test_insert_duplicate_profile_content_allowed(self, hotel):
        dup = hotel["refs"].sets[3].profiles[0]
        out = apply_edit(hotel["refs"], InsertProfile(3, dup))
        assert len(out.sets[3].profiles) == 3

    def test_pure_and_repeatable(self, hotel):
        edit = InsertProfile(2, (15000.0, 3100.0, 3.0, 1.0, 2.0))
        once = apply_edit(hotel["refs"], edit)
        twice = apply_edit(hotel["refs"], edit)
        assert once == twice


# two levels: an unnamed one of one profile, a named one of two
EDIT_REFS = ReferenceStructure((
    ReferenceSet(0.0, ((0.0,),)),
    ReferenceSet(1.0, ((5.0,), (6.0,)), ("b1", "b2")),
))


class TestApplyEditErrors:
    # every message, and which check comes first where two apply
    @pytest.mark.parametrize("edit, message", [
        (InsertSet(0.0, ()), "score 0.0 already present"),
        (InsertSet(0.5, ()), "inserted set needs at least one profile"),
        (DeleteSet(5), "no level 5"),
        (DeleteSet(0), "deletion would leave fewer than two sets"),
        (InsertProfile(-1, (1.0,)), "no level -1"),
        (DeleteProfile(9, 0), "no level 9"),
        (DeleteProfile(0, 5), "no profile 5 at level 0"),
        (DeleteProfile(0, 0), "deletion would empty the set"),
        (("not", "an", "edit"), "unknown edit ('not', 'an', 'edit')"),
    ])
    def test_message(self, edit, message):
        with pytest.raises(InvalidEditError) as exc:
            apply_edit(EDIT_REFS, edit)
        assert str(exc.value) == message

    def test_delete_profile_slices_names(self):
        named = apply_edit(EDIT_REFS, DeleteProfile(1, 0))
        assert (named.sets[1].profiles, named.sets[1].names) == (((6.0,),), ("b2",))
        unnamed = apply_edit(apply_edit(EDIT_REFS, InsertProfile(0, (1.0,))), DeleteProfile(0, 1))
        assert unnamed.sets[0] == EDIT_REFS.sets[0]
        assert unnamed.sets[0].names == ()


class TestConformityChecker:
    def test_generated_collection_passes(self):
        inst = generate_instance(3, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=2, n_actions=0))
        report = check_conformity(Trial(inst.criteria, inst.refs, 0.75))
        assert report.hypothesis_met
        assert report.failures == ()
        assert report.trials > 0

    def test_two_level_collection_is_vacuous(self):
        inst = generate_instance(4, GeneratorConfig(n_levels=2, n_actions=0))
        report = check_conformity(Trial(inst.criteria, inst.refs, 0.75))
        assert report.trials == 0
        assert report.passed

    def test_hotel_is_gated(self, hotel):
        report = check_conformity(Trial(hotel["criteria"], hotel["refs"], 0.65))
        assert not report.hypothesis_met
        assert report.failures == ()  # observations logged, not asserted
        assert any("hypothesis not met" in n for n in report.notes)

    def test_detects_injected_bound_corruption(self, monkeypatch):
        # falsification: corrupt the lower-bound scan and the checker
        # must report failures instead of staying green
        inst = generate_instance(5, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=1, n_actions=0))
        real = props.scan_bounds

        def corrupted(relations, scores):
            lower, upper = real(relations, scores)
            return (scores[0], 0) if lower is not None else None, upper

        monkeypatch.setattr(props, "scan_bounds", corrupted)
        report = check_conformity(Trial(inst.criteria, inst.refs, 0.75))
        assert report.failures


class TestHypothesisRules:
    """The checkers read each hypothesis from its one rule, soft_dominance
    and ProfileTable.soft_preference, never from the per-pair flags."""

    def test_checkers_do_not_read_per_pair_flags(self, monkeypatch, hotel):
        cases = [(hotel["refs"], hotel["criteria"], hotel["table"], 0.65)]
        for seed, free in ((6, False), (3, True), (11, True)):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=6,
                strong_dominance=not free))
            cases.append((inst.refs, inst.criteria, inst.table, 0.75))

        def run():
            return [
                (check_conformity(Trial(crit, refs, lam)),
                 check_propositions(Trial(crit, refs, lam, dict(table.rows))))
                for refs, crit, table, lam in cases
            ]

        expected = run()

        def per_pair_flags(self, lam):
            raise AssertionError("a checker read ProfileTable.separability")

        monkeypatch.setattr(refsets.ProfileTable, "separability", per_pair_flags)
        assert run() == expected
        # both gates are exercised: met and not met
        assert {conformity.hypothesis_met for conformity, _ in expected} == {True, False}


class TestPropositionChecker:
    def test_generated_collection_passes(self):
        inst = generate_instance(6, GeneratorConfig(
            n_criteria=4, n_levels=4, max_profiles_per_level=2, n_actions=8))
        actions = {a: inst.table.vector(a) for a in inst.table.actions}
        report = check_propositions(Trial(inst.criteria, inst.refs, 0.75, actions))
        assert report.hypothesis_met
        assert report.failures == ()

    def test_hotel_is_gated(self, hotel):
        actions = {a: hotel["table"].vector(a) for a in hotel["table"].actions}
        report = check_propositions(Trial(hotel["criteria"], hotel["refs"], 0.65, actions))
        assert not report.hypothesis_met

    def test_detects_lower_bound_one_level_down(self, monkeypatch):
        # falsification: a scan whose lower bound is one level too low
        # must break the highest-action-preferred characterization
        inst = generate_instance(6, GeneratorConfig(
            n_criteria=4, n_levels=4, max_profiles_per_level=2, n_actions=8))
        actions = {a: inst.table.vector(a) for a in inst.table.actions}
        real = props.scan_bounds

        def corrupted(relations, scores):
            lower, upper = real(relations, scores)
            if lower is not None and lower[1] > 0:
                lower = scores[lower[1] - 1], lower[1] - 1
            return lower, upper

        monkeypatch.setattr(props, "scan_bounds", corrupted)
        report = check_propositions(Trial(inst.criteria, inst.refs, 0.75, actions))
        assert report.hypothesis_met
        assert any(f.case.endswith("fast path diverges") for f in report.failures)

    def test_ladder_gated_on_soft_preference(self):
        # soft dominance gives a higher level only B S b; with soft
        # preference failing, "level 5 must be preferred to L3P0" is no
        # longer asserted
        inst = generate_instance(6, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=2, n_actions=0,
            strong_dominance=False))
        assert all(soft_dominance(inst.criteria, inst.refs))
        assert not soft_preference(inst, 0.65)[0]
        report = check_propositions(Trial(inst.criteria, inst.refs, 0.65))
        assert report.hypothesis_met
        assert report.failures == ()

    def test_ladder_failure_survives_the_gate(self, monkeypatch):
        # falsification: with soft preference holding, a higher level read
        # as indifferent to a profile must still fail the ladder
        inst = generate_instance(6, GeneratorConfig(
            n_criteria=4, n_levels=4, max_profiles_per_level=2, n_actions=0))
        assert soft_preference(inst, 0.75)[0]
        real = refsets.ProfileTable.profile_levels

        def corrupted(self, k, p, lam):
            relations = real(self, k, p, lam)
            if k + 1 < len(relations):
                relations = relations[:k + 1] + (SetClassification.INDIFFERENT,) + relations[k + 2:]
            return relations

        monkeypatch.setattr(refsets.ProfileTable, "profile_levels", corrupted)
        report = check_propositions(Trial(inst.criteria, inst.refs, 0.75))
        assert report.hypothesis_met
        assert [f.case for f in report.failures] == [
            f"profile L{k}P{p}: level {k + 2} must be preferred to it"
            for k, ref in enumerate(inst.refs.sets[:-1]) for p in range(len(ref.profiles))
        ]

    def test_incomparable_action_skipped(self):
        inst = generate_instance(7, GeneratorConfig(
            n_criteria=2, n_levels=3, max_profiles_per_level=1, n_actions=0))
        # an action dominating every profile has no upper bound
        from electre_score.model import Direction

        top = inst.refs.sets[-1].profiles[0]
        super_action = tuple(
            v + 100.0 * (1 if c.direction is Direction.MAX else -1)
            for v, c in zip(top, inst.criteria)
        )
        report = check_propositions(
            Trial(inst.criteria, inst.refs, 0.75, {"super": super_action})
        )
        assert report.skipped >= 1
        assert report.failures == ()


class TestStabilityChecker:
    def test_generated_edits_pass(self):
        inst = generate_instance(8, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=2, n_actions=6))
        rng = random.Random(8)
        edits = make_edits(inst, rng, count=6)
        actions = {a: inst.table.vector(a) for a in inst.table.actions}
        report = check_stability(Trial(inst.criteria, inst.refs, 0.75, actions), edits)
        assert report.failures == ()
        assert report.trials > 0

    def test_delete_set_at_lower_bound_moves_one_level_down(self):
        inst = generate_instance(9, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=1, n_actions=4))
        crit, refs = inst.criteria, inst.refs
        for action in inst.table.actions:
            vec = inst.table.vector(action)
            lower, _ = bounds(vec, refs, crit, 0.75)
            if lower is None or lower[1] == 0:
                continue
            lo_idx = lower[1]
            edited = apply_edit(refs, DeleteSet(lo_idx))
            new_lo, new_idx = bounds(vec, edited, crit, 0.75)[0]
            assert new_lo == refs.scores[lo_idx - 1]

    def test_insert_set_below_all_lower_bounds_changes_nothing(self):
        inst = generate_instance(10, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=1, n_actions=5))
        crit, refs = inst.criteria, inst.refs
        # a set just above the bottom one, dominated by everything above
        bottom, above = refs.sets[0].profiles[0], refs.sets[1].profiles[0]
        mid = tuple((x + y) / 2 for x, y in zip(bottom, above))
        score = (refs.sets[0].score + refs.sets[1].score) / 2
        edited = apply_edit(refs, InsertSet(score, (mid,)))
        for action in inst.table.actions:
            vec = inst.table.vector(action)
            old = bounds(vec, refs, crit, 0.75)
            if None in old:
                continue
            if old[0][0] == refs.scores[0]:
                continue  # the insert sits directly below this bound
            new = bounds(vec, edited, crit, 0.75)
            assert (new[0][0], new[1][0]) == (old[0][0], old[1][0])

    def test_incomparable_profile_insert_changes_nothing(self):
        # a profile hugely better on one equal-weight criterion and hugely
        # worse on the other splits credibility 0.5/0.5 against every
        # entity: incomparable at any admissible cutting level
        from electre_score.credibility import credibility
        from electre_score.model import (
            Criterion, Direction, PerformanceTable, ThresholdSpec,
        )
        from electre_score.scoring import score_ranges

        crit = (
            Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0)),
            Criterion("g2", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0)),
        )
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0, 0.0),)),
            ReferenceSet(50.0, ((10.0, 10.0),)),
            ReferenceSet(100.0, ((20.0, 20.0),)),
        ))
        table = PerformanceTable.from_rows(crit, {"mid": (15.0, 15.0)})
        alien = (1000.0, -1000.0)
        lam = 0.75
        for vec in [(15.0, 15.0), (0.0, 0.0), (10.0, 10.0), (20.0, 20.0)]:
            assert credibility(crit, vec, alien) == 0.5 < lam
            assert credibility(crit, alien, vec) == 0.5 < lam
        edited = apply_edit(refs, InsertProfile(1, alien))
        (before,) = score_ranges(table, refs, crit, lam).ranges
        (after,) = score_ranges(table, edited, crit, lam, force=True).ranges
        assert (before.lower, before.upper) == (after.lower, after.upper)
        assert (before.lower, before.upper) == (50.0, 100.0)

    def test_detects_injected_scan_corruption(self, monkeypatch):
        inst = generate_instance(11, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=5))
        rng = random.Random(11)
        edits = make_edits(inst, rng, count=4)
        actions = {a: inst.table.vector(a) for a in inst.table.actions}
        real = props.scan_bounds

        def corrupted(relations, scores):
            lower, upper = real(relations, scores)
            if upper is not None and upper[1] + 1 < len(scores):
                upper = scores[upper[1] + 1], upper[1] + 1
            return lower, upper

        monkeypatch.setattr(props, "scan_bounds", corrupted)
        report = check_stability(Trial(inst.criteria, inst.refs, 0.75, actions), edits)
        assert report.failures

    def test_gated_when_hypothesis_broken(self, hotel):
        actions = {a: hotel["table"].vector(a) for a in hotel["table"].actions}
        report = check_stability(
            Trial(hotel["criteria"], hotel["refs"], 0.65, actions), [DeleteSet(3)]
        )
        assert not report.hypothesis_met
        assert report.trials == 0

    @pytest.mark.parametrize("seed", [1, 4])  # neither flag; dual only
    def test_gated_structure_computes_no_credibility(self, seed, monkeypatch):
        calls = []
        kernel = refsets.sigma_pair

        def counting(compiled, pa, pb):
            calls.append((pa, pb))
            return kernel(compiled, pa, pb)

        monkeypatch.setattr(refsets, "sigma_pair", counting)
        inst = generate_instance(seed, GeneratorConfig(n_levels=4, strong_dominance=False))
        edits = make_edits(inst, random.Random(seed), count=4)
        report = check_stability(Trial(inst.criteria, inst.refs, 0.75, inst.table.rows), edits)
        assert not report.hypothesis_met and report.skipped == len(edits)
        assert calls == []


def _dominance_instances():
    """Strong- and free-dominance instances whose structure holds both
    soft-dominance flags."""
    found = []
    for strong in (True, False):
        seed = 0
        while sum(s == strong for s, _ in found) < 12:
            seed += 1
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=1 + seed % 4, n_levels=2 + seed % 5,
                max_profiles_per_level=3, n_actions=5, strong_dominance=strong))
            if all(soft_dominance(inst.criteria, inst.refs)):
                found.append((strong, inst))
    return [inst for _, inst in found]


def _end_edits(refs):
    """Hand-made edits at both ends, some of which break dominance: a set
    below the bottom and above the top (a copy of the far end's first
    profile, then of the near end's), a deleted end set, a profile
    inserted at and deleted from each end level."""
    sets, top = refs.sets, len(refs.sets) - 1
    bottom, high = sets[0].profiles[0], sets[-1].profiles[0]
    edits = [
        InsertSet(sets[0].score - 1.0, (high,)), InsertSet(sets[0].score - 2.0, (bottom,)),
        InsertSet(sets[-1].score + 1.0, (bottom,)), InsertSet(sets[-1].score + 2.0, (high,)),
        InsertProfile(0, high), InsertProfile(0, bottom),
        InsertProfile(top, bottom), InsertProfile(top, high),
    ]
    if top > 1:
        edits += [DeleteSet(0), DeleteSet(top)]
    for level in (0, top):
        edits += [DeleteProfile(level, i) for i in range(len(sets[level].profiles))
                  if len(sets[level].profiles) > 1]
    return edits


class TestStabilityEditGate:
    """An edited structure's soft dominance is read from the level pairs
    the edit touches; it must equal the one rule over the whole edited
    structure whenever the structure before the edit holds both flags."""

    def test_touched_pairs_equal_the_full_rule(self):
        kept = broken = 0
        for i, inst in enumerate(_dominance_instances()):
            refs = inst.refs
            for edit in make_edits(inst, random.Random(i), count=8) + _end_edits(refs):
                new_refs = apply_edit(refs, edit)
                full = all(soft_dominance(inst.criteria, new_refs))
                at = props._edited_level(refs, edit)
                assert props._keeps_dominance(inst.criteria, new_refs, edit, at) == full, edit
                kept, broken = kept + full, broken + (not full)
        assert kept > 300 and broken > 100

    def test_deleted_set_joins_its_neighbours(self):
        # dominance is transitive, so the pair a deletion makes holds
        # whenever the two it replaces did; a NaN coordinate is never at
        # least as good in ``dominates``, so a NaN middle level breaks no
        # chain: it dominates nothing and nothing dominates it, and the
        # structure fails soft dominance before and after the deletion
        from electre_score.model import Criterion, Direction, ThresholdSpec

        crit = tuple(Criterion(f"g{j}", Direction.MAX, 1.0, ThresholdSpec(1.0),
                               ThresholdSpec(2.0)) for j in (1, 2))
        refs = ReferenceStructure((
            ReferenceSet(10.0, ((5.0, 0.0),)),
            ReferenceSet(20.0, ((float("nan"), 1.0),)),
            ReferenceSet(30.0, ((0.0, 2.0),)),
        ))
        assert soft_dominance(crit, refs) == (False, False)
        edit = DeleteSet(1)
        new_refs = apply_edit(refs, edit)
        assert not all(soft_dominance(crit, new_refs))
        assert not props._keeps_dominance(crit, new_refs, edit, props._edited_level(refs, edit))
        report = check_stability(Trial(crit, refs, 0.75, {"a": (1.0, 1.0)}), [edit])
        assert (report.trials, report.skipped, report.hypothesis_met) == (0, 1, False)

    def test_report_equals_the_full_rule(self, monkeypatch):
        # a scan one level off makes failures, which list the kept edits
        # in order; the gate read from the full rule gives the same report
        real = props.scan_bounds

        def corrupted(relations, scores):
            lower, upper = real(relations, scores)
            if upper is not None and upper[1] + 1 < len(scores):
                upper = scores[upper[1] + 1], upper[1] + 1
            return lower, upper

        def full_rule(criteria, new_refs, edit, at):
            return all(soft_dominance(criteria, new_refs))

        monkeypatch.setattr(props, "scan_bounds", corrupted)
        reports = []
        for i, inst in enumerate(_dominance_instances()):
            edits = make_edits(inst, random.Random(i), count=8) + _end_edits(inst.refs)
            trial = Trial(inst.criteria, inst.refs, 0.75, inst.table.rows)
            reports.append(check_stability(trial, edits))
            with monkeypatch.context() as m:
                m.setattr(props, "_keeps_dominance", full_rule)
                assert check_stability(trial, edits) == reports[-1]
        assert all(r.skipped for r in reports)
        assert sum(bool(r.failures) for r in reports) > len(reports) // 2


def _negative_threshold_chain(levels):
    # q = 1 - 0.1 w and p = 2 - 0.1 w at the worse value w of a pair: a
    # pair whose worse value exceeds 10 raises NegativeThresholdError, so
    # every pair between the profiles at 20 and 30 does, and an action at
    # 5 against any profile does not
    from electre_score.model import Criterion, Direction, ThresholdMode, ThresholdSpec

    crit = (Criterion("g", Direction.MAX, 1.0,
                      ThresholdSpec(1.0, -0.1, ThresholdMode.DIRECT),
                      ThresholdSpec(2.0, -0.1, ThresholdMode.DIRECT)),)
    refs = ReferenceStructure(tuple(
        ReferenceSet(10.0 * (k + 1), ((g,),)) for k, g in enumerate(levels)
    ))
    return crit, refs


class TestStabilityThresholdErrors:
    # the gate reads dominance only: a threshold error can come only from
    # the action-profile pairs the checker computes

    def test_profile_pairs_raise(self):
        from electre_score.credibility import NegativeThresholdError, compile_criteria
        from electre_score.refsets import ProfileTable

        crit, refs = _negative_threshold_chain((0.0, 20.0, 30.0))
        with pytest.raises(NegativeThresholdError):
            ProfileTable(compile_criteria(crit), refs)

    def test_gated_structure_evaluates_no_threshold(self):
        crit, refs = _negative_threshold_chain((0.0, 30.0, 20.0))
        report = check_stability(Trial(crit, refs, 0.75, {"a": (5.0,)}), [DeleteSet(1)])
        assert not report.hypothesis_met
        assert (report.trials, report.skipped) == (0, 1)

    def test_action_pairs_only(self):
        crit, refs = _negative_threshold_chain((0.0, 20.0, 30.0))
        # a beats the profile at 0 beyond p and loses to the others
        report = check_stability(Trial(crit, refs, 0.75, {"a": (5.0,)}),
                                 [InsertProfile(1, (21.0,))])
        assert report.hypothesis_met and report.failures == ()
        assert report.trials == 1

    def test_action_pair_error_still_raised(self):
        from electre_score.credibility import NegativeThresholdError

        crit, refs = _negative_threshold_chain((0.0, 20.0, 30.0))
        with pytest.raises(NegativeThresholdError):
            check_stability(Trial(crit, refs, 0.75, {"a": (15.0,)}), [DeleteSet(1)])


class TestShrinker:
    def test_shrinks_to_minimal_failing_instance(self):
        inst = generate_instance(12, GeneratorConfig(
            n_criteria=5, n_levels=4, max_profiles_per_level=2, n_actions=6))

        # synthetic failure predicate: fails whenever at least two
        # criteria and at least three levels remain
        def still_fails(candidate):
            return len(candidate.criteria) >= 2 and len(candidate.refs.sets) >= 3

        small = shrink_instance(inst, still_fails)
        assert len(small.criteria) == 2
        assert len(small.refs.sets) == 3
        assert len(small.table.actions) == 0

    def test_respects_invariants(self):
        inst = generate_instance(13, GeneratorConfig(
            n_criteria=1, n_levels=2, max_profiles_per_level=1, n_actions=1))
        small = shrink_instance(inst, lambda c: True)
        assert len(small.criteria) == 1
        assert len(small.refs.sets) == 2

    def test_candidate_sequence_is_pinned(self):
        # every candidate the search tries, in order: a reordered or
        # dropped reduction changes which counterexample a suite reports
        inst = generate_instance(12, GeneratorConfig(
            n_criteria=5, n_levels=4, max_profiles_per_level=2, n_actions=6))
        seen = []

        def still_fails(candidate):
            seen.append(candidate.digest())
            return (len(candidate.criteria) >= 2 and len(candidate.refs.sets) >= 3
                    and len(candidate.table.actions) >= 2)

        small = shrink_instance(inst, still_fails)
        assert small.dims() == "2crit/3lvl/3prof/2act"
        assert len(seen) == 44
        assert seen[:3] == ["8a004bd1b1d6", "2aa3886b62d8", "976d6b29a827"]
        assert hashlib.sha256(",".join(seen).encode()).hexdigest() == (
            "b8fcc13006c59d554c558403eeadf32cfc2998b412311428194654c781b69f0d"
        )


class TestSuiteReproducibility:
    def test_same_seed_same_report(self):
        from electre_score.suites import run_checked_suites

        assert run_checked_suites(["conformity"], 10, 77) == run_checked_suites(
            ["conformity"], 10, 77
        )
        assert run_checked_suites(["stability"], 8, 99) == run_checked_suites(
            ["stability"], 8, 99
        )

    def test_different_seed_changes_instances(self):
        a = generate_instance(100)
        b = generate_instance(101)
        assert a.digest() != b.digest()


class TestFailingTrialDigest:
    # a failing trial's digest is computed when it is recorded, from the
    # instance its failures are reported on

    @staticmethod
    def _failure(trial_seed):
        return PropertyReport("x", 1, (PropertyFailure(trial_seed, "", "case", "e", "o"),))

    def test_shrunk_failure_carries_the_shrunk_digest(self, monkeypatch):
        from electre_score import suites

        seen = []

        def runner(trial, inst, trial_seed):
            seen.append(inst)
            return self._failure(trial_seed)

        monkeypatch.setitem(suites.CHECKED, "x", runner)
        [failure] = suites.run_checked_suites(["x"], 1, 5)["x"].failures
        small = seen[-1]
        assert small.dims() == "1crit/2lvl/2prof/0act"
        assert failure.digest == small.digest()
        assert failure.case == f"case [shrunk to {small.dims()}]"

    def test_unreproduced_failure_carries_the_trial_digest(self, monkeypatch):
        from electre_score import suites

        seen = []

        def runner(trial, inst, trial_seed):
            seen.append(inst)
            return self._failure(trial_seed) if len(seen) == 1 else PropertyReport("x", 1)

        monkeypatch.setitem(suites.CHECKED, "x", runner)
        [failure] = suites.run_checked_suites(["x"], 1, 5)["x"].failures
        assert failure.digest == seen[0].digest()
        assert failure.case == "case"


class TestEditFlagPreservation:
    def test_insert_set_between_levels_preserves_held_flags(self, hotel):
        # a profile dominating the level-3 profile and dominated by both
        # level-4 profiles, scored between them
        crit, refs = hotel["criteria"], hotel["refs"]
        from electre_score.credibility import dominates

        new_profile = (15000.0, 3150.0, 3.0, 2.0, 2.0)
        assert dominates(crit, new_profile, refs.sets[2].profiles[0])
        for prof in refs.sets[3].profiles:
            assert dominates(crit, prof, new_profile)
        before = check_separability(refs, crit, 0.65)
        edited = apply_edit(refs, InsertSet(40.0, (new_profile,)))
        after = check_separability(edited, crit, 0.65)
        held = {
            pair for pair, f in before.items()
            if f.soft_dominance_primal and f.soft_dominance_dual
        }
        # map old level indices to new ones (insert lands at position 3)
        def shift(k):
            return k if k < 3 else k + 1

        for lo, hi in held:
            flags = after[(shift(lo), shift(hi))]
            assert flags.soft_dominance_primal and flags.soft_dominance_dual


def _single_criterion_chain():
    from electre_score.model import (
        Criterion, Direction, PerformanceTable, ThresholdSpec,
    )

    crit = (Criterion("g", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0)),)
    refs = ReferenceStructure((
        ReferenceSet(10.0, ((0.0,),)),
        ReferenceSet(20.0, ((10.0,),)),
        ReferenceSet(30.0, ((20.0,),)),
        ReferenceSet(40.0, ((30.0,),)),
    ))
    return crit, refs


class TestStabilityHandCases:
    # expectations below are derived by hand from the single-criterion
    # credibilities (full weight beyond p, zero against), not recomputed
    # with the engine

    def test_insert_set_becomes_new_upper_bound(self):
        crit, refs = _single_criterion_chain()
        action = {"a": (15.0,)}
        # a beats 0 and 10 beyond p, loses to 20 and 30: bounds (20, 30).
        # The inserted profile 17 outranks a (17-15 = 2 = p counts fully)
        # while a's fraction back is zero, so the new set is strictly
        # preferred and sits inside the old range: new upper = 25
        edit = InsertSet(25.0, ((17.0,),))
        report = check_stability(Trial(crit, refs, 0.75, action), [edit])
        assert report.trials == 1
        assert report.failures == ()
        edited = apply_edit(refs, edit)
        assert bounds((15.0,), edited, crit, 0.75) == ((20.0, 1), (25.0, 2))

    def test_insert_profile_at_lower_bound_level_pushes_bound_down(self):
        crit, refs = _single_criterion_chain()
        action = {"a": (15.0,)}
        # inserting 17 into the x=20 set: 17 is strictly preferred to a,
        # and the level turns incomparable for a, so the lower bound
        # drops to 10; the upper bound stays 30 because a still beats the
        # existing profile 10 of that set (the move-down condition for
        # the upper bound requires that no such profile remains)
        edit = InsertProfile(1, (17.0,))
        report = check_stability(Trial(crit, refs, 0.75, action), [edit])
        assert report.trials == 1
        assert report.failures == ()
        edited = apply_edit(refs, edit)
        assert bounds((15.0,), edited, crit, 0.75) == ((10.0, 0), (30.0, 2))

    def test_delete_profile_moves_lower_bound_up(self):
        # three criteria, weights (2,1,1), constant q=1, p=2; the x=30
        # set holds P=(20,20,0) and Q=(13,27,3), which are mutually
        # incomparable (each wins half the weight beyond p). For
        # a=(15,15,3): credibility(a,Q)=0.75 and back 0.5, so a beats Q;
        # P beats a (0.75 against 0.25). The level is incomparable, so
        # the bounds are (20, 40). Deleting P leaves only Q, which a
        # beats: the lower bound climbs one level to 30.
        from electre_score.model import (
            Criterion, Direction, PerformanceTable, ThresholdSpec,
        )

        crit = tuple(
            Criterion(f"g{j}", Direction.MAX, w, ThresholdSpec(1.0), ThresholdSpec(2.0))
            for j, w in enumerate((2.0, 1.0, 1.0), start=1)
        )
        refs = ReferenceStructure((
            ReferenceSet(10.0, ((0.0, 0.0, 0.0),)),
            ReferenceSet(20.0, ((10.0, 10.0, 0.0),)),
            ReferenceSet(30.0, ((20.0, 20.0, 0.0), (13.0, 27.0, 3.0))),
            ReferenceSet(40.0, ((30.0, 30.0, 6.0),)),
        ))
        a = (15.0, 15.0, 3.0)
        lam = 0.7
        assert bounds(a, refs, crit, lam) == ((20.0, 1), (40.0, 3))

        edit = DeleteProfile(2, 0)
        report = check_stability(Trial(crit, refs, lam, {"a": a}), [edit])
        assert report.trials == 1
        assert report.failures == ()
        edited = apply_edit(refs, edit)
        assert bounds(a, edited, crit, lam) == ((30.0, 2), (40.0, 3))


def _reference_and_rule(edit, at, relations, rows, x, r, t, added):
    """(reference, rule): each the predicted bounds and edited relations."""
    lower, upper, out = stability_reference.AFTER_EDIT[type(edit)](
        edit, at, relations, rows, x, r, t, added)
    row, edited = props._edited(edit, at, relations, rows, added)
    return (lower, upper, out), (*props._predicted(edit, at, row, x, r, t), edited)


_AP, _SP = SetClassification.ACTION_PREFERRED, SetClassification.SET_PREFERRED
_IN, _INC = SetClassification.INDIFFERENT, SetClassification.INCOMPARABLE


def _random_row(rng, size, low=True):
    """Relations to ``size`` profiles, mostly action-preferred on a low
    level and set-preferred on a high one, so most actions have bounds."""
    return tuple(rng.choice((_AP, _AP, _IN, _INC, _SP) if low else (_SP, _SP, _IN, _INC, _AP))
                 for _ in range(size))


class TestStabilityReference:
    """The one-rule prediction equals the literal per-edit case analysis
    of ``tests/stability_reference.py``."""

    @pytest.mark.parametrize("veto", [False, True], ids=["no-veto", "veto"])
    @pytest.mark.parametrize("strong", [True, False], ids=["strong", "free"])
    def test_generated_trials(self, strong, veto):
        compared = moved = 0
        for i, lam in enumerate(LAMBDA_GRID):
            seed = 500 + i
            inst = generate_instance(seed, GeneratorConfig(
                n_levels=5, n_actions=8, veto=veto, strong_dominance=strong))
            trial = Trial(inst.criteria, inst.refs, lam, inst.table.rows)
            x = inst.refs.scores
            for edit in make_edits(inst, random.Random(seed), count=8):
                at = props._edited_level(inst.refs, edit)
                inserted = (edit.profiles if isinstance(edit, InsertSet)
                            else (edit.profile,) if isinstance(edit, InsertProfile) else ())
                for name, relations in trial.relations.items():
                    lo, hi = scan_bounds(relations, x)
                    if lo is None or hi is None:
                        continue
                    added = tuple(refsets.profile_relations(
                        trial.kernel, trial.actions[name], inserted, lam))
                    reference, rule = _reference_and_rule(
                        edit, at, relations, trial.rows[name], x, lo[1], hi[1], added)
                    assert rule == reference, (seed, lam, name, edit)
                    compared += 1
                    moved += reference[:2] != (lo[0], hi[0])
        assert compared > 300 and moved > 30

    def test_random_relation_rows(self):
        rng = random.Random(34)
        compared = moved = 0
        for _ in range(5000):
            n = rng.randint(2, 7)
            x = tuple(10.0 * k for k in range(n))
            cut = rng.randint(1, n - 1)
            rows = tuple(_random_row(rng, rng.randint(1, 4), k < cut) for k in range(n))
            relations = tuple(map(refsets.classify_relations, rows))
            lo, hi = scan_bounds(relations, x)
            if lo is None or hi is None:
                continue
            at = rng.randrange(n)
            edits = [
                (InsertProfile(at, ()), at, _random_row(rng, 1, rng.random() < 0.5)),
                # an inserted set's score sits just below level `at`, or above the top
                (InsertSet(x[at] - 5.0, ()), at, _random_row(rng, rng.randint(1, 3), at <= cut)),
                (InsertSet(x[-1] + 5.0, ()), n, _random_row(rng, rng.randint(1, 3), False)),
            ]
            if n > 2:
                edits.append((DeleteSet(at), at, ()))
            if len(rows[at]) > 1:
                edits.append((DeleteProfile(at, rng.randrange(len(rows[at]))), at, ()))
            for edit, level, added in edits:
                reference, rule = _reference_and_rule(
                    edit, level, relations, rows, x, lo[1], hi[1], added)
                assert rule == reference, (rows, edit, added)
                compared += 1
                moved += reference[:2] != (lo[0], hi[0])
        assert compared > 6000 and moved > 1000
