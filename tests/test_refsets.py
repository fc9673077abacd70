import itertools
import math
import random

import pytest

from electre_score.credibility import compile_criteria, dominates
from electre_score.properties import GeneratorConfig, apply_edit, generate_instance, make_edits
from electre_score.refsets import (
    ProfileTable,
    SetClassification,
    check_comparability,
    check_separability,
    classify_action_vs_levels,
    classify_relations,
    derived_relation,
    soft_dominance,
    validate_basic_assumptions,
)

import band_reference
from criterion_reference import credibility
from oracle import HOTEL_ORACLE_CRITERIA, classify_oracle

AP = SetClassification.ACTION_PREFERRED
BP = SetClassification.SET_PREFERRED
IND = SetClassification.INDIFFERENT
INC = SetClassification.INCOMPARABLE


def set_relations(relations) -> set[str]:
    """The six set relations that hold, from their definitions.

    a S B: some profile b has a S b (a preferred or indifferent) and no
    profile is preferred to a; B S a symmetrically; P is S one way only,
    I is S both ways, and R is S neither way.
    """
    rels = set(relations)
    a_s = bool(rels & {AP, IND}) and BP not in rels
    b_s = bool(rels & {BP, IND}) and AP not in rels
    return {
        name for name, holds in (
            ("a S B", a_s), ("B S a", b_s),
            ("a P B", a_s and not b_s), ("B P a", b_s and not a_s),
            ("a I B", a_s and b_s), ("a R B", not (a_s or b_s)),
        ) if holds
    }


# the four-row mapping the refsets module docstring states
SIX = {
    SetClassification.ACTION_PREFERRED: {"a S B", "a P B"},
    SetClassification.SET_PREFERRED: {"B S a", "B P a"},
    SetClassification.INDIFFERENT: {"a S B", "B S a", "a I B"},
    SetClassification.INCOMPARABLE: {"a R B"},
}


class TestClassifyRelations:
    def test_case_analysis_over_all_multisets(self):
        # exhaustive over multisets of size <= 3
        for size in (1, 2, 3):
            for combo in itertools.product((AP, BP, IND, INC), repeat=size):
                rel = classify_relations(combo)
                n_ap = combo.count(AP)
                n_bp = combo.count(BP)
                n_i = combo.count(IND)
                if n_ap and n_bp:
                    assert rel is SetClassification.INCOMPARABLE
                elif n_ap:
                    assert rel is SetClassification.ACTION_PREFERRED
                elif n_bp:
                    assert rel is SetClassification.SET_PREFERRED
                elif n_i:
                    assert rel is SetClassification.INDIFFERENT
                else:
                    assert rel is SetClassification.INCOMPARABLE
                # the classification gives exactly the set relations that hold
                assert SIX[rel] == set_relations(combo), combo

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_relations([])

    @pytest.mark.parametrize("relation", list(SetClassification), ids=lambda r: r.value)
    def test_one_relation_type(self, relation):
        # derived_relation gives each member, and a one-profile set has its
        # profile's relation
        directions = [(sab, sba) for sab in (0.6, 0.8) for sba in (0.6, 0.8)]
        assert relation in [derived_relation(*d, 0.7) for d in directions]
        assert classify_relations([relation]) is relation


class TestClassifyActionVsSet:
    def test_hotel_action_vs_levels(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        refs = hotel["refs"]
        a1 = hotel_vectors["a1"]
        at_065 = classify_action_vs_levels(a1, refs, crit, 0.65)
        assert at_065[2] is SetClassification.ACTION_PREFERRED
        assert at_065[5] is SetClassification.SET_PREFERRED
        # both level-4 profiles outrank a1 back at 0.70 (13/18 and 103/108)
        level4 = classify_action_vs_levels(a1, refs, crit, 0.70)[3]
        assert level4 is SetClassification.INDIFFERENT

    def test_matches_oracle_on_hotel(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        refs = hotel["refs"]
        for lam in (0.55, 0.65, 0.72, 0.9):
            for action in hotel["table"].actions:
                levels = classify_action_vs_levels(hotel_vectors[action], refs, crit, lam)
                for k, (ref, got) in enumerate(zip(refs.sets, levels)):
                    want = classify_oracle(
                        HOTEL_ORACLE_CRITERIA, hotel_vectors[action], ref.profiles, lam
                    )
                    assert got.value == want, (action, k, lam)


class TestProfileLevels:
    @pytest.mark.parametrize("seed", range(6))
    def test_table_row_matches_profile_scored_as_action(self, seed):
        # the table holds sigma = 1.0 on its diagonal, which is what the
        # kernel gives for a vector against itself; each band end is a
        # stored credibility, so sigma == lam holds exactly for some pair
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=rng.randint(1, 5), n_levels=rng.randint(2, 5),
            max_profiles_per_level=3, n_actions=0,
            threshold_mode=rng.choice(("constant", "variable")),
            veto=rng.random() < 0.5, strong_dominance=False,
        ))
        lam = rng.choice((0.55, 0.7, 0.9, 1.0))
        table = ProfileTable(compile_criteria(inst.criteria), inst.refs)
        for u in [lam, *table.breakpoints()]:
            for k, ref in enumerate(inst.refs.sets):
                for p, vec in enumerate(ref.profiles):
                    assert list(table.profile_levels(k, p, u)) == classify_action_vs_levels(
                        vec, inst.refs, inst.criteria, u), (u, k, p)


class TestProfileTableOrder:
    # the kernel is called within each level, then each lower level against
    # each higher level, so a threshold error surfaces at the same pair as
    # in a pairwise scan

    @staticmethod
    def _structure(levels, q_slope=0.0):
        # MAX criteria g1, g2, ...; with a slope, q = 1 + q_slope * w and
        # p = 2 + q_slope * w at the worse value w of a pair
        from electre_score.model import (
            Criterion, Direction, ReferenceSet, ReferenceStructure, ThresholdMode, ThresholdSpec,
        )

        mode = ThresholdMode.DIRECT if q_slope else ThresholdMode.CONSTANT
        crit = tuple(
            Criterion(f"g{c + 1}", Direction.MAX, 1.0, ThresholdSpec(1.0, q_slope, mode),
                      ThresholdSpec(2.0, q_slope, mode))
            for c in range(len(levels[0][0]))
        )
        refs = ReferenceStructure(tuple(
            ReferenceSet(float(k), tuple(level)) for k, level in enumerate(levels)
        ))
        return crit, refs

    def test_kernel_call_sequence(self, monkeypatch):
        import electre_score.refsets as refsets

        calls = []
        real = refsets.sigma_pair

        def spy(kernel, a, b):
            calls.append((a[0], b[0]))
            return real(kernel, a, b)

        monkeypatch.setattr(refsets, "sigma_pair", spy)
        crit, refs = self._structure((((1.0,), (2.0,)), ((3.0,), (4.0,), (5.0,)),
                                      ((6.0,), (7.0,))))
        ProfileTable(compile_criteria(crit), refs)
        assert calls == [
            (1.0, 2.0), (3.0, 4.0), (3.0, 5.0), (4.0, 5.0), (6.0, 7.0),
            (1.0, 3.0), (1.0, 4.0), (1.0, 5.0), (2.0, 3.0), (2.0, 4.0), (2.0, 5.0),
            (1.0, 6.0), (1.0, 7.0), (2.0, 6.0), (2.0, 7.0),
            (3.0, 6.0), (3.0, 7.0), (4.0, 6.0), (4.0, 7.0), (5.0, 6.0), (5.0, 7.0),
        ]

    def test_threshold_error_names_first_pair_of_a_pairwise_scan(self):
        from electre_score.credibility import NegativeThresholdError

        # q < 0 on a criterion exactly where the worse value of a pair
        # exceeds 10. No pair within a level raises. Across levels 0 and 1,
        # (11, 0) against (12, 0) raises on g1 and (0, 11) against (0, 12)
        # on g2, and pairs with level 2 raise on g1 or g2 too; the scan
        # meets the g1 pair first
        crit, refs = self._structure((
            ((11.0, 0.0), (0.0, 11.0)),
            ((0.0, 12.0), (12.0, 0.0)),
            ((13.0, 13.0),),
        ), q_slope=-0.1)
        with pytest.raises(NegativeThresholdError,
                           match=r"^criterion g1: .* for pair \(11\.0, 12\.0\)$"):
            ProfileTable(compile_criteria(crit), refs)


class TestBasicAssumptions:
    def test_hotel_clean_in_band(self, hotel):
        assert validate_basic_assumptions(hotel["refs"], hotel["criteria"], 0.65) == []
        assert validate_basic_assumptions(hotel["refs"], hotel["criteria"], 0.70) == []

    def test_hotel_within_set_preference_at_high_lambda(self, hotel):
        # sigma(b61,b62) = 15/18 and sigma(b62,b61) = 14/18: strictly
        # preferred for lambda in ]14/18, 15/18]
        violations = validate_basic_assumptions(hotel["refs"], hotel["criteria"], 0.8)
        assert any("b61 > b62" in v for v in violations)

    def test_dominance_chain_is_clean(self):
        inst = generate_instance(5, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=1, n_actions=0))
        assert validate_basic_assumptions(inst.refs, inst.criteria, 0.75) == []

    def test_duplicate_profile_across_sets_not_flagged(self, hotel):
        # identical vectors are indifferent, not strictly preferred, so a
        # profile duplicated into the set above produces no violation
        from electre_score.model import ReferenceSet, ReferenceStructure

        dup = hotel["refs"].sets[0].profiles[0]
        refs = ReferenceStructure((
            ReferenceSet(0.0, (dup,)),
            ReferenceSet(1.0, (dup,)),
        ))
        violations = validate_basic_assumptions(refs, hotel["criteria"], 0.65)
        assert violations == []

    def test_reversed_chain_flagged(self):
        inst = generate_instance(6, GeneratorConfig(
            n_criteria=3, n_levels=3, max_profiles_per_level=1, n_actions=0))
        from electre_score.model import ReferenceSet, ReferenceStructure

        reversed_refs = ReferenceStructure(tuple(
            ReferenceSet(score, s.profiles)
            for score, s in zip(
                [s.score for s in inst.refs.sets], reversed(inst.refs.sets)
            )
        ))
        violations = validate_basic_assumptions(reversed_refs, inst.criteria, 0.75)
        assert any("lower-set profile preferred" in v for v in violations)


class TestSeparability:
    def test_hotel_soft_dominance_fails_exactly_at_pair_2_3(self, hotel):
        pairs = check_separability(hotel["refs"], hotel["criteria"], 0.65)
        failing = {
            pair
            for pair, flags in pairs.items()
            if not flags.soft_dominance_primal
        }
        # profile at level 3 has IMAGE 1, below both level-2 profiles
        assert failing == {(1, 2)}
        assert not pairs[(1, 2)].soft_dominance_dual
        assert not any(soft_dominance(hotel["criteria"], hotel["refs"]))

    def test_hotel_other_pairs_strongly_dominated(self, hotel):
        pairs = check_separability(hotel["refs"], hotel["criteria"], 0.65)
        for pair, flags in pairs.items():
            if pair != (1, 2):
                assert flags.soft_dominance_primal and flags.soft_dominance_dual, pair

    def test_two_singleton_sets_dominating(self):
        inst = generate_instance(7, GeneratorConfig(
            n_criteria=2, n_levels=2, max_profiles_per_level=1, n_actions=0))
        flags = check_separability(inst.refs, inst.criteria, 0.75)[(0, 1)]
        assert flags.strong_dominance
        assert flags.soft_dominance_primal and flags.soft_dominance_dual
        assert flags.strong_preference
        assert flags.soft_preference_primal and flags.soft_preference_dual

    def test_reversed_scores_kill_dominance_flags(self):
        from electre_score.model import ReferenceSet, ReferenceStructure

        inst = generate_instance(8, GeneratorConfig(
            n_criteria=2, n_levels=2, max_profiles_per_level=1, n_actions=0))
        reversed_refs = ReferenceStructure((
            ReferenceSet(0.0, inst.refs.sets[1].profiles),
            ReferenceSet(1.0, inst.refs.sets[0].profiles),
        ))
        flags = check_separability(reversed_refs, inst.criteria, 0.75)[(0, 1)]
        assert not flags.strong_dominance
        assert not flags.soft_dominance_primal
        assert not flags.soft_dominance_dual

    def test_preference_flags_at_every_band_end(self):
        # each band end is a stored credibility, so the cut meets a tie there
        seen = set()
        for seed in range(8):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=3, n_levels=4, max_profiles_per_level=3, n_actions=0,
                strong_dominance=False, veto=seed % 2 == 1,
                threshold_mode=("constant", "variable")[seed // 2 % 2],
            ))
            crit, sets = inst.criteria, inst.refs.sets
            table = ProfileTable(compile_criteria(crit), inst.refs)
            for u in table.breakpoints():
                for (lo, hi), flags in table.separability(u).items():
                    # the higher level's profile (column) preferred to the lower's (row)
                    pref = [[band_reference.mark(credibility(crit, up, down),
                                                 credibility(crit, down, up), u) == "a"
                             for up in sets[hi].profiles] for down in sets[lo].profiles]
                    expected = (all(map(all, pref)), all(map(any, pref)),
                                all(map(any, zip(*pref))))
                    got = (flags.strong_preference, flags.soft_preference_primal,
                           flags.soft_preference_dual)
                    assert got == expected, (seed, u, lo, hi)
                    seen.update(enumerate(got))
        # every flag is seen both held and failed
        assert len(seen) == 6, seen

    def test_strong_implies_soft(self):
        for seed in range(6):
            inst = generate_instance(seed, GeneratorConfig(n_actions=0))
            pairs = check_separability(inst.refs, inst.criteria, 0.8)
            for flags in pairs.values():
                if flags.strong_dominance:
                    assert flags.soft_dominance_primal and flags.soft_dominance_dual
                if flags.strong_preference:
                    assert flags.soft_preference_primal and flags.soft_preference_dual


def all_pairs(pairs, hypothesis):
    """(primal, dual) of ``hypothesis`` over every level pair of the
    per-pair flags, taken here rather than in the package."""
    return tuple(
        all(getattr(flags, f"{hypothesis}_{side}") for flags in pairs.values())
        for side in ("primal", "dual")
    )


class TestSoftDominance:
    # soft_dominance compares adjacent levels only; the separability
    # table compares every level pair, so agreement pins the
    # transitivity argument on structures where the flags vary

    @staticmethod
    def _free_instances():
        for seed in range(60):
            rng = random.Random(seed)
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=rng.randint(1, 4), n_levels=rng.randint(2, 5),
                max_profiles_per_level=rng.randint(1, 3), n_actions=0,
                strong_dominance=False))
            edited = [apply_edit(inst.refs, e)
                      for e in make_edits(inst, random.Random(seed), count=8)]
            yield inst.criteria, inst.refs, edited

    def test_equals_separability_flags(self):
        seen = set()
        for criteria, refs, _ in self._free_instances():
            sep = ProfileTable(compile_criteria(criteria), refs).separability(0.75)
            flags = soft_dominance(criteria, refs)
            assert flags == all_pairs(sep, "soft_dominance")
            seen.update(enumerate(flags))
        # each flag occurs both true and false
        assert seen == {(0, True), (0, False), (1, True), (1, False)}

    def test_equals_separability_flags_after_every_edit(self):
        for criteria, _, edited in self._free_instances():
            for refs in edited:
                sep = ProfileTable(compile_criteria(criteria), refs).separability(0.75)
                assert soft_dominance(criteria, refs) == all_pairs(sep, "soft_dominance")

    def test_hotel_fails_both_ways(self, hotel):
        # the level-3 profile has IMAGE 1, below both level-2 profiles
        assert soft_dominance(hotel["criteria"], hotel["refs"]) == (False, False)

    def test_nan_coordinate_breaks_no_chain(self):
        # a NaN difference is never at least as good, so the NaN middle
        # level dominates nothing and nothing dominates it; read as a tie,
        # it made both adjacent pairs hold although the top does not
        # dominate the bottom
        from electre_score.model import (
            Criterion,
            Direction,
            ReferenceSet,
            ReferenceStructure,
            ThresholdSpec,
        )

        crit = tuple(Criterion(f"g{j}", Direction.MAX, 1.0, ThresholdSpec(1.0),
                               ThresholdSpec(2.0)) for j in (1, 2))
        bottom, middle, top = (5.0, 0.0), (math.nan, 1.0), (0.0, 2.0)
        refs = ReferenceStructure(tuple(
            ReferenceSet(10.0 * k, (vec,)) for k, vec in enumerate((bottom, middle, top), 1)
        ))
        assert not dominates(crit, middle, bottom) and not dominates(crit, top, middle)
        assert not dominates(crit, top, bottom)
        assert soft_dominance(crit, refs) == (False, False)
        sep = ProfileTable(compile_criteria(crit), refs).separability(0.75)
        assert all_pairs(sep, "soft_dominance") == (False, False)


class TestSoftPreference:
    # soft_preference folds every level pair of the table itself, so it
    # must equal the per-pair flags' conjunction at every cutting level

    def test_equals_separability_flags(self):
        seen = set()
        for criteria, refs, edited in TestSoftDominance._free_instances():
            for structure in (refs, *edited):
                table = ProfileTable(compile_criteria(criteria), structure)
                for lam in (0.55, 0.75, 0.95):
                    flags = table.soft_preference(lam)
                    assert flags == all_pairs(table.separability(lam), "soft_preference")
                    seen.update(enumerate(flags))
        # each flag occurs both true and false
        assert seen == {(0, True), (0, False), (1, True), (1, False)}

    def test_preference_is_not_transitive(self):
        # each level gains 20 on g1 and loses 4 on g2 (p = 10): one step
        # is strict preference, two steps are not, so unlike dominance no
        # chain of adjacent witnesses stands in for the outer pair
        from electre_score.model import (
            Criterion, Direction, ReferenceSet, ReferenceStructure, ThresholdSpec,
        )

        criteria = [Criterion(name, Direction.MAX, 1.0, ThresholdSpec(0.0), ThresholdSpec(10.0))
                    for name in ("g1", "g2")]
        refs = ReferenceStructure(tuple(
            ReferenceSet(float(k), ((20.0 * k, -4.0 * k),)) for k in range(3)
        ))
        table = ProfileTable(compile_criteria(criteria), refs)
        pairs = table.separability(0.75)
        assert [pairs[pair].soft_preference_primal for pair in ((0, 1), (1, 2), (0, 2))] == [
            True, True, False]
        assert table.soft_preference(0.75) == all_pairs(pairs, "soft_preference") == (
            False, False)


class TestComparability:
    def test_hotel_all_comparable(self, hotel):
        result = check_comparability(
            hotel["table"], hotel["refs"], hotel["criteria"], 0.65
        )
        assert result == {a: True for a in hotel["table"].actions}

    def test_top_profile_clone_fails(self, hotel, hotel_vectors):
        from electre_score.model import PerformanceTable

        table = PerformanceTable.from_rows(
            hotel["criteria"], {"clone": hotel_vectors["b71"]}
        )
        result = check_comparability(table, hotel["refs"], hotel["criteria"], 0.65)
        assert result == {"clone": False}

    def test_action_dominating_everything_fails(self, hotel):
        from electre_score.model import PerformanceTable

        table = PerformanceTable.from_rows(
            hotel["criteria"], {"super": (9000, 1500, 7, 7, 7)}
        )
        result = check_comparability(table, hotel["refs"], hotel["criteria"], 0.65)
        assert result == {"super": False}


class TestSetRelationImplications:
    @pytest.mark.parametrize("seed", range(8))
    def test_flags_on_random_collections(self, seed):
        # the six set relations ("flags") that hold, from per-profile
        # relations of the per-criterion reference, are those the action's
        # classification maps to
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=rng.randint(1, 5),
            n_levels=rng.randint(2, 5),
            max_profiles_per_level=rng.randint(1, 3),
            n_actions=5,
            strong_dominance=False,
        ))
        lam = rng.choice((0.55, 0.7, 0.9))
        crit = inst.criteria
        for vec in inst.table.rows.values():
            levels = classify_action_vs_levels(vec, inst.refs, crit, lam)
            for ref, rel in zip(inst.refs.sets, levels):
                relations = [
                    derived_relation(credibility(crit, vec, prof),
                                     credibility(crit, prof, vec), lam)
                    for prof in ref.profiles
                ]
                assert SIX[rel] == set_relations(relations)

    @pytest.mark.parametrize("seed", range(6))
    def test_dominating_perturbation_keeps_strict_preference(self, seed):
        # if a' dominates a and a beats a set, a' beats it too
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=3, n_levels=3, n_actions=4, strong_dominance=False))
        from electre_score.model import Direction

        lam = 0.7
        for action in inst.table.actions:
            vec = inst.table.vector(action)
            better = tuple(
                v + rng.uniform(0.0, 1.0) * (1 if c.direction is Direction.MAX else -1)
                for v, c in zip(vec, inst.criteria)
            )
            levels = classify_action_vs_levels(vec, inst.refs, inst.criteria, lam)
            better_levels = classify_action_vs_levels(better, inst.refs, inst.criteria, lam)
            for rel, rel2 in zip(levels, better_levels):
                if rel is SetClassification.ACTION_PREFERRED:
                    assert rel2 is SetClassification.ACTION_PREFERRED
