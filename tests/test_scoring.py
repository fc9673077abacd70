import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from electre_score.model import (
    DeckOfCards,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    deck_of_cards_scores,
)
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.refsets import SetClassification, classify_action_vs_levels
from electre_score.scoring import (
    BasicAssumptionsViolatedError,
    _range_findings,
    scan_bounds,
    score_ranges,
)
from electre_score.suites import LAMBDA_GRID

from oracle import HOTEL_ORACLE_CRITERIA, bounds_oracle, scan_oracle

THIRD = 100.0 / 3.0


def bounds(vec, refs, crit, lam):
    """(lower, upper) as (score, level) pairs, None where a bound is missing."""
    return scan_bounds(classify_action_vs_levels(vec, refs, crit, lam), refs.scores)


class TestDeckOfCards:
    def test_unit_value(self, hotel_deck):
        # 12 units between the anchors: (1+1)+(2+1)+(0+1)+(1+1)+(0+1)+(2+1);
        # no blank card between levels 3 and 4 makes that step one unit
        scores = deck_of_cards_scores(hotel_deck)
        assert scores[3] - scores[2] == pytest.approx(100.0 / 12.0, abs=1e-6)

    def test_cumulative_scores(self, hotel_deck):
        scores = deck_of_cards_scores(hotel_deck)
        expected = [0.0, 2 * 100 / 12, 5 * 100 / 12, 50.0, 8 * 100 / 12, 75.0, 100.0]
        assert scores == pytest.approx(expected, abs=1e-4)

    def test_elicited_hotel_scores_are_not_formula_consistent(self, hotel, hotel_deck):
        # the recorded blank cards do not reproduce the elicited list:
        # the formula gives (0, 16.67, 41.67, 50, 66.67, 75, 100) while the
        # elicited list is (0, 25, 33.33, 50, 58.33, 83.33, 100)
        computed = deck_of_cards_scores(hotel_deck)
        assert any(
            abs(c - s) > 1e-4 for c, s in zip(computed, hotel["refs"].scores)
        )

    def test_two_levels_span_scale(self):
        deck = DeckOfCards((0,), (0.0, 100.0))
        assert deck_of_cards_scores(deck) == [0.0, 100.0]

    def test_top_anchor_exact(self):
        deck = DeckOfCards((2, 0, 5, 1), (10.0, 17.0))
        scores = deck_of_cards_scores(deck)
        assert scores[0] == 10.0
        assert scores[-1] == 17.0
        assert all(a < b for a, b in zip(scores, scores[1:]))

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=200),
    )
    def test_anchors_and_monotonicity(self, blanks, low, span):
        deck = DeckOfCards(tuple(blanks), (float(low), float(low + span)))
        scores = deck_of_cards_scores(deck)
        assert scores[0] == float(low)
        assert scores[-1] == float(low + span)
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_invalid_decks(self):
        with pytest.raises(ValueError):
            DeckOfCards((), (0.0, 100.0))
        with pytest.raises(ValueError):
            DeckOfCards((-1,), (0.0, 100.0))
        with pytest.raises(ValueError):
            DeckOfCards((1,), (100.0, 100.0))


class TestHotelBounds:
    def test_bounds_at_065(self, hotel, hotel_vectors):
        crit, refs = hotel["criteria"], hotel["refs"]
        assert bounds(hotel_vectors["a1"], refs, crit, 0.65) == ((THIRD, 2), (250 / 3, 5))
        assert bounds(hotel_vectors["a2"], refs, crit, 0.65)[0] == (50.0, 3)
        assert bounds(hotel_vectors["a4"], refs, crit, 0.65) == ((THIRD, 2), (175 / 3, 4))
        assert bounds(hotel_vectors["a5"], refs, crit, 0.65)[1] == (175 / 3, 4)

    def test_bottom_profile_has_no_lower_bound(self, hotel, hotel_vectors):
        lower, _ = bounds(hotel_vectors["b11"], hotel["refs"], hotel["criteria"], 0.65)
        assert lower is None

    def test_top_profile_has_no_upper_bound(self, hotel, hotel_vectors):
        _, upper = bounds(hotel_vectors["b71"], hotel["refs"], hotel["criteria"], 0.65)
        assert upper is None

    @pytest.mark.parametrize("lam", [0.55, 0.62, 0.65, 0.70, 0.715, 0.75, 0.9])
    def test_bounds_match_literal_definition_oracle(self, hotel, hotel_vectors, lam):
        crit, refs = hotel["criteria"], hotel["refs"]
        levels = [s.profiles for s in refs.sets]
        for action in hotel["table"].actions:
            want = bounds_oracle(
                HOTEL_ORACLE_CRITERIA, hotel_vectors[action], levels, refs.scores, lam
            )
            got = bounds(hotel_vectors[action], refs, crit, lam)
            assert tuple(b and b[0] for b in got) == want, (action, lam)


class TestScoreRanges:
    def test_hotel_ranges_at_065(self, hotel):
        result = score_ranges(hotel["table"], hotel["refs"], hotel["criteria"], 0.65)
        ranges = {r.action: r for r in result.ranges}
        assert not result.used_fast_path  # soft dominance fails at one pair
        assert (ranges["a1"].lower, ranges["a1"].upper) == (THIRD, 250 / 3)
        assert (ranges["a2"].lower, ranges["a2"].upper) == (50.0, 175 / 3)
        assert (ranges["a3"].lower, ranges["a3"].upper) == (50.0, 250 / 3)
        assert (ranges["a4"].lower, ranges["a4"].upper) == (THIRD, 175 / 3)
        assert (ranges["a5"].lower, ranges["a5"].upper) == (THIRD, 175 / 3)
        assert result.findings == ()

    def test_hotel_ranges_at_070(self, hotel):
        result = score_ranges(hotel["table"], hotel["refs"], hotel["criteria"], 0.70)
        ranges = {r.action: r for r in result.ranges}
        assert (ranges["a2"].lower, ranges["a2"].upper) == (50.0, 250 / 3)
        assert (ranges["a4"].lower, ranges["a4"].upper) == (THIRD, 250 / 3)

    def test_bounds_are_reference_scores(self, hotel):
        for lam in (0.55, 0.65, 0.75):
            result = score_ranges(
                hotel["table"], hotel["refs"], hotel["criteria"], lam, force=True
            )
            for rng in result.ranges:
                if rng.lower is not None and rng.upper is not None:
                    assert rng.lower in hotel["refs"].scores
                    assert rng.upper in hotel["refs"].scores
                    assert rng.lower < rng.upper

    def test_gate_on_basic_assumptions(self, hotel):
        # within-set preference appears above 7/9
        with pytest.raises(BasicAssumptionsViolatedError):
            score_ranges(hotel["table"], hotel["refs"], hotel["criteria"], 0.80)
        result = score_ranges(
            hotel["table"], hotel["refs"], hotel["criteria"], 0.80, force=True
        )
        assert any("basic-assumption" in f for f in result.findings)

    def test_empty_table(self, hotel):
        table = PerformanceTable(hotel["criteria"], {})
        result = score_ranges(table, hotel["refs"], hotel["criteria"], 0.65)
        assert result.ranges == ()

    def test_undefined_range_reported(self, hotel, hotel_vectors):
        table = PerformanceTable.from_rows(
            hotel["criteria"], {"clone": hotel_vectors["b11"]}
        )
        result = score_ranges(table, hotel["refs"], hotel["criteria"], 0.65)
        rng = result.ranges[0]
        assert not (rng.lower is not None and rng.upper is not None)
        assert "no lower bound" in rng.reason


class TestConformityOfGeneratedCollections:
    @pytest.mark.parametrize("seed", range(5))
    def test_profile_scored_as_action_gets_neighbour_scores(self, seed):
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=2, n_actions=0))
        refs, crit = inst.refs, inst.criteria
        for k in range(1, len(refs.sets) - 1):
            for vec in refs.sets[k].profiles:
                lo, hi = bounds(vec, refs, crit, 0.75)
                assert lo[0] == refs.scores[k - 1]
                assert hi[0] == refs.scores[k + 1]


class TestStructuralRequirements:
    @pytest.mark.parametrize("seed", range(5))
    def test_independence_under_subset_resampling(self, seed):
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=4, n_levels=4, max_profiles_per_level=2, n_actions=8))
        lam = rng.choice((0.6, 0.75, 0.9))
        result = score_ranges(inst.table, inst.refs, inst.criteria, lam)
        full = {r.action: r for r in result.ranges}
        actions = list(inst.table.actions)
        keep = rng.sample(actions, k=max(1, len(actions) // 2))
        sub_table = PerformanceTable.from_rows(
            inst.criteria, {a: inst.table.vector(a) for a in keep}
        )
        result = score_ranges(sub_table, inst.refs, inst.criteria, lam)
        sub = {r.action: r for r in result.ranges}
        for a in keep:
            assert (sub[a].lower, sub[a].upper) == (full[a].lower, full[a].upper)

    @pytest.mark.parametrize("seed", range(12))
    def test_independence_of_actions(self, seed):
        # adding, removing or reordering other actions never changes an
        # action's range: each action is scored against the reference
        # sets alone
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=rng.randint(1, 5), n_levels=rng.randint(2, 6),
            max_profiles_per_level=rng.randint(1, 3), n_actions=8,
            threshold_mode=rng.choice(("constant", "variable")),
            veto=rng.random() < 0.5, strong_dominance=rng.random() < 0.5,
        ))
        lam = rng.choice((0.55, 0.65, 0.75, 0.85, 0.95, 1.0))
        rows = {a: inst.table.vector(a) for a in inst.table.actions}

        def ranges(table_rows):
            table = PerformanceTable.from_rows(inst.criteria, table_rows)
            result = score_ranges(table, inst.refs, inst.criteria, lam, force=True)
            return {r.action: r for r in result.ranges}

        full = ranges(rows)
        names = list(rows)
        rng.shuffle(names)
        others = {f"x{k}": ref.profiles[0] for k, ref in enumerate(inst.refs.sets)}
        variants = [
            {a: rows[a] for a in names},  # reordered
            {a: rows[a] for a in names[: len(names) // 2]},  # others removed
            {**others, **{a: rows[a] for a in names[:3]}},  # others added
        ]
        for variant in variants:
            for action, got in ranges(variant).items():
                if action in full:
                    assert got == full[action], (seed, action)

    @staticmethod
    def _assert_permutation_invariant(table, refs, criteria, perm, lams):
        """Permute the criteria, every action row and every profile alike;
        a row is in criteria order, so the scoring must not change."""
        p_criteria = tuple(criteria[j] for j in perm)
        p_table = PerformanceTable(p_criteria, {
            a: tuple(vec[j] for j in perm) for a, vec in table.rows.items()
        })
        p_refs = ReferenceStructure(tuple(
            ReferenceSet(ref.score, tuple(tuple(p[j] for j in perm) for p in ref.profiles),
                         ref.names)
            for ref in refs.sets
        ))
        fast = set()
        for lam in lams:
            want = score_ranges(table, refs, criteria, lam, force=True)
            got = score_ranges(p_table, p_refs, p_criteria, lam, force=True)
            case = (perm, lam)
            assert got.ranges == want.ranges, case
            assert got.relations == want.relations, case
            assert got.findings == want.findings, case
            assert got.used_fast_path == want.used_fast_path, case
            fast.add(want.used_fast_path)
        return fast

    @pytest.mark.parametrize("mode", ["constant", "variable"])
    @pytest.mark.parametrize("veto", [False, True])
    @pytest.mark.parametrize("strong", [False, True])
    def test_criterion_permutation(self, mode, veto, strong):
        fast = set()
        for seed in range(8):
            rng = random.Random(seed)
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=rng.randint(2, 6), n_levels=rng.randint(2, 6),
                max_profiles_per_level=rng.randint(1, 3), n_actions=6,
                threshold_mode=mode, veto=veto, strong_dominance=strong,
            ))
            perm = list(range(len(inst.criteria)))
            while perm == sorted(perm):
                rng.shuffle(perm)
            fast |= self._assert_permutation_invariant(
                inst.table, inst.refs, inst.criteria, perm, LAMBDA_GRID)
        # the pinned draws reach both scans unless strong dominance forces the fast one
        assert fast == ({True} if strong else {True, False})

    def test_criterion_permutation_hotel(self, hotel):
        # variable thresholds, no fast path, and basic-assumption findings from 0.8 up
        n = len(hotel["criteria"])
        for perm in (list(reversed(range(n))), [2, 0, 4, 1, 3]):
            self._assert_permutation_invariant(
                hotel["table"], hotel["refs"], hotel["criteria"], perm, (*LAMBDA_GRID, 0.8))

    def test_homogeneity_duplicate_action(self, hotel):
        rows = {a: hotel["table"].vector(a) for a in hotel["table"].actions}
        rows["a1_copy"] = rows["a1"]
        table = PerformanceTable.from_rows(hotel["criteria"], rows)
        result = score_ranges(table, hotel["refs"], hotel["criteria"], 0.65)
        ranges = {r.action: r for r in result.ranges}
        assert (ranges["a1_copy"].lower, ranges["a1_copy"].upper) == (
            ranges["a1"].lower, ranges["a1"].upper,
        )

    # (threshold mode, vetoes, strong dominance) of each monotonicity draw
    MONOTONICITY_FLAVOURS = [
        ("constant", False, True), ("constant", True, True), ("variable", False, True),
        ("variable", True, True), ("constant", False, False), ("variable", True, False),
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_monotonicity_under_dominating_perturbation(self, seed):
        # improving an action on every criterion, or on one, lowers neither
        # bound: a lower bound that goes missing fails, an upper bound that
        # goes missing does not (the action can rise above the top level);
        # free dominance needs ``force``
        rng = random.Random(seed)
        for mode, veto, strong in self.MONOTONICITY_FLAVOURS:
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=5,
                threshold_mode=mode, veto=veto, strong_dominance=strong))
            lam = rng.choice((0.6, 0.75))
            rows = {}
            for action in inst.table.actions:
                vec = inst.table.vector(action)
                shifts = [rng.uniform(0.1, 2.0) * (1 if c.direction is Direction.MAX else -1)
                          for c in inst.criteria]
                rows[action, None] = vec
                rows[action, "all"] = tuple(v + d for v, d in zip(vec, shifts))
                for j, d in enumerate(shifts):
                    rows[action, j] = tuple(v + d * (i == j) for i, v in enumerate(vec))
            table = PerformanceTable.from_rows(
                inst.criteria, {f"{a}/{how}": vec for (a, how), vec in rows.items()})
            ranges = score_ranges(table, inst.refs, inst.criteria, lam, force=not strong)
            got = {r.action: r for r in ranges.ranges}
            for action, how in rows:
                base, improved = got[f"{action}/None"], got[f"{action}/{how}"]
                case = (mode, veto, strong, lam, action, how)
                if base.lower is not None:
                    assert improved.lower is not None and improved.lower >= base.lower, case
                if base.upper is not None and improved.upper is not None:
                    assert improved.upper >= base.upper, case


class TestBoundScan:
    @given(st.lists(st.sampled_from(list(SetClassification)), min_size=1, max_size=10))
    def test_scan_is_the_literal_definition(self, relations):
        scores = [float(k) for k in range(len(relations))]
        lower, upper = scan_bounds(relations, scores)
        want = scan_oracle([r.value for r in relations], scores)
        assert tuple(b and b[0] for b in (lower, upper)) == want
        for bound in (lower, upper):
            assert bound is None or scores[bound[1]] == bound[0]
        # the conditions the scan guarantees, so no finding re-checks them
        if lower and upper:
            assert lower[1] < upper[1]
        if lower:
            assert SetClassification.SET_PREFERRED not in relations[: lower[1] + 1]
        if upper:
            assert SetClassification.ACTION_PREFERRED not in relations[upper[1]:]

    def test_strict_preference_inside_the_range_is_a_finding(self):
        ap, ind, sp = (SetClassification.ACTION_PREFERRED, SetClassification.INDIFFERENT,
                       SetClassification.SET_PREFERRED)
        assert scan_bounds([ap, ind, ap, sp], [0.0, 1.0, 2.0, 3.0]) == ((0.0, 0), (3.0, 3))
        assert _range_findings("x", [ap, ind, ap, sp], [0.0, 1.0, 2.0, 3.0], 0, 3) == [
            "x: strict preference strictly inside the range (level 3, action_preferred)"
        ]


class TestFastPathAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_fast_and_general_agree_under_soft_dominance(self, seed):
        # under both soft-dominance flags the scan's bounds are the
        # highest action-preferred and the lowest set-preferred levels
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=6))
        result = score_ranges(inst.table, inst.refs, inst.criteria, 0.75)
        assert result.used_fast_path
        for rng, relations in zip(result.ranges, result.relations):
            if not (rng.lower is not None and rng.upper is not None):
                continue
            vec = inst.table.vector(rng.action)
            lower, upper = bounds(vec, inst.refs, inst.criteria, 0.75)
            ap = [k for k, r in enumerate(relations) if r is SetClassification.ACTION_PREFERRED]
            sp = [k for k, r in enumerate(relations) if r is SetClassification.SET_PREFERRED]
            assert (lower[1], upper[1]) == (ap[-1], sp[0])
            assert (lower[0], upper[0]) == (rng.lower, rng.upper)


class TestProfileCloneRange:
    def test_action_equal_to_interior_profile_gets_neighbour_range(self):
        # under full separability a clone of an interior profile scores
        # exactly the neighbouring reference scores
        inst = generate_instance(21, GeneratorConfig(
            n_criteria=3, n_levels=5, max_profiles_per_level=2, n_actions=0))
        k = 2
        clone = inst.refs.sets[k].profiles[0]
        table = PerformanceTable.from_rows(inst.criteria, {"clone": clone})
        result = score_ranges(table, inst.refs, inst.criteria, 0.75)
        assert result.used_fast_path
        (rng,) = result.ranges
        assert (rng.lower, rng.upper) == (
            inst.refs.scores[k - 1], inst.refs.scores[k + 1],
        )
