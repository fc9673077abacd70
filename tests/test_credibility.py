import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electre_score.credibility import (
    InvalidVetoError,
    InvertedThresholdsError,
    NegativeThresholdError,
    ThresholdError,
    compile_criteria,
    credibility,
    dominates,
    preferred_bands,
    sigma_pair,
)
from electre_score.model import (
    AllZeroWeightsError,
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
    check_cutting_level,
)
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.refsets import SetClassification, derived_relation, validate_basic_assumptions
from electre_score.scoring import score_ranges

from criterion_reference import (
    PerCriterionRelation,
    advantage,
    concordance,
    discordance,
    per_criterion_relation,
    threshold_at,
)
from criterion_reference import credibility as reference_credibility
from oracle import engine_criterion_to_dict, sigma_oracle


def _crit(direction=Direction.MAX, q=1.0, p=2.0, v=None, weight=1.0, name="g"):
    return Criterion(
        name, direction, weight,
        ThresholdSpec(q), ThresholdSpec(p),
        None if v is None else ThresholdSpec(v),
    )


class TestAdvantage:
    def test_minimization_flips_sign(self):
        crit = _crit(Direction.MIN)
        assert advantage(crit, 13000, 18000) == 5000

    def test_equal_performances(self):
        assert advantage(_crit(), 4.0, 4.0) == 0.0

    def test_maximization_keeps_sign(self):
        assert advantage(_crit(), 4, 1) == 3


class TestThresholdAt:
    def test_direct_uses_worse_performance_under_minimization(self):
        # worse of (13000, 14250) under minimization is 14250:
        # 250 + 0.03 * 14250 = 677.5
        crit = Criterion(
            "ICOST", Direction.MIN, 5.0,
            ThresholdSpec(250.0, 0.03, ThresholdMode.DIRECT),
            ThresholdSpec(500.0, 0.05, ThresholdMode.DIRECT),
        )
        assert threshold_at(crit.indifference, crit, 13000, 14250) == pytest.approx(677.5)
        assert threshold_at(crit.indifference, crit, 14250, 13000) == pytest.approx(677.5)

    def test_inverse_uses_better_performance(self):
        spec = ThresholdSpec(1.0, 0.1, ThresholdMode.INVERSE)
        crit = Criterion("g", Direction.MAX, 1.0, spec, ThresholdSpec(9.0, 0.1, ThresholdMode.INVERSE))
        assert threshold_at(spec, crit, 10.0, 20.0) == pytest.approx(1.0 + 0.1 * 20.0)

    def test_constant(self):
        crit = _crit()
        assert threshold_at(crit.indifference, crit, 123.0, -456.0) == 1.0

    def test_zero_constant_degenerates_to_true_criterion(self):
        crit = _crit(q=0.0, p=0.0)
        assert threshold_at(crit.indifference, crit, 5.0, 7.0) == 0.0
        # any nonzero difference is then a strict preference
        assert per_criterion_relation(crit, 7.0, 5.0) is PerCriterionRelation.STRICT_PREF_A


class TestPerCriterionRelation:
    def test_strict_preference_beyond_p(self):
        # level difference 3 exceeds p = 2
        assert per_criterion_relation(_crit(), 4, 1) is PerCriterionRelation.STRICT_PREF_A

    def test_indifferent_within_q(self):
        assert per_criterion_relation(_crit(), 4, 5) is PerCriterionRelation.INDIFFERENT

    def test_equal_is_indifferent(self):
        assert per_criterion_relation(_crit(), 3.3, 3.3) is PerCriterionRelation.INDIFFERENT

    def test_weak_zones_and_boundaries(self):
        crit = _crit()
        assert per_criterion_relation(crit, 2.0, 0.0) is PerCriterionRelation.WEAK_PREF_A
        assert per_criterion_relation(crit, 0.0, 2.0) is PerCriterionRelation.WEAK_PREF_B
        # delta = q stays indifferent, delta in ]q, p] is weak, beyond p strict
        assert per_criterion_relation(crit, 1.0, 0.0) is PerCriterionRelation.INDIFFERENT
        assert per_criterion_relation(crit, 1.5, 0.0) is PerCriterionRelation.WEAK_PREF_A
        assert per_criterion_relation(crit, 2.5, 0.0) is PerCriterionRelation.STRICT_PREF_A

    def test_inverted_thresholds_raise(self):
        crit = Criterion("g", Direction.MAX, 1.0, ThresholdSpec(3.0), ThresholdSpec(1.0))
        with pytest.raises(InvertedThresholdsError):
            per_criterion_relation(crit, 0.0, 0.0)


class TestConcordance:
    def test_fully_concordant_pair_is_exactly_one(self, hotel, hotel_vectors):
        assert concordance(hotel["criteria"], hotel_vectors["a1"], hotel_vectors["b31"]) == 1.0

    def test_partial_coalition(self, hotel, hotel_vectors):
        # hand evaluation: ICOST strict against (0), ACOST indifferent (4),
        # RECRU indifferent (3), IMAGE strict against (0), ACCES weak
        # against with a zero fraction (0) -> 7/18
        c = concordance(hotel["criteria"], hotel_vectors["b31"], hotel_vectors["a1"])
        assert c == pytest.approx(7 / 18, abs=1e-12)

    def test_self_comparison(self, hotel, hotel_vectors):
        assert concordance(hotel["criteria"], hotel_vectors["a4"], hotel_vectors["a4"]) == 1.0

    def test_weak_opposition_fraction(self):
        # q=1, p=3: delta=-2 sits mid-zone, fraction (delta+p)/(p-q) = 0.5
        crit = [_crit(q=1.0, p=3.0)]
        assert concordance(crit, (0.0,), (2.0,)) == pytest.approx(0.5)


class TestDiscordance:
    def test_no_veto_is_zero(self):
        assert discordance(_crit(), 0.0, 100.0) == 0.0

    def test_band_midpoint(self):
        # p=2, v=4, delta=-3 -> (-3+2)/(2-4) = 0.5
        crit = _crit(p=2.0, v=4.0)
        assert discordance(crit, 0.0, 3.0) == pytest.approx(0.5)

    def test_band_boundaries(self):
        crit = _crit(p=2.0, v=4.0)
        assert discordance(crit, 0.0, 2.0) == 0.0           # delta = -p
        assert discordance(crit, 0.0, 4.0) == pytest.approx(1.0)  # delta = -v
        assert discordance(crit, 0.0, 5.0) == 1.0           # beyond the veto

    def test_invalid_veto(self):
        crit = Criterion("g", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0),
                         ThresholdSpec(2.0))
        with pytest.raises(InvalidVetoError):
            discordance(crit, 0.0, 10.0)


class TestCredibility:
    def test_dominated_profile_gets_full_credibility(self, hotel, hotel_vectors):
        assert credibility(hotel["criteria"], hotel_vectors["a1"], hotel_vectors["b11"]) == 1.0

    def test_no_veto_collapse(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        pa, pb = hotel_vectors["b31"], hotel_vectors["a1"]
        assert credibility(crit, pa, pb) == concordance(crit, pa, pb)
        assert credibility(crit, pa, pb) == pytest.approx(7 / 18, abs=1e-12)

    def test_full_veto_annihilates(self):
        crits = [
            _crit(weight=3.0, name="g1"),
            _crit(weight=2.0, p=2.0, v=4.0, name="g2"),
        ]
        pa, pb = (10.0, 0.0), (0.0, 10.0)  # g2 difference far beyond the veto
        c = concordance(crits, pa, pb)
        assert c == pytest.approx(0.6)
        assert credibility(crits, pa, pb) == 0.0

    def test_reflexive(self, hotel, hotel_vectors):
        for key in ("a1", "a3", "b41", "b71"):
            assert credibility(hotel["criteria"], hotel_vectors[key], hotel_vectors[key]) == 1.0

    def test_discount_applies_only_above_concordance(self):
        # d = 0.75 > c = 0.6: sigma = c * (1-d)/(1-c)
        crits = [
            _crit(weight=3.0, name="g1"),
            _crit(weight=2.0, p=2.0, v=6.0, name="g2"),
        ]
        pa, pb = (10.0, 0.0), (0.0, 5.0)  # delta_2 = -5: d = (-5+2)/(2-6) = 0.75
        c = concordance(crits, pa, pb)
        assert c == pytest.approx(0.6)
        assert credibility(crits, pa, pb) == pytest.approx(0.6 * 0.25 / 0.4)


class TestCrispAndDerived:
    def test_boundary_inclusive(self):
        # the crisp cut is sigma >= lam: judged at the single level lam,
        # a credibility equal to lam outranks
        assert preferred_bands([1.0], 1.0, 0.5) == range(0, 1)
        assert preferred_bands([0.75], 0.75, 0.5) == range(0, 1)
        assert preferred_bands([0.7], 1.0, 7 / 18) == range(0, 1)
        assert not preferred_bands([0.7], 7 / 18, 0.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            check_cutting_level(0.5)

    def test_four_cases(self):
        assert derived_relation(True, False) is SetClassification.ACTION_PREFERRED
        assert derived_relation(False, True) is SetClassification.SET_PREFERRED
        assert derived_relation(True, True) is SetClassification.INDIFFERENT
        assert derived_relation(False, False) is SetClassification.INCOMPARABLE

    def test_hotel_pairs_at_070(self, hotel, hotel_vectors):
        kernel = compile_criteria(hotel["criteria"])

        def sigma(a, b):
            return sigma_pair(kernel, hotel_vectors[a], hotel_vectors[b])

        def relation(a, b, lam):
            sab, sba = sigma(a, b)
            return derived_relation(sab >= lam, sba >= lam)

        assert relation("a1", "b31", 0.7) is SetClassification.ACTION_PREFERRED
        assert relation("a1", "a1", 0.7) is SetClassification.INDIFFERENT
        # sigma(a1,b42) = 1 and sigma(b42,a1) = 103/108, both above 0.7
        assert sigma("a1", "b42") == (1.0, pytest.approx(103 / 108, abs=1e-12))
        assert relation("a1", "b42", 0.7) is SetClassification.INDIFFERENT


class TestDominates:
    def test_componentwise(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        assert dominates(crit, hotel_vectors["a1"], hotel_vectors["b11"])
        assert not dominates(crit, hotel_vectors["a1"], hotel_vectors["a1"])
        # b31 loses to b21 on IMAGE (1 < 2)
        assert not dominates(crit, hotel_vectors["b31"], hotel_vectors["b21"])

    def test_requires_strict_component(self):
        crit = [_crit(name="g1"), _crit(name="g2")]
        assert not dominates(crit, (1.0, 1.0), (1.0, 1.0))
        assert dominates(crit, (1.0, 2.0), (1.0, 1.0))


class TestOracleAgreement:
    def test_hotel_matrix_matches_reference_implementation(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        oracle_crit = [engine_criterion_to_dict(c) for c in crit]
        keys = list(hotel_vectors)
        for a in keys:
            for b in keys:
                expected = sigma_oracle(oracle_crit, hotel_vectors[a], hotel_vectors[b])
                got = credibility(crit, hotel_vectors[a], hotel_vectors[b])
                assert got == pytest.approx(expected, abs=1e-12), (a, b)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_reference_implementation(self, seed):
        rng = random.Random(seed)
        inst = generate_instance(
            seed,
            GeneratorConfig(
                n_criteria=rng.randint(1, 6),
                n_levels=rng.randint(2, 5),
                max_profiles_per_level=rng.randint(1, 3),
                n_actions=4,
                threshold_mode=rng.choice(("constant", "variable")),
                veto=rng.choice((False, True)),
                strong_dominance=False,
            ),
        )
        oracle_crit = [engine_criterion_to_dict(c) for c in inst.criteria]
        vectors = [inst.table.vector(a) for a in inst.table.actions]
        vectors += [vec for _, _, _, vec in inst.refs.flat_profiles()]
        for _ in range(40):
            pa, pb = rng.choice(vectors), rng.choice(vectors)
            assert credibility(inst.criteria, pa, pb) == pytest.approx(
                sigma_oracle(oracle_crit, pa, pb), abs=1e-10
            )


def _suite_instance(seed, n_criteria, veto, threshold_mode):
    """A generated instance drawn as the verify credibility suites draw theirs."""
    rng = random.Random(seed)
    inst = generate_instance(seed, GeneratorConfig(
        n_criteria=n_criteria,
        n_levels=rng.randint(2, 8),
        max_profiles_per_level=rng.randint(1, 4),
        n_actions=rng.randint(2, 8),
        threshold_mode=threshold_mode,
        veto=veto,
        strong_dominance=False,
    ))
    vectors = [inst.table.vector(a) for a in inst.table.actions]
    vectors += [vec for _, _, _, vec in inst.refs.flat_profiles()]
    return inst.criteria, vectors


class TestRangeInvariants:
    """The per-criterion checks of the verify credibility suites: they
    read values inside the reference (each criterion's discordance, and
    concordance apart from credibility), which the pair kernel never
    returns on their own."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
        st.sampled_from(["constant", "variable"]),
    )
    def test_sigma_bounded_by_concordance(self, seed, n_criteria, veto, threshold_mode):
        criteria, vectors = _suite_instance(seed, n_criteria, veto, threshold_mode)
        rng = random.Random(seed)
        for _ in range(6):
            pa, pb = rng.choice(vectors), rng.choice(vectors)
            c = concordance(criteria, pa, pb)
            sigma = reference_credibility(criteria, pa, pb)
            assert 0.0 <= c <= 1.0
            assert 0.0 <= sigma <= c + 1e-15
            for j, crit in enumerate(criteria):
                assert 0.0 <= discordance(crit, pa[j], pb[j]) <= 1.0
            if not veto:
                # no veto, no discordance: credibility is concordance
                assert sigma == c

    def test_veto_stripped_kernel_is_reference_concordance(self):
        # the suites read concordance as sigma_pair on the criteria with
        # every veto removed; this holds bit for bit, while the vetoes
        # do discount some of the same pairs
        discounted = 0
        for seed in range(40):
            criteria, vectors = _suite_instance(
                seed, 1 + seed % 8, True, ("constant", "variable")[seed % 2]
            )
            assert any(c.veto is not None for c in criteria)
            stripped = compile_criteria([c._replace(veto=None) for c in criteria])
            for va in vectors:
                for vb in vectors:
                    assert sigma_pair(stripped, va, vb) == (
                        concordance(criteria, va, vb), concordance(criteria, vb, va)
                    )
                    discounted += reference_credibility(criteria, va, vb) < concordance(
                        criteria, va, vb
                    )
        assert discounted > 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
    )
    def test_derived_relation_partition(self, sab, sba, lam):
        rel = derived_relation(sab >= lam, sba >= lam)
        assert rel in SetClassification


class TestThresholdEdgeCases:
    def test_negative_evaluated_threshold_raises(self):
        spec = ThresholdSpec(-10.0, 0.0, ThresholdMode.CONSTANT)
        crit = Criterion("g", Direction.MAX, 1.0, spec, ThresholdSpec(1.0))
        with pytest.raises(NegativeThresholdError):
            threshold_at(spec, crit, 0.0, 0.0)

    def test_equal_thresholds_have_empty_weak_zone(self):
        # p = q leaves no weak zone; boundary pairs classify cleanly and
        # concordance never needs the degenerate fraction
        crit = [_crit(q=1.0, p=1.0)]
        assert per_criterion_relation(crit[0], 0.0, 1.0) is PerCriterionRelation.INDIFFERENT
        assert per_criterion_relation(crit[0], 0.0, 1.5) is PerCriterionRelation.STRICT_PREF_B
        assert concordance(crit, (0.0,), (1.0,)) == 1.0
        assert concordance(crit, (0.0,), (1.5,)) == 0.0


def _both_directions(criteria, pa, pb):
    """The per-criterion reference for sigma_pair: a value pair or the error type."""
    try:
        return reference_credibility(criteria, pa, pb), reference_credibility(criteria, pb, pa)
    except ValueError as exc:
        return type(exc)


def _kernel_outcome(criteria, pa, pb):
    try:
        return sigma_pair(compile_criteria(criteria), pa, pb)
    except ValueError as exc:
        return type(exc)


class TestPairKernel:
    """sigma_pair must give the per-criterion reference's exact bits, both ways."""

    def test_every_ordered_hotel_pair(self, hotel, hotel_vectors):
        crit = hotel["criteria"]
        kernel = compile_criteria(crit)
        for a, va in hotel_vectors.items():
            for b, vb in hotel_vectors.items():
                expected = (reference_credibility(crit, va, vb),
                            reference_credibility(crit, vb, va))
                assert sigma_pair(kernel, va, vb) == expected, (a, b)

    @pytest.mark.parametrize("seed", range(50))
    def test_generated_instances(self, seed):
        # even seeds constant thresholds, odd seeds direct or inverse
        # ones; every other pair of seeds adds vetoes
        rng = random.Random(seed)
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=rng.randint(1, 8),
            n_levels=rng.randint(2, 6),
            max_profiles_per_level=rng.randint(1, 3),
            n_actions=rng.randint(1, 6),
            threshold_mode=("constant", "variable")[seed % 2],
            veto=seed % 4 >= 2,
            strong_dominance=rng.random() < 0.5,
        ))
        kernel = compile_criteria(inst.criteria)
        vectors = [inst.table.vector(a) for a in inst.table.actions]
        vectors += [vec for _, _, _, vec in inst.refs.flat_profiles()]
        for va in vectors:
            for vb in vectors:
                expected = (reference_credibility(inst.criteria, va, vb),
                            reference_credibility(inst.criteria, vb, va))
                assert sigma_pair(kernel, va, vb) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_criteria_and_vectors(self, data):
        # thresholds may be negative, inverted or below the preference
        # threshold for the veto: the kernel must then raise the reference's
        # error type
        number = st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False)
        spec = st.one_of(
            # a typed NamedTuple would get every field drawn, defaults
            # included; pass the defaults so a constant spec keeps slope 0
            st.builds(ThresholdSpec, st.floats(min_value=-1.0, max_value=8.0),
                      st.just(0.0), st.just(ThresholdMode.CONSTANT)),
            st.builds(
                ThresholdSpec,
                st.floats(min_value=-1.0, max_value=8.0),
                st.floats(min_value=-0.2, max_value=0.5),
                st.sampled_from([ThresholdMode.DIRECT, ThresholdMode.INVERSE]),
            ),
        )
        criteria = data.draw(st.lists(
            st.builds(
                Criterion, st.just("g"), st.sampled_from(list(Direction)),
                st.sampled_from([0.0, 1.0, 2.5]), spec, spec, st.none() | spec,
                ordinal=st.just(False),
            ),
            min_size=1, max_size=6,
        ))
        values = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 5.0]), number)
        vector = st.tuples(*[values] * len(criteria))
        pa, pb = data.draw(vector), data.draw(vector)
        assert _kernel_outcome(criteria, pa, pb) == _both_directions(criteria, pa, pb)

    def test_equal_thresholds_need_no_weak_zone(self):
        # p = q empties the weak zone, so no pair divides by p - q
        crit = [_crit(q=1.0, p=1.0, v=3.0)]
        for gb in (0.0, 0.5, 1.0, 1.5, 3.0, 4.0):
            assert sigma_pair(compile_criteria(crit), (0.0,), (gb,)) == (
                reference_credibility(crit, (0.0,), (gb,)),
                reference_credibility(crit, (gb,), (0.0,)),
            )

    def test_zero_weight_veto_at_full_concordance(self):
        # d = 1 on a weightless criterion leaves c = 1: d > c fails, so
        # there is no discount (and no 0/0 from 1 - c)
        crits = [_crit(name="g1"), _crit(weight=0.0, p=2.0, v=4.0, name="g2")]
        pa, pb = (5.0, 0.0), (0.0, 10.0)
        assert reference_credibility(crits, pa, pb) == 1.0
        assert sigma_pair(compile_criteria(crits), pa, pb) == (
            1.0, reference_credibility(crits, pb, pa)
        )
        assert sigma_pair(compile_criteria(crits), pb, pa) == (
            reference_credibility(crits, pb, pa), 1.0
        )

    def test_inverted_thresholds_checked_before_any_veto(self):
        crits = [
            _crit(p=2.0, v=2.0, name="g1"),            # invalid veto
            _crit(q=3.0, p=1.0, name="g2"),            # inverted thresholds
        ]
        with pytest.raises(InvertedThresholdsError):
            reference_credibility(crits, (0.0, 0.0), (10.0, 0.0))
        with pytest.raises(InvertedThresholdsError):
            sigma_pair(compile_criteria(crits), (0.0, 0.0), (10.0, 0.0))


def _two_level_model(criterion):
    refs = ReferenceStructure((
        ReferenceSet(0.0, ((0.0,), (0.5,))),
        ReferenceSet(100.0, ((10.0,),)),
    ))
    table = PerformanceTable.from_rows([criterion], {"x": (5.0,)})
    return table, refs


# one criterion per error contract of the credibility kernel
_BROKEN = {
    AllZeroWeightsError: _crit(weight=0.0),
    NegativeThresholdError: Criterion(
        "g", Direction.MAX, 1.0,
        ThresholdSpec(1.0), ThresholdSpec(-1.0, 0.1, ThresholdMode.DIRECT),
    ),
    InvertedThresholdsError: _crit(q=3.0, p=1.0),
    InvalidVetoError: _crit(p=2.0, v=1.5),
}


class TestKernelErrorContracts:
    def test_threshold_errors_share_one_base(self):
        for error in (NegativeThresholdError, InvertedThresholdsError, InvalidVetoError):
            assert issubclass(error, ThresholdError)
        assert not issubclass(AllZeroWeightsError, ThresholdError)

    @pytest.mark.parametrize("error", list(_BROKEN), ids=lambda e: e.__name__)
    def test_raised_through_score_ranges(self, error):
        table, refs = _two_level_model(_BROKEN[error])
        with pytest.raises(error):
            score_ranges(table, refs, [_BROKEN[error]], 0.75)

    @pytest.mark.parametrize("error", list(_BROKEN), ids=lambda e: e.__name__)
    def test_raised_through_basic_assumptions(self, error):
        _, refs = _two_level_model(_BROKEN[error])
        with pytest.raises(error):
            validate_basic_assumptions(refs, [_BROKEN[error]], 0.75)
