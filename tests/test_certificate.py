"""The certified fold decides a level without the kernel only where the
kernel's answer is known, and keeps every error where it was.

:class:`refsets.CertifiedFold` must give the plain fold, one kernel call
per action-profile pair, for every action and level, certified or not,
and raise what the plain fold raises, with the same message, whenever
the thresholds could fail.
"""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electre_score import properties, refsets, suites
from electre_score.credibility import (
    InvalidVetoError,
    InvertedThresholdsError,
    NegativeThresholdError,
    compile_criteria,
)
from electre_score.model import (
    Criterion,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
    validate_model,
)
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.refsets import CertifiedFold, check_comparability
from electre_score.scoring import score_ranges

_D, _I = ThresholdMode.DIRECT, ThresholdMode.INVERSE
# the cutting levels at both ends of ]0.5, 1]
LAMBDAS = (math.nextafter(0.5, 1.0), 0.65, 1.0)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _plain_fold(kernel, action, refs, lam):
    """The plain fold: every profile of every level through the kernel."""
    return tuple(
        refsets.classify_relations(refsets.profile_relations(kernel, action, ref.profiles, lam))
        for ref in refs.sets
    )


def _plain_rows(kernel, action, refs, lam):
    """Every profile of every level through the kernel, level by level."""
    return tuple(
        tuple(refsets.profile_relations(kernel, action, ref.profiles, lam)) for ref in refs.sets
    )


def _assert_fold_equals_kernel(criteria, table, refs, lam):
    """Every action's relations, or the error, equal the plain fold's."""
    kernel = compile_criteria(criteria)
    fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), table.rows.values(), lam)
    for vector in table.rows.values():
        assert _outcome(lambda: fold.relations(vector)) == _outcome(
            lambda: _plain_fold(kernel, vector, refs, lam)
        ), vector
    ends = (refs.sets[0], refs.sets[-1])
    assert _outcome(lambda: check_comparability(table, refs, criteria, lam)) == _outcome(
        lambda: {
            action: refsets.is_comparable(
                _plain_fold(kernel, vector, ReferenceStructure(ends), lam)
            )
            for action, vector in table.rows.items()
        }
    )


def _kernel_calls(monkeypatch, run) -> int:
    calls = Counter()
    kernel = refsets.sigma_pair

    def counting(compiled, pa, pb):
        calls["pairs"] += 1
        return kernel(compiled, pa, pb)

    monkeypatch.setattr(refsets, "sigma_pair", counting)
    run()
    monkeypatch.undo()
    return calls["pairs"]


# grid values whose differences round near the thresholds below
_VALUE = st.one_of(
    st.integers(-40, 40).map(lambda i: i * 0.1),
    st.integers(-40, 40).map(lambda i: i / 10),
    st.sampled_from([0.0, 0.3, 0.7, 1.1, 2.2]),
)
_MODE = st.sampled_from(list(ThresholdMode))


@st.composite
def _criterion(draw, name):
    shared = draw(_MODE)
    # mostly one mode per criterion; sometimes each threshold its own,
    # which mixes the bases the variable thresholds read
    mixed = draw(st.booleans()) and draw(st.booleans())

    def spec(intercept):
        mode = draw(_MODE) if mixed else shared
        if mode is ThresholdMode.CONSTANT:
            return ThresholdSpec(intercept)
        return ThresholdSpec(intercept, draw(st.sampled_from([0.0, 0.01, 0.1, -0.01])), mode)

    q = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]))
    p = q + draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    veto = None
    if draw(st.booleans()):
        veto = spec(p + draw(st.sampled_from([0.1, 0.5, 2.0])))
    return Criterion(
        name, draw(st.sampled_from(list(Direction))),
        draw(st.sampled_from([0.0, 1.0, 2.5])), spec(q), spec(p), veto,
    )


@st.composite
def _instance(draw):
    n = draw(st.integers(1, 3))
    criteria = [draw(_criterion(f"g{j + 1}")) for j in range(n)]
    if not any(c.weight > 0 for c in criteria):
        criteria[0] = Criterion(
            "g1", criteria[0].direction, 1.0, criteria[0].indifference,
            criteria[0].preference, criteria[0].veto,
        )
    vector = st.tuples(*[_VALUE] * n)
    levels = draw(st.lists(st.lists(vector, min_size=1, max_size=3), min_size=2, max_size=4))
    profiles = [b for level in levels for b in level]
    actions = draw(st.lists(vector, min_size=1, max_size=4))
    # actions exactly p away from a profile, where fl(a - b) meets p
    for _ in range(draw(st.integers(0, 3))):
        b = draw(st.sampled_from(profiles))
        sign = draw(st.sampled_from([1.0, -1.0]))
        actions.append(tuple(
            g + sign * c.preference.intercept for g, c in zip(b, criteria)
        ))
    refs = ReferenceStructure(tuple(
        ReferenceSet(10.0 * k, tuple(level)) for k, level in enumerate(levels)
    ))
    table = PerformanceTable.from_rows(
        criteria, {f"a{i + 1}": a for i, a in enumerate(actions)}
    )
    return criteria, table, refs


class TestSoundness:
    @settings(max_examples=400, deadline=None)
    @given(_instance(), st.sampled_from(LAMBDAS))
    def test_random_instances_equal_the_plain_fold(self, instance, lam):
        _assert_fold_equals_kernel(*instance, lam)

    @pytest.mark.parametrize("mode", ["constant", "variable"])
    @pytest.mark.parametrize("veto", [False, True], ids=["no-veto", "veto"])
    @pytest.mark.parametrize("strong", [True, False], ids=["strong", "free"])
    @pytest.mark.parametrize("lam", [LAMBDAS[0], LAMBDAS[-1]], ids=["0.5+eps", "1.0"])
    def test_generated_instances(self, monkeypatch, mode, veto, strong, lam):
        certified_somewhere = False
        for seed in range(10):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=4, n_levels=5, max_profiles_per_level=3, n_actions=10,
                threshold_mode=mode, veto=veto, strong_dominance=strong,
            ))
            _assert_fold_equals_kernel(inst.criteria, inst.table, inst.refs, lam)
            kernel = compile_criteria(inst.criteria)
            fold = CertifiedFold(
                kernel, (ref.profiles for ref in inst.refs.sets), inst.table.rows.values(), lam
            )
            calls = _kernel_calls(
                monkeypatch, lambda: [fold.relations(v) for v in inst.table.rows.values()]
            )
            profiles = sum(len(ref.profiles) for ref in inst.refs.sets)
            certified_somewhere |= calls < len(inst.table.rows) * profiles
        assert certified_somewhere

    @settings(max_examples=200, deadline=None)
    @given(_instance(), st.sampled_from(LAMBDAS))
    def test_random_rows_equal_the_plain_rows(self, instance, lam):
        # a verify trial's rows are the plain rows, and its relations, or
        # the error, are the certified fold's
        criteria, table, refs = instance
        kernel = compile_criteria(criteria)
        fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), table.rows.values(), lam)
        for vector in table.rows.values():
            trial = properties.Trial(criteria, refs, lam, {"x": vector})
            assert _outcome(lambda: trial.rows["x"]) == _outcome(
                lambda: _plain_rows(kernel, vector, refs, lam)
            ), vector
            assert _outcome(lambda: trial.relations["x"]) == _outcome(
                lambda: fold.relations(vector)
            ), vector

    @pytest.mark.parametrize("mode", ["constant", "variable"])
    @pytest.mark.parametrize("veto", [False, True], ids=["no-veto", "veto"])
    @pytest.mark.parametrize("lam", [LAMBDAS[0], LAMBDAS[-1]], ids=["0.5+eps", "1.0"])
    def test_generated_rows(self, monkeypatch, mode, veto, lam):
        # the trial sends every action-profile pair to the kernel, the
        # certified fold fewer, and both give the same relations
        certified = 0
        for seed in range(10):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=4, n_levels=5, max_profiles_per_level=3, n_actions=10,
                threshold_mode=mode, veto=veto,
            ))
            kernel = compile_criteria(inst.criteria)
            fold = CertifiedFold(
                kernel, (ref.profiles for ref in inst.refs.sets), inst.table.rows.values(), lam
            )
            trial = properties.Trial(inst.criteria, inst.refs, lam, inst.table.rows)
            pairs = len(inst.table.rows) * sum(len(ref.profiles) for ref in inst.refs.sets)
            assert _kernel_calls(monkeypatch, lambda: trial.rows) == pairs
            for name, vector in inst.table.rows.items():
                assert trial.rows[name] == _plain_rows(kernel, vector, inst.refs, lam)
                assert trial.relations[name] == fold.relations(vector)
            calls = _kernel_calls(
                monkeypatch, lambda: [fold.relations(v) for v in inst.table.rows.values()]
            )
            certified += pairs - calls
        assert certified > 0

    def test_zero_weight_veto_criterion_is_checked(self, monkeypatch):
        # g2 has no weight but a veto. The certificate reads it like any
        # criterion: L1 is cleared on both, L2 and L3 are not
        criteria = [
            Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(0.5), ThresholdSpec(1.0)),
            Criterion("g2", Direction.MIN, 0.0, ThresholdSpec(0.5), ThresholdSpec(1.0),
                      ThresholdSpec(2.0)),
        ]
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0, 10.0),)),
            ReferenceSet(10.0, ((2.0, 0.0),)),
            ReferenceSet(20.0, ((10.0, 10.0),)),
        ))
        action = (5.0, 5.0)
        table = PerformanceTable.from_rows(criteria, {"x": action})
        kernel = compile_criteria(criteria)
        fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), table.rows.values(),
                             0.65)
        assert fold.relations(action) == _plain_fold(kernel, action, refs, 0.65)
        assert _kernel_calls(monkeypatch, lambda: fold.relations(action)) == 2


def _one_criterion_fold(direction, q, p, profile, far, action, lam):
    criteria = [Criterion("g1", direction, 1.0, q, p)]
    refs = ReferenceStructure((
        ReferenceSet(0.0, ((profile,),)), ReferenceSet(10.0, ((far,),)),
    ))
    kernel = compile_criteria(criteria)
    fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), [(action,)], lam)
    return fold.relations((action,)), _plain_fold(kernel, (action,), refs, lam)


class TestBoundaries:
    """Cells the certificate must leave to the kernel, though a rougher
    bound would decide them."""

    def test_difference_equal_to_p(self):
        # 0.9 > 0.2 + 0.7 in floats, but fl(0.9 - 0.2) == 0.7: with q = p
        # the pair is indifferent, not a strict win
        got, want = _one_criterion_fold(
            Direction.MAX, ThresholdSpec(0.7), ThresholdSpec(0.7), 0.2, 5.0, 0.9, 0.65)
        assert got == want
        assert want[0] is refsets.SetClassification.INDIFFERENT

    @pytest.mark.parametrize("direction, q, p, profile, far, action", [
        # wins; p reads the action's (higher) value
        (Direction.MAX, ThresholdSpec(0.9, 0.1, _I), ThresholdSpec(1.0, 0.1, _I),
         0.0, 5.0, 1.05),
        # the same, mirrored
        (Direction.MIN, ThresholdSpec(0.9, -0.1, _I), ThresholdSpec(1.0, -0.1, _I),
         0.0, -5.0, -1.05),
        # loses; p reads the action's (lower) value
        (Direction.MAX, ThresholdSpec(1.005, -0.1, _D), ThresholdSpec(1.105, -0.1, _D),
         1.05, -5.0, 0.0),
    ], ids=["max-wins", "min-wins", "max-loses"])
    def test_p_at_the_action_value(self, direction, q, p, profile, far, action):
        # |d| = 1.05 exceeds p = 1.0 at the profile's value but not p = 1.105
        # at the action's, and the weak zone gives the losing side 0.55
        got, want = _one_criterion_fold(direction, q, p, profile, far, action,
                                        math.nextafter(0.5, 1.0))
        assert got == want
        assert want[0] is refsets.SetClassification.INDIFFERENT

    def test_nan_value_is_left_to_the_kernel(self):
        # max((5, nan)) is 5, but the kernel makes b = nan beat the action
        criteria = [Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(0.5), ThresholdSpec(1.0))]
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((5.0,), (math.nan,))), ReferenceSet(10.0, ((20.0,),)),
        ))
        kernel = compile_criteria(criteria)
        fold = CertifiedFold(kernel, (ref.profiles for ref in refs.sets), [(10.0,)], 0.65)
        want = _plain_fold(kernel, (10.0,), refs, 0.65)
        assert fold.relations((10.0,)) == want
        assert want[0] is refsets.SetClassification.INCOMPARABLE

    def test_infinite_weight_total_is_left_to_the_kernel(self):
        # two finite weights whose sum overflows: the kernel's sigma is
        # inf / inf, a NaN, where the certificate would read 1.0
        criteria = [
            Criterion(f"g{j}", Direction.MAX, 1e308, ThresholdSpec(0.5), ThresholdSpec(1.0))
            for j in (1, 2)
        ]
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0, 0.0),)), ReferenceSet(10.0, ((20.0, 20.0),)),
        ))
        table = PerformanceTable.from_rows(criteria, {"x": (10.0, 10.0)})
        _assert_fold_equals_kernel(criteria, table, refs, 0.65)

    # constant thresholds that make every pair raise, checked once per
    # criterion by the guard; check_comparability builds no profile table
    # that would raise first
    @pytest.mark.parametrize("q, p, v", [
        (ThresholdSpec(-0.5), ThresholdSpec(1.0), None),
        (ThresholdSpec(3.0), ThresholdSpec(2.0), None),
        (ThresholdSpec(0.5), ThresholdSpec(2.0), ThresholdSpec(2.0)),
    ], ids=["negative-q", "q-above-p", "veto-at-p"])
    def test_invalid_constant_thresholds_raise(self, q, p, v):
        criteria = _two_criteria(q, p, v)
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0, 0.0),)), ReferenceSet(10.0, ((20.0, 20.0),)),
        ))
        table = PerformanceTable.from_rows(criteria, {"x": (10.0, 10.0)})
        with pytest.raises(ValueError):
            check_comparability(table, refs, criteria, 0.65)
        _assert_fold_equals_kernel(criteria, table, refs, 0.65)


def _two_criteria(q, p, v=None):
    return [
        Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(0.5), ThresholdSpec(1.0)),
        Criterion("g2", Direction.MAX, 1.0, q, p, v),
    ]


# Each instance raises only at an action-profile pair of a level that the
# certificate's bounds alone would decide; the messages are those the
# plain fold raises.
_ERRORS = {
    "negative-threshold-at-an-action-value": (
        _two_criteria(ThresholdSpec(1.0, -0.1, _I), ThresholdSpec(3.0, -0.1, _I)),
        [((0.0, 0.0),), ((2.0, 5.0),)], (9.0, 12.0),
        NegativeThresholdError,
        "criterion g2: threshold -0.20000000000000018 < 0 for pair (12.0, 0.0)",
    ),
    "q-above-p-at-one-profile": (
        _two_criteria(ThresholdSpec(1.0, 0.2, _D), ThresholdSpec(2.0)),
        [((0.0, 0.0),), ((2.0, 8.0),)], (9.0, 20.0),
        InvertedThresholdsError, "criterion g2: q=2.6 > p=2.0 for pair (20.0, 8.0)",
    ),
    "veto-not-above-p": (
        _two_criteria(ThresholdSpec(1.0), ThresholdSpec(2.0), ThresholdSpec(2.5, -0.1, _D)),
        [((0.0, 0.0),), ((2.0, 8.0),)], (9.0, 20.0),
        InvalidVetoError, "criterion g2: veto 1.7 must exceed preference 2.0",
    ),
    # q reads the higher value, p the lower: q <= p at every single value,
    # but not at the pair (0, 7)
    "mixed-bases": (
        _two_criteria(ThresholdSpec(0.0, 0.5, _I), ThresholdSpec(3.0, 0.1, _D)),
        [((-9.0, 5.0),), ((-7.0, 7.0),)], (-20.0, 0.0),
        InvertedThresholdsError, "criterion g2: q=3.5 > p=3.0 for pair (0.0, 7.0)",
    ),
}


class TestErrorsStayWhereTheyWere:
    @pytest.mark.parametrize("case", list(_ERRORS))
    def test_score_ranges_raises_the_plain_fold_error(self, case):
        criteria, levels, action, error, message = _ERRORS[case]
        refs = ReferenceStructure(tuple(
            ReferenceSet(10.0 * k, level) for k, level in enumerate(levels)
        ))
        table = PerformanceTable.from_rows(criteria, {"x": action})
        for run in (score_ranges, check_comparability):
            with pytest.raises(error) as info:
                run(table, refs, criteria, 0.65)
            assert str(info.value) == message


class TestUnreachableLevels:
    """A test no action of the table can pass is dropped before the guard."""

    CRITERIA = [Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(5.0), ThresholdSpec(10.0))]
    REFS = ReferenceStructure((
        ReferenceSet(0.0, ((0.0,),)), ReferenceSet(10.0, ((5.0,),)),
        ReferenceSet(20.0, ((10.0,),)),
    ))

    def _fold(self, monkeypatch, actions):
        guard = Counter()
        holds = refsets._thresholds_hold

        def counting(kernel, vectors):
            guard["calls"] += 1
            return holds(kernel, vectors)

        monkeypatch.setattr(refsets, "_thresholds_hold", counting)
        kernel = compile_criteria(self.CRITERIA)
        fold = CertifiedFold(kernel, (ref.profiles for ref in self.REFS.sets), actions, 0.65)
        monkeypatch.undo()
        for action in actions:
            assert fold.relations(action) == _plain_fold(kernel, action, self.REFS, 0.65)
        return fold, guard["calls"]

    def test_no_action_within_reach(self, monkeypatch):
        # the highest action is 9, within p = 10 of the bottom profile, and
        # the lowest is 0, within p of the top one
        actions = [(0.0,), (4.0,), (9.0,)]
        fold, guard_calls = self._fold(monkeypatch, actions)
        assert guard_calls == 0
        assert _kernel_calls(monkeypatch, lambda: [fold.relations(a) for a in actions]) == 9

    def test_reach_at_exactly_p_is_not_enough(self, monkeypatch):
        # fl(10 - 0) == p: the pair is not a strict win, so nothing is kept
        _, guard_calls = self._fold(monkeypatch, [(0.0,), (10.0,)])
        assert guard_calls == 0

    def test_one_outlier_keeps_the_tests(self, monkeypatch):
        # the outlier clears all three levels; the others still go to the kernel
        actions = [(0.0,), (4.0,), (9.0,), (30.0,)]
        fold, guard_calls = self._fold(monkeypatch, actions)
        assert guard_calls == 1
        assert _kernel_calls(monkeypatch, lambda: [fold.relations(a) for a in actions]) == 9


def _fold_calls(monkeypatch, run) -> int:
    calls = Counter()
    fold = refsets.classify_relations

    def counting(relations):
        calls["folds"] += 1
        return fold(relations)

    monkeypatch.setattr(refsets, "classify_relations", counting)
    monkeypatch.setattr(properties, "classify_relations", counting)
    run()
    monkeypatch.undo()
    return calls["folds"]


class TestCertifiedLevelsSkipTheFold:
    """A certified level's class goes through as it is: ``relations``
    folds only the levels that went to the kernel."""

    @pytest.mark.parametrize("mode", ["constant", "variable"])
    def test_one_fold_per_level_sent_to_the_kernel(self, monkeypatch, mode):
        certified = 0
        for seed in range(10):
            inst = generate_instance(seed, GeneratorConfig(
                n_criteria=4, n_levels=5, max_profiles_per_level=3, n_actions=10,
                threshold_mode=mode, strong_dominance=True,
            ))
            kernel = compile_criteria(inst.criteria)
            levels = [ref.profiles for ref in inst.refs.sets]
            fold = CertifiedFold(kernel, levels, inst.table.rows.values(), 0.65)
            level_of = {id(b): k for k, level in enumerate(levels) for b in level}
            real = refsets.sigma_pair
            for vector in inst.table.rows.values():
                sent = set()  # the levels that went to the kernel

                def recording(compiled, pa, pb):
                    sent.add(level_of[id(pb)])
                    return real(compiled, pa, pb)

                monkeypatch.setattr(refsets, "sigma_pair", recording)
                folds = _fold_calls(monkeypatch, lambda: fold.relations(vector))
                assert folds == len(sent)
                certified += len(levels) - folds
        assert certified > 0

    def test_evaluate_batch_fold_count_is_pinned(self, monkeypatch, tmp_path):
        # the benchmark's evaluate-batch seed-1 input: 1,000 actions by 8
        # levels, of which 5,421 cells are certified
        import importlib.util
        import sys
        from pathlib import Path

        from electre_score.files import load_model, load_performances_csv

        source = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", source)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # for its dataclass
        spec.loader.exec_module(gen)
        inputs = gen.evaluate_batch(1, tmp_path, None)
        model = load_model(inputs.files["model"])
        table = load_performances_csv(inputs.files["performances"], model.criteria)
        assert len(table.rows) * len(model.refs.sets) == 8000
        kernel_calls = Counter()
        real = refsets.sigma_pair

        def counting(*args):
            kernel_calls["calls"] += 1
            return real(*args)

        monkeypatch.setattr(refsets, "sigma_pair", counting)
        folds = _fold_calls(
            monkeypatch, lambda: score_ranges(table, model.refs, model.criteria, 0.65)
        )
        assert folds == 2579
        # 190 profile pairs, then one call per profile of an uncertified level
        assert kernel_calls["calls"] == 7645

    @pytest.mark.parametrize("names, folds", [
        # 7,157 while a trial took a certified level's class as it was
        (["propositions"], 10065),
        # 9,993 likewise, 13,952 when every stored row was folded, and
        # 11,044 while stability folded an inserted set twice
        (["propositions", "conformity", "stability"], 12901),
    ], ids=["propositions", "checked"])
    def test_checked_suites_fold_count_is_pinned(self, monkeypatch, names, folds):
        # a trial takes no certified class: it folds every level of every
        # action, through the kernel, once
        assert _fold_calls(monkeypatch, lambda: suites.run_checked_suites(names, 100, 1)) == folds


# finite values, some large enough that a slope near 1e300 overflows;
# none negative, where a large slope would make p negative at once
_WIDE_VALUE = (
    st.integers(0, 40).map(lambda i: i / 10) | st.sampled_from([1e9, 1e200])
    | st.floats(0.0, 1e12)
)


@st.composite
def _single_base_model(draw):
    """A model whose criteria each read one base with their variable
    thresholds, with finite values, positive weights and unique names."""
    n = draw(st.integers(1, 3))
    criteria = []
    for j in range(n):
        mode = draw(st.sampled_from([_D, _I]))

        def spec(intercept):
            if draw(st.booleans()):
                return ThresholdSpec(intercept)
            # mostly a small slope; sometimes one that overflows
            wild = draw(st.integers(0, 3)) == 0
            slope = draw(st.floats(-1e300, 1e300) | st.floats(1e290, 1e300) if wild
                         else st.sampled_from([0.0, 0.01]))
            return ThresholdSpec(intercept, slope, mode)

        q = draw(st.sampled_from([0.0, 0.5, 1.0]))
        p = q + draw(st.sampled_from([0.5, 2.0, 0.0, -0.5]))
        veto = spec(p + draw(st.sampled_from([1.0, 5.0, 0.0]))) if draw(st.booleans()) else None
        criteria.append(Criterion(
            f"g{j + 1}", draw(st.sampled_from(list(Direction))),
            draw(st.sampled_from([0.5, 1.0, 2.0])), spec(q), spec(p), veto,
        ))
    vector = st.tuples(*[_WIDE_VALUE] * n)
    levels = draw(st.lists(st.lists(vector, min_size=1, max_size=2), min_size=2, max_size=3))
    refs = ReferenceStructure(tuple(
        ReferenceSet(10.0 * k, tuple(level)) for k, level in enumerate(levels)
    ))
    actions = draw(st.lists(vector, min_size=1, max_size=3))
    table = PerformanceTable.from_rows(criteria, {f"a{i + 1}": a for i, a in enumerate(actions)})
    return criteria, table, refs


def _infinite_p_model():
    """p = 1 + 1e200 * g overflows at every value of g1, which has no veto."""
    criteria = [
        Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(0.5), ThresholdSpec(1.0, 1e200, _D)),
        Criterion("g2", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0)),
    ]
    refs = ReferenceStructure((
        ReferenceSet(0.0, ((1e200, 0.0),)), ReferenceSet(100.0, ((3e200, 100.0),)),
    ))
    return criteria, PerformanceTable.from_rows(criteria, {"a1": (2e200, 50.0)}), refs


class TestGatesAgree:
    """The validator and the certificate's guard read one threshold rule:
    on a model each of whose criteria reads one base, with finite values,
    the validator reports an error exactly when the guard refuses."""

    @settings(max_examples=400, deadline=None)
    @given(_single_base_model())
    @example(_infinite_p_model())
    def test_validator_errs_exactly_when_the_guard_refuses(self, model):
        criteria, table, refs = model
        vectors = [*table.rows.values(), *(b for ref in refs.sets for b in ref.profiles)]
        report = validate_model(table, refs)
        assert report.ok == refsets._thresholds_hold(compile_criteria(criteria), vectors), (
            report.errors
        )
