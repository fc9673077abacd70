"""The λ-band rule against the band-by-band reference (tests/band_reference.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electre_score.credibility import band_ends, compile_criteria, preferred_bands
from electre_score.model import ReferenceSet, ReferenceStructure
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.refsets import ProfileTable, SetClassification, derived_relation
from electre_score.sweep import sweep_lambda

import band_reference
from criterion_reference import credibility

# 0.5 and 1.0 are the domain bounds; few values make sab == sba and
# repeated credibilities frequent
GRID = (0.0, 0.25, 0.5, 0.55, 0.6, 2 / 3, 0.75, 0.9, 1.0)
CUTS = tuple(v for v in GRID if v > 0.5)


class TestPreferredBands:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(GRID), max_size=8),
        st.sampled_from(GRID),
        st.sampled_from(GRID),
        st.booleans(),
        st.sampled_from(CUTS),
        st.booleans(),
    )
    def test_matches_derived_relation(self, others, sab, sba, own, lam, single):
        # the band ends may or may not hold the pair's own credibilities
        ends = [lam] if single else band_ends(others + ([sab, sba] if own else []))
        ab, ba = preferred_bands(ends, sab, sba)
        for i, u in enumerate(ends):
            relation = derived_relation(sab, sba, u)
            assert (i in ab) == (relation is SetClassification.ACTION_PREFERRED)
            assert (i in ba) == (relation is SetClassification.SET_PREFERRED)
        for run in (ab, ba):
            # an empty run starts at its stop, so its complement is exact
            assert 0 <= run.start <= run.stop <= len(ends)

    @given(st.lists(st.sampled_from(GRID), max_size=8))
    def test_band_ends(self, sigmas):
        assert band_ends(sigmas) == sorted({s for s in sigmas if s > 0.5} | {1.0})


# free dominance, so basic-assumption violations and crowded bands occur
CONFIGS = [
    GeneratorConfig(n_criteria=3, n_levels=4, max_profiles_per_level=3, n_actions=5,
                    strong_dominance=False, veto=veto, threshold_mode=mode)
    for veto in (False, True) for mode in ("constant", "variable")
]
CASES = [(config, seed) for config in CONFIGS for seed in range(6)]


def _random_target(instance, rng):
    """The marks at a random cutting level, some changed, in random order."""
    lam = rng.uniform(0.5, 1.0)
    change = rng.choice((0.0, 0.05, 0.3))
    crit = instance.criteria
    cells = []
    for name, _, _, pvec in instance.refs.flat_profiles():
        for action in instance.table.actions:
            avec = instance.table.vector(action)
            mark = band_reference.mark(
                credibility(crit, avec, pvec), credibility(crit, pvec, avec), lam
            )
            if rng.random() < change:
                mark = rng.choice([m for m in ("a", "b", "") if m != mark])
            cells.append(((name, action), mark))
    rng.shuffle(cells)
    return dict(cells)


class TestSweepAgainstReference:
    @pytest.mark.parametrize("dont_care_blanks", [False, True])
    def test_generated_instances(self, dont_care_blanks):
        seen = {"feasible": 0, "infeasible": 0, "closest_tie": 0}
        for config, seed in CASES:
            inst = generate_instance(seed, config)
            rng = random.Random(seed)
            for _ in range(3):
                target = _random_target(inst, rng)
                args = (inst.table, inst.refs, inst.criteria, target, dont_care_blanks)
                result = sweep_lambda(*args)
                expected = band_reference.sweep(*args)
                case = (config, seed, target)
                assert list(result.breakpoints) == expected["breakpoints"], case
                assert [(iv.lower, iv.upper) for iv in result.intervals] == (
                    expected["intervals"]), case
                assert (result.best_band.lower, result.best_band.upper) == (
                    expected["best_band"]), case
                assert list(result.mismatches_best) == expected["mismatches_best"], case
                counts = expected["counts"]
                seen["feasible" if result.feasible else "infeasible"] += 1
                seen["closest_tie"] += min(counts) > 0 and counts.count(min(counts)) > 1
        # the draw reaches every kind of outcome
        assert all(seen.values()), seen


def _shuffled(refs, rng):
    """The same profiles dealt at random into sets of the same sizes and scores."""
    pool = [vec for _, _, _, vec in refs.flat_profiles()]
    rng.shuffle(pool)
    sets = []
    for ref in refs.sets:
        sets.append(ReferenceSet(ref.score, tuple(pool[:len(ref.profiles)])))
        del pool[:len(ref.profiles)]
    return ReferenceStructure(tuple(sets))


class TestBasicAssumptionsAgainstReference:
    def test_generated_instances(self):
        seen = {"within-set": 0, "lower-set": 0, "clean band": 0}
        for config, seed in CASES:
            inst = generate_instance(seed, config)
            # generated structures hold the basic assumptions at most levels;
            # a shuffled one breaks both of them
            for refs in (inst.refs, _shuffled(inst.refs, random.Random(seed))):
                profiles = ProfileTable(compile_criteria(inst.criteria), refs)
                ends = profiles.breakpoints()
                assert ends == band_reference.profile_breakpoints(refs, inst.criteria)
                # the table's own bands, any sorted cutting levels, one level
                for lams in (ends, [0.55, 0.7, 0.95], [0.75]):
                    bands = profiles.basic_assumption_violations(lams)
                    expected = band_reference.basic_assumption_violations(
                        refs, inst.criteria, lams
                    )
                    assert bands == expected, (config, seed, refs, lams)
                for messages in profiles.basic_assumption_violations(ends):
                    seen["clean band"] += not messages
                    for kind in ("within-set", "lower-set"):
                        seen[kind] += any(m.startswith(kind) for m in messages)
        assert all(seen.values()), seen
