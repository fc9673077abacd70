import gc
import tracemalloc

import pytest

from electre_score import sweep
from electre_score.cli import EXIT_VERIFY, main
from electre_score.credibility import sigma_pair
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.sweep import sweep_lambda

from criterion_reference import credibility
from oracle import relation_oracle


def _computed_target(instance, lam):
    """Relation table actually produced at a given cutting level."""
    target = {}
    for name, _, _, pvec in instance.refs.flat_profiles():
        for action in instance.table.actions:
            avec = instance.table.vector(action)
            rel = relation_oracle(
                [_as_dict(c) for c in instance.criteria], avec, pvec, lam
            )
            target[(name, action)] = {"a": "a", "b": "b"}.get(rel, "")
    return target


def _as_dict(criterion):
    from oracle import engine_criterion_to_dict

    return engine_criterion_to_dict(criterion)


class TestSelfConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_target_built_at_075_admits_075(self, seed):
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=3, n_levels=4, max_profiles_per_level=2, n_actions=5,
            strong_dominance=False))
        target = _computed_target(inst, 0.75)
        result = sweep_lambda(inst.table, inst.refs, inst.criteria, target)
        assert result.feasible
        assert any(iv.lower < 0.75 <= iv.upper for iv in result.intervals)

    def test_interval_endpoints_are_breakpoints(self):
        inst = generate_instance(3, GeneratorConfig(
            n_criteria=3, n_levels=3, max_profiles_per_level=2, n_actions=4,
            strong_dominance=False))
        target = _computed_target(inst, 0.8)
        result = sweep_lambda(inst.table, inst.refs, inst.criteria, target)
        endpoints = set(result.breakpoints) | {0.5}
        for iv in result.intervals:
            assert iv.lower in endpoints
            assert iv.upper in endpoints


class TestImpossibleTargets:
    def test_demanding_preference_below_half(self, hotel):
        # a4 vs b42: both credibilities equal 0.5, below every cutting
        # level in ]0.5, 1], so a4 is never strictly preferred to b42
        result = sweep_lambda(hotel["table"], hotel["refs"], hotel["criteria"],
                              {("b42", "a4"): "a"})
        assert not result.feasible

    def test_unknown_pair_rejected(self, hotel):
        with pytest.raises(KeyError):
            sweep_lambda(hotel["table"], hotel["refs"], hotel["criteria"],
                         {("nope", "a1"): "a"})


class TestHotelTarget:
    def test_full_target_is_infeasible_and_best_band_frozen(self, hotel):
        result = sweep_lambda(
            hotel["table"], hotel["refs"], hotel["criteria"], hotel["target"]
        )
        assert result.intervals == ()
        # closest band: ]sigma(b41,a5), sigma(b41,a1)] with exactly the two
        # pairs involving a4 unmatched
        assert result.best_band.lower == pytest.approx(0.713914849, abs=1e-9)
        assert result.best_band.upper == pytest.approx(13 / 18, abs=1e-12)
        assert set(result.mismatches_best) == {("b41", "a4"), ("b51", "a4")}

    def test_dont_care_blanks_still_infeasible(self, hotel):
        # the marks alone conflict: a4 beats b41 only below 0.51241 while
        # a5 beats b41 only above 0.71392
        result = sweep_lambda(
            hotel["table"], hotel["refs"], hotel["criteria"], hotel["target"],
            dont_care_blanks=True,
        )
        assert result.intervals == ()
        assert set(result.mismatches_best) <= {
            ("b41", "a4"), ("b41", "a5"), ("b51", "a4"), ("b51", "a5"),
        }

    def test_dont_care_blanks_cut_only_at_marked_pairs(self, hotel, hotel_vectors):
        # a blank constrains nothing under the flag, so its credibilities
        # cut no band; 0.777778 and 0.953704 come only from blank cells
        crit, target = hotel["criteria"], hotel["target"]
        sigmas = {
            credibility(crit, hotel_vectors[x], hotel_vectors[y])
            for (pname, action), mark in target.items() if mark
            for x, y in ((action, pname), (pname, action))
        }
        args = (hotel["table"], hotel["refs"], crit, target)
        relaxed = sweep_lambda(*args, dont_care_blanks=True).breakpoints
        assert list(relaxed) == sorted({s for s in sigmas if 0.5 < s <= 1.0} | {1.0})
        full = sweep_lambda(*args).breakpoints
        for blank_only in (0.777778, 0.953704):
            assert any(abs(b - blank_only) < 1e-6 for b in full)
            assert not any(abs(b - blank_only) < 1e-6 for b in relaxed)

    def test_target_without_a4_rows_is_feasible(self, hotel):
        # dropping the action with contradictory marks yields a real band
        target = {
            (p, a): mark for (p, a), mark in hotel["target"].items() if a != "a4"
        }
        result = sweep_lambda(
            hotel["table"], hotel["refs"], hotel["criteria"], target
        )
        assert result.feasible
        assert result.intervals[0].lower == pytest.approx(0.713914849, abs=1e-9)
        assert result.intervals[0].upper == pytest.approx(13 / 18, abs=1e-12)


class TestAgainstOracleBands:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_band_pattern_matches_oracle_at_midpoints(self, seed):
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=4, n_levels=3, max_profiles_per_level=2, n_actions=4,
            strong_dominance=False))
        target = _computed_target(inst, 0.66)
        result = sweep_lambda(inst.table, inst.refs, inst.criteria, target)
        assert result.feasible
        oracle_crit = [_as_dict(c) for c in inst.criteria]
        profiles = {n: v for n, _, _, v in inst.refs.flat_profiles()}
        # inside each returned interval the oracle agrees with the target;
        # just beyond each upper endpoint it must not
        for iv in result.intervals:
            lam = (iv.lower + iv.upper) / 2 if iv.lower > 0.5 else iv.upper
            for (pname, action), mark in target.items():
                rel = relation_oracle(
                    oracle_crit, inst.table.vector(action), profiles[pname], lam
                )
                assert {"a": "a", "b": "b"}.get(rel, "") == mark
        beyond = [iv.upper + 1e-9 for iv in result.intervals if iv.upper < 1.0]
        for lam in beyond:
            mismatch = any(
                {"a": "a", "b": "b"}.get(
                    relation_oracle(
                        oracle_crit, inst.table.vector(action), profiles[pname], lam
                    ), "",
                ) != mark
                for (pname, action), mark in target.items()
            )
            assert mismatch


class TestOneKernelCallPerPair:
    @pytest.mark.parametrize("flags", [[], ["--dont-care-blanks"]],
                             ids=["strict", "blanks"])
    def test_hotel(self, hotel, data_dir, monkeypatch, tmp_path, flags):
        calls = []

        def counted(*args):
            calls.append(args)
            return sigma_pair(*args)

        monkeypatch.setattr(sweep, "sigma_pair", counted)
        assert main([
            "sweep-lambda", str(data_dir / "hotel_model.json"),
            str(data_dir / "hotel_target_relations.csv"),
            "--performances", str(data_dir / "hotel_performances.csv"),
            "--output", str(tmp_path / "s.json"), *flags,
        ]) == EXIT_VERIFY
        marks = hotel["target"].values()
        assert len(calls) == sum(1 for m in marks if m or not flags)


class TestMemory:
    # a copy of the target, a 2-tuple of sigmas and two miss runs held per
    # pair cost about 450 bytes each; two floats in two lists, under 90
    PER_PAIR = 200

    def test_peak_per_constrained_pair_is_bounded(self):
        inst = generate_instance(1, GeneratorConfig(
            n_criteria=4, n_levels=10, max_profiles_per_level=5, n_actions=80,
            strong_dominance=False))
        target = _computed_target(inst, 0.7)
        assert len(target) >= 2000
        sweep_lambda(inst.table, inst.refs, inst.criteria, target)  # first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep_lambda(inst.table, inst.refs, inst.criteria, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / len(target) < self.PER_PAIR
