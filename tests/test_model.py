import pytest

from electre_score.credibility import compile_criteria
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
    validate_model,
)


def _const_criterion(name="g", weight=1.0, q=1.0, p=2.0):
    return Criterion(
        name, Direction.MAX, weight,
        ThresholdSpec(q), ThresholdSpec(p),
    )


# a valid reference structure for one criterion, for the threshold checks
TWO_SETS = ReferenceStructure((
    ReferenceSet(0.0, ((0.0,),)),
    ReferenceSet(1.0, ((5.0,),)),
))


class TestThresholdSpec:
    def test_constant_requires_zero_slope(self):
        with pytest.raises(ValueError):
            ThresholdSpec(1.0, 0.5, ThresholdMode.CONSTANT)

    def test_affine_evaluation_is_nonnegative_on_hotel_scale(self):
        # 250 + 0.03 * 13000 = 640
        spec = ThresholdSpec(250.0, 0.03, ThresholdMode.DIRECT)
        assert spec.at(13000) == pytest.approx(640.0)


class TestAllZeroWeights:
    def test_compile_criteria_rejects_all_zero(self):
        crits = [_const_criterion("a", 0.0), _const_criterion("b", 0.0)]
        with pytest.raises(AllZeroWeightsError, match="all criterion weights are zero"):
            compile_criteria(crits)


class TestCuttingLevel:
    @pytest.mark.parametrize("bad", [0.5, 0.49, 1.0001, 0.0, -1.0])
    def test_rejects_out_of_band(self, bad):
        with pytest.raises(ValueError):
            check_cutting_level(bad)

    @pytest.mark.parametrize("ok", [0.500001, 0.75, 1.0])
    def test_accepts_band(self, ok):
        assert check_cutting_level(ok) == ok


class TestValidateModel:
    def test_hotel_instance_is_clean(self, hotel):
        report = validate_model(hotel["table"], hotel["refs"])
        assert report.errors == ()
        assert report.ok

    def test_equal_scores_rejected(self):
        crit = (_const_criterion(),)
        refs = ReferenceStructure((
            ReferenceSet(1.0, ((0.0,),)),
            ReferenceSet(1.0, ((5.0,),)),
        ))
        table = PerformanceTable.from_rows(crit, {"a": (3.0,)})
        report = validate_model(table, refs)
        assert any("strictly increasing" in e for e in report.errors)

    def test_inverted_thresholds_detected(self):
        crit = (Criterion("g", Direction.MAX, 1.0, ThresholdSpec(3.0), ThresholdSpec(1.0)),)
        table = PerformanceTable.from_rows(crit, {"a": (0.0,)})
        report = validate_model(table, TWO_SETS)
        assert any("exceeds" in e for e in report.errors)

    def test_veto_must_exceed_preference(self):
        crit = (
            Criterion("g", Direction.MAX, 1.0, ThresholdSpec(1.0), ThresholdSpec(2.0),
                      veto=ThresholdSpec(2.0)),
        )
        table = PerformanceTable.from_rows(crit, {"a": (0.0,)})
        report = validate_model(table, TWO_SETS)
        assert any("veto" in e for e in report.errors)

    def test_ordinal_noninteger_threshold_flagged_as_warning(self):
        crit = (
            Criterion("g", Direction.MAX, 1.0, ThresholdSpec(0.5), ThresholdSpec(2.0),
                      ordinal=True),
        )
        table = PerformanceTable.from_rows(crit, {"a": (3.0,)})
        report = validate_model(table, TWO_SETS)
        assert report.ok
        assert any("ordinal" in w for w in report.warnings)

    def test_infinite_preference_threshold_is_an_error(self):
        # p = 1 + 1e200 * g overflows to inf at every value of g1; without
        # a veto p must be finite, or the kernel's credibilities are NaN
        crit = (
            Criterion("g1", Direction.MAX, 1.0, ThresholdSpec(0.5),
                      ThresholdSpec(1.0, 1e200, ThresholdMode.DIRECT)),
            _const_criterion("g2", q=1.0, p=2.0),
        )
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((1e200, 0.0),)),
            ReferenceSet(100.0, ((3e200, 100.0),)),
        ))
        table = PerformanceTable.from_rows(crit, {"a1": (2e200, 50.0)})
        report = validate_model(table, refs)
        assert report.errors == (
            "criterion g1: preference threshold p(2e+200)=inf is not finite",
            "criterion g1: preference threshold p(1e+200)=inf is not finite",
            "criterion g1: preference threshold p(3e+200)=inf is not finite",
        )

    def test_duplicate_action_profile_ids(self):
        crit = (_const_criterion(),)
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0,),), names=("a",)),
            ReferenceSet(1.0, ((5.0,),)),
        ))
        table = PerformanceTable.from_rows(crit, {"a": (3.0,)})
        report = validate_model(table, refs)
        assert any("both as action and profile" in e for e in report.errors)

    def test_profile_arity_checked(self):
        crit = (_const_criterion("g1"), _const_criterion("g2"))
        refs = ReferenceStructure((
            ReferenceSet(0.0, ((0.0,),)),
            ReferenceSet(1.0, ((5.0, 5.0),)),
        ))
        table = PerformanceTable.from_rows(crit, {"a": (3.0, 3.0)})
        report = validate_model(table, refs)
        assert any("expected 2 values" in e for e in report.errors)


class TestStructures:
    def test_reference_structure_needs_two_sets(self):
        with pytest.raises(ValueError):
            ReferenceStructure((ReferenceSet(0.0, ((0.0,),)),))

    def test_reference_set_nonempty(self):
        with pytest.raises(ValueError):
            ReferenceSet(0.0, ())

    def test_default_profile_names_are_positional(self, hotel):
        names = hotel["refs"].profile_names()
        assert names[0] == ("b11",)
        assert names[1] == ("b21", "b22")
        assert names[6] == ("b71",)

    def test_table_vector_roundtrip(self, hotel):
        table = hotel["table"]
        assert table.vector("a1") == (13000, 3000, 4, 4, 4)
        assert table.vector("a1") is table.rows["a1"]
        assert table.actions == tuple(table.rows) == ("a1", "a2", "a3", "a4", "a5")
        column = [c.name for c in table.criteria].index("ACOST")
        assert table.vector("a2")[column] == 2500

    def test_short_row_raises_at_construction(self):
        # a table is total by construction, so no check looks for a missing cell
        crit = (_const_criterion("g1"), _const_criterion("g2"))
        with pytest.raises(ValueError, match="expected 2 performances, got 1"):
            PerformanceTable(crit, {"a": (1.0,)})
        with pytest.raises(ValueError, match="expected 2 performances, got 3"):
            PerformanceTable.from_rows(crit, {"a": (1, 2, 3)})
