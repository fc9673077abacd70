"""The package's public names, and the value semantics of its record types.

Every record type is immutable, compares and hashes by value, names its
class in ``repr`` and checks its invariants when it is built.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import electre_score
from electre_score.credibility import CompiledCriteria, compile_criteria
from electre_score.files import LoadedModel
from electre_score.model import (
    Criterion,
    DeckOfCards,
    Direction,
    PerformanceTable,
    ReferenceSet,
    ReferenceStructure,
    ThresholdMode,
    ThresholdSpec,
    ValidationReport,
)
from electre_score.properties import (
    DeleteProfile,
    DeleteSet,
    GeneratorConfig,
    InsertProfile,
    InsertSet,
    Instance,
    PropertyFailure,
    PropertyReport,
)
from electre_score.refsets import LevelPairFlags, SetClassification
from electre_score.scoring import ScoreRange, ScoringResult
from electre_score.sweep import LambdaInterval, SweepResult

# every name the package exports, with the module that defines it
PUBLIC = {
    "model": (
        "AllZeroWeightsError", "Criterion", "DeckOfCards", "Direction", "PerformanceTable",
        "ReferenceSet", "ReferenceStructure", "ThresholdMode", "ThresholdSpec",
        "ValidationReport", "deck_of_cards_scores", "validate_model",
    ),
    "credibility": (
        "CompiledCriteria", "compile_criteria", "credibility", "dominates", "sigma_pair",
    ),
    "refsets": (
        "ProfileTable", "SetClassification", "check_comparability", "check_separability",
        "derived_relation", "validate_basic_assumptions",
    ),
    "scoring": (
        "BasicAssumptionsViolatedError", "ScoreRange", "ScoringResult", "scan_bounds",
        "score_ranges",
    ),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in PUBLIC.items() for name in names
])
def test_public_name_imports_from_the_package(module, name):
    # ``from electre_score import name`` reads the same attribute
    defining = importlib.import_module(f"electre_score.{module}")
    assert getattr(electre_score, name) is getattr(defining, name)


def test_credibility_is_the_function():
    # the submodule of the same name is loaded, and must not replace it
    assert "electre_score.credibility" in sys.modules
    assert electre_score.credibility is sys.modules["electre_score.credibility"].credibility
    assert electre_score.credibility([_criterion()], (3.0,), (1.0,)) == 1.0


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        electre_score.no_such_name


def test_traced_names_resolve():
    # perfbench/trace_cli.py wraps these by name, so a deleted one would
    # break `perfbench/run.py --trace 1`; the file is loaded read-only and
    # its install(), which patches modules, is not called
    source = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", source)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    for module, name in [*trace_cli.SPANS, trace_cli.KERNEL]:
        target = getattr(importlib.import_module(f"electre_score.{module}"), name, None)
        assert callable(target), (module, name)
    suites = importlib.import_module("electre_score.suites")
    assert suites.SUITES
    assert all(isinstance(name, str) and callable(run) for name, run in suites.SUITES.items())


def _criterion(name="g", weight=1.0):
    return Criterion(name, Direction.MAX, weight, ThresholdSpec(1.0),
                     ThresholdSpec(2.0, 0.01, ThresholdMode.DIRECT))


def _refs():
    return ReferenceStructure((ReferenceSet(0.0, ((0.0,),)), ReferenceSet(1.0, ((5.0,),))))


# name -> (build from fresh equal values, a field, hashable)
RECORDS = {
    "ThresholdSpec": (lambda: ThresholdSpec(1.0, 0.5, ThresholdMode.DIRECT), "slope", True),
    "Criterion": (_criterion, "weight", True),
    # its rows are a dict
    "PerformanceTable": (lambda: PerformanceTable((_criterion(),), {"a": (1.0,)}), "rows", False),
    "ReferenceSet": (lambda: ReferenceSet(10.0, ((1.0,), (2.0,)), ("b11", "b12")), "score", True),
    "ReferenceStructure": (_refs, "sets", True),
    "ValidationReport": (lambda: ValidationReport(("e",), ("w",)), "errors", True),
    "CompiledCriteria": (lambda: compile_criteria([_criterion()]), "total_weight", True),
    "LevelPairFlags": (lambda: LevelPairFlags(True, True, False, False, True, False),
                       "strong_dominance", True),
    "DeckOfCards": (lambda: DeckOfCards((1, 2), (0.0, 100.0)), "anchors", True),
    "ScoreRange": (lambda: ScoreRange("a", 0.0, 10.0, 0, 1), "lower", True),
    "ScoringResult": (lambda: ScoringResult(
        (ScoreRange("a", 0.0, 10.0, 0, 1),), (), True,
        ((SetClassification.ACTION_PREFERRED, SetClassification.SET_PREFERRED),),
    ), "findings", True),
    "LambdaInterval": (lambda: LambdaInterval(0.5, 0.75), "upper", True),
    "SweepResult": (lambda: SweepResult(
        (LambdaInterval(0.5, 0.75),), (0.75, 1.0), (), LambdaInterval(0.5, 0.75)
    ), "breakpoints", True),
    "LoadedModel": (lambda: LoadedModel((_criterion(),), _refs(), None, None, ()), "lam", True),
    "GeneratorConfig": (lambda: GeneratorConfig(n_criteria=2, veto=True), "n_levels", True),
    # its table's rows are a dict
    "Instance": (lambda: Instance(
        (_criterion(),), PerformanceTable((_criterion(),), {"a": (1.0,)}), _refs()
    ), "refs", False),
    "InsertSet": (lambda: InsertSet(0.5, ((2.0,),)), "score", True),
    "DeleteSet": (lambda: DeleteSet(1), "level", True),
    "InsertProfile": (lambda: InsertProfile(0, (1.0,)), "profile", True),
    "DeleteProfile": (lambda: DeleteProfile(1, 0), "profile_index", True),
    "PropertyFailure": (lambda: PropertyFailure(3, "abc", "case", "x", "y"), "seed", True),
    "PropertyReport": (lambda: PropertyReport(
        "conformity", 2, (PropertyFailure(3, "abc", "case", "x", "y"),), notes=("n",)
    ), "failures", True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_attribute_assignment_raises(name):
    build, field, _ = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    build, _, hashable = RECORDS[name]
    first, second = build(), build()
    assert first is not second and first == second
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class(name):
    build, _, _ = RECORDS[name]
    assert repr(build()).startswith(f"{name}(")


@pytest.mark.parametrize("build, message", [
    (lambda: ThresholdSpec(1.0, 0.5), "constant threshold requires slope = 0"),
    (lambda: ThresholdSpec(1.0)._replace(slope=0.5), "constant threshold requires slope = 0"),
    (lambda: _criterion(weight=-1.0), "criterion 'g': weight must be >= 0"),
    (lambda: PerformanceTable((_criterion(),), {"a": (1.0, 2.0)}),
     "action 'a': expected 1 performances, got 2"),
    (lambda: ReferenceSet(0.0, ()), "reference set must contain at least one profile"),
    (lambda: ReferenceSet(0.0, ((0.0,),), ("b", "c")),
     "profile name count must match profile count"),
    (lambda: ReferenceStructure((ReferenceSet(0.0, ((0.0,),)),)),
     "reference structure needs at least two sets"),
    (lambda: _refs()._replace(sets=()), "reference structure needs at least two sets"),
    (lambda: DeckOfCards(()), "need at least two levels"),
    (lambda: DeckOfCards((1, -1)), "blank-card counts must be nonnegative integers"),
    (lambda: DeckOfCards((1.5,)), "blank-card counts must be nonnegative integers"),
    (lambda: DeckOfCards((1,), (100.0, 0.0)), "anchor scores must satisfy low < high"),
    (lambda: DeckOfCards((1,), (-1e308, 1e308)), "anchor span .* beyond the float range"),
], ids=[
    "spec-constant-slope", "spec-replace", "criterion-weight", "table-row", "set-empty",
    "set-names", "structure-one-set", "structure-replace", "deck-no-count",
    "deck-negative", "deck-fraction", "deck-anchor-order", "deck-anchor-span",
])
def test_constructor_checks_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# one field out of range for each check of GeneratorConfig
CONFIG_CHECKS = {
    "n_criteria": (0, "config sizes below the minimal instance"),
    "n_levels": (1, "config sizes below the minimal instance"),
    "n_actions": (-1, "config sizes below the minimal instance"),
    "max_profiles_per_level": (0, "need at least one profile per level"),
    "threshold_mode": ("linear", "threshold_mode must be 'constant' or 'variable'"),
}


@pytest.mark.parametrize("field", CONFIG_CHECKS)
def test_generator_config_checks_raise(field):
    value, message = CONFIG_CHECKS[field]
    with pytest.raises(ValueError, match=message):
        GeneratorConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        GeneratorConfig()._replace(**{field: value})
