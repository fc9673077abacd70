"""Metamorphic invariants of score_ranges and the evaluate report.

Turning a criterion with constant thresholds from MAX to MIN while
negating its column, or doubling every weight, changes no credibility
bit, so ranges, relations, findings and the fast path must not move. The
first runs the certified fold's mirrored bounds against its direct ones.
Generated instances cover both; the hotel example adds findings and the
general bound scan. Listing the criteria in another order, with their
columns, must leave the evaluate report byte for byte the same.
"""

import csv
import json
import random

import pytest

from electre_score.cli import main

from electre_score.model import (
    Direction,
    PerformanceTable,
    ReferenceStructure,
    ThresholdMode,
)
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.scoring import score_ranges
from electre_score.suites import LAMBDA_GRID

LAMBDAS = (0.51, 0.65, 0.8, 1.0)
_FLIP = {Direction.MAX: Direction.MIN, Direction.MIN: Direction.MAX}


def _instances(hotel, threshold_mode):
    for seed in range(24):
        inst = generate_instance(seed, GeneratorConfig(
            n_criteria=1 + seed % 4, n_levels=2 + seed % 5,
            max_profiles_per_level=1 + seed % 3, n_actions=8,
            threshold_mode=threshold_mode, veto=seed % 2 == 1,
            strong_dominance=seed % 3 != 2,
        ))
        yield seed, inst.criteria, inst.table, inst.refs
    yield "hotel", hotel["criteria"], hotel["table"], hotel["refs"]


def _outcome(criteria, table, refs, lam):
    result = score_ranges(table, refs, criteria, lam, force=True)
    return result.ranges, result.relations, result.findings, result.used_fast_path


def _negate(vector, flipped):
    return tuple(-x if j in flipped else x for j, x in enumerate(vector))


def _constant(criterion):
    specs = (criterion.indifference, criterion.preference, criterion.veto)
    return all(s is None or s.mode is ThresholdMode.CONSTANT for s in specs)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_min_max_swap_with_negated_columns(hotel, lam):
    for case, criteria, table, refs in _instances(hotel, "constant"):
        rng = random.Random(str(case))
        flippable = [j for j, c in enumerate(criteria) if _constant(c)]
        flipped = {j for j in flippable if rng.random() < 0.7} or {flippable[0]}
        swapped = [
            c._replace(direction=_FLIP[c.direction]) if j in flipped else c
            for j, c in enumerate(criteria)
        ]
        swapped_table = PerformanceTable.from_rows(swapped, {
            action: _negate(vector, flipped) for action, vector in table.rows.items()
        })
        swapped_refs = ReferenceStructure(tuple(
            ref._replace(profiles=tuple(_negate(b, flipped) for b in ref.profiles))
            for ref in refs.sets
        ))
        assert _outcome(swapped, swapped_table, swapped_refs, lam) == _outcome(
            criteria, table, refs, lam
        ), case


@pytest.mark.parametrize("threshold_mode", ["constant", "variable"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_doubled_weights(hotel, threshold_mode, lam):
    for case, criteria, table, refs in _instances(hotel, threshold_mode):
        doubled = [c._replace(weight=2 * c.weight) for c in criteria]
        doubled_table = PerformanceTable.from_rows(doubled, table.rows)
        assert _outcome(doubled, doubled_table, refs, lam) == _outcome(
            criteria, table, refs, lam
        ), case


def _spec_json(spec):
    if spec is None:
        return None
    return {"intercept": spec.intercept, "slope": spec.slope, "mode": spec.mode.value}


def _instance_files(inst):
    """A generated instance as a model file's JSON and performance CSV rows."""
    model = {
        "criteria": [
            {"name": c.name, "direction": c.direction.value, "weight": c.weight,
             "indifference": _spec_json(c.indifference),
             "preference": _spec_json(c.preference), "veto": _spec_json(c.veto)}
            for c in inst.criteria
        ],
        "reference_sets": [
            {"score": ref.score, "profiles": [list(b) for b in ref.profiles]}
            for ref in inst.refs.sets
        ],
    }
    rows = [["action", *(c.name for c in inst.criteria)]]
    rows += [[a, *map(repr, inst.table.vector(a))] for a in inst.table.actions]
    return model, rows


def _permuted(model, rows, order):
    model = {**model, "criteria": [model["criteria"][j] for j in order],
             "reference_sets": [
                 {**ref, "profiles": [[b[j] for j in order] for b in ref["profiles"]]}
                 for ref in model["reference_sets"]
             ]}
    return model, [[row[0], *(row[1 + j] for j in order)] for row in rows]


def _evaluate(tmp_path, tag, model, rows, lam, *flags):
    model_path, perf, out = (tmp_path / f"{tag}{ext}" for ext in (".json", ".csv", ".out"))
    model_path.write_text(json.dumps(model))
    with open(perf, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = main(["evaluate", str(model_path), "--performances", str(perf),
                 "--lambda", str(lam), "--output", str(out), *flags])
    return code, out.read_bytes()


def _orders(n, rng):
    """The reversed order and two shuffles, none of them the identity."""
    orders = [list(range(n))[::-1]]
    for _ in range(2):
        order = list(range(n))
        while order == sorted(order):
            rng.shuffle(order)
        orders.append(order)
    return orders


def test_criterion_permutation_hotel(data_dir, tmp_path):
    model = json.loads((data_dir / "hotel_model.json").read_text())
    with open(data_dir / "hotel_performances.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    code, report = _evaluate(tmp_path, "base", model, rows, 0.65)
    assert code == 0
    for i, order in enumerate(_orders(len(model["criteria"]), random.Random(0))):
        assert _evaluate(tmp_path, f"p{i}", *_permuted(model, rows, order), 0.65) == (
            code, report
        ), order


@pytest.mark.parametrize("seed", range(20))
def test_criterion_permutation_generated(seed, tmp_path):
    rng = random.Random(seed)
    inst = generate_instance(seed, GeneratorConfig(
        n_criteria=2 + seed % 5, n_levels=rng.randint(2, 6),
        max_profiles_per_level=rng.randint(1, 3), n_actions=8,
        threshold_mode=("constant", "variable")[seed % 2], veto=seed % 4 >= 2,
        strong_dominance=seed % 3 != 2,
    ))
    model, rows = _instance_files(inst)
    orders = _orders(len(inst.criteria), rng)
    for lam in LAMBDA_GRID:
        base = _evaluate(tmp_path, "base", model, rows, lam, "--force")
        for i, order in enumerate(orders):
            assert _evaluate(
                tmp_path, f"p{i}", *_permuted(model, rows, order), lam, "--force"
            ) == base, (lam, order)
