"""Metamorphic invariants of score_ranges.

Turning a criterion with constant thresholds from MAX to MIN while
negating its column, or doubling every weight, changes no credibility
bit, so ranges, relations, findings and the fast path must not move. The
first runs the certified fold's mirrored bounds against its direct ones.
Generated instances cover both; the hotel example adds findings and the
general bound scan.
"""

import dataclasses
import random

import pytest

from electre_score.model import (
    Direction,
    PerformanceTable,
    ReferenceStructure,
    ThresholdMode,
)
from electre_score.properties import GeneratorConfig, generate_instance
from electre_score.scoring import score_ranges

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
            dataclasses.replace(c, direction=_FLIP[c.direction]) if j in flipped else c
            for j, c in enumerate(criteria)
        ]
        swapped_table = PerformanceTable.from_rows(swapped, {
            action: _negate(vector, flipped) for action, vector in table.rows.items()
        })
        swapped_refs = ReferenceStructure(tuple(
            dataclasses.replace(ref, profiles=tuple(_negate(b, flipped) for b in ref.profiles))
            for ref in refs.sets
        ))
        assert _outcome(swapped, swapped_table, swapped_refs, lam) == _outcome(
            criteria, table, refs, lam
        ), case


@pytest.mark.parametrize("threshold_mode", ["constant", "variable"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_doubled_weights(hotel, threshold_mode, lam):
    for case, criteria, table, refs in _instances(hotel, threshold_mode):
        doubled = [dataclasses.replace(c, weight=2 * c.weight) for c in criteria]
        doubled_table = PerformanceTable.from_rows(doubled, table.rows)
        assert _outcome(doubled, doubled_table, refs, lam) == _outcome(
            criteria, table, refs, lam
        ), case
