"""Theorem-checker reports pinned on seeded instances.

``tests/golden/checker_reports.json`` holds the full conformity,
proposition and stability reports on a fixed mix of generated instances
(free and strong dominance, veto on and off, constant and variable
thresholds, cutting levels from the suite grid). It was written by the
implementation that kept its own name-keyed credibility memo, before the
checkers read the shared relation layer; the reports must not change.

Regenerate (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_checker_reports.py

which prints the key of every report that changed.
"""

import json
import random
from pathlib import Path

from electre_score.properties import (
    GeneratorConfig,
    Trial,
    check_conformity,
    check_propositions,
    check_stability,
    generate_instance,
    make_edits,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "checker_reports.json"
LAMBDA_GRID = (0.55, 0.65, 0.75, 0.85, 0.95, 1.0)


def cases() -> list[tuple[int, GeneratorConfig, float]]:
    out = []
    for i in range(40):
        rng = random.Random(7000 + i)
        config = GeneratorConfig(
            n_criteria=rng.randint(1, 6),
            n_levels=rng.randint(2, 6),
            max_profiles_per_level=rng.randint(1, 3),
            n_actions=rng.randint(0, 8),
            threshold_mode=("constant", "variable")[i % 2],
            veto=(i // 2) % 2 == 1,
            strong_dominance=(i // 4) % 2 == 0,
        )
        out.append((7000 + i, config, rng.choice(LAMBDA_GRID)))
    return out


def reports(seed, config, lam, rename=lambda name: name) -> dict:
    inst = generate_instance(seed, config)
    actions = {rename(a): inst.table.vector(a) for a in inst.table.actions}
    edits = make_edits(inst, random.Random(seed ^ 0x5EED), count=4)
    digest = inst.digest()

    def stamped(report) -> dict:
        # the checkers leave seed and digest to their caller, as the suites do
        failures = tuple(f._replace(seed=seed, digest=digest) for f in report.failures)
        return report._replace(failures=failures).as_dict()

    trial = Trial(inst.criteria, inst.refs, lam, actions)
    return {
        "conformity": stamped(check_conformity(trial)),
        "propositions": stamped(check_propositions(trial)),
        "stability": stamped(check_stability(trial, edits)),
    }


def all_reports() -> dict:
    return {
        f"{seed}@{lam}": reports(seed, config, lam) for seed, config, lam in cases()
    }


def _as_json(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_reports_match_golden():
    assert _as_json(all_reports()) == GOLDEN.read_text()


# action names that spell the labels of profiles (level k, profile p) and of
# profiles inserted by an edit (edit e, new profile n)
PROFILE_LIKE = ("L0P0", "E0N0", "L1P0", "E0N1", "E1N0", "L0P1", "E2N0", "L2P1")


def test_action_names_do_not_matter():
    golden = json.loads(GOLDEN.read_text())
    for seed, config, lam in cases():
        names = {f"a{i + 1}": new for i, new in enumerate(PROFILE_LIKE)}
        got = json.loads(json.dumps(reports(seed, config, lam, rename=names.get)))
        for report in got.values():
            for failure in report["failures"]:
                # failures about an action open with its name; map it back
                for old, new in names.items():
                    if failure["case"].startswith((new + ":", new + " ")):
                        failure["case"] = old + failure["case"][len(new):]
        assert got == golden[f"{seed}@{lam}"], (seed, lam)


def test_profile_named_action_keeps_propositions_clean():
    # an action named like the bottom profile must not take its place
    inst = generate_instance(6, GeneratorConfig(
        n_criteria=4, n_levels=4, max_profiles_per_level=2, n_actions=8))
    actions = {
        PROFILE_LIKE[i]: inst.table.vector(a) for i, a in enumerate(inst.table.actions)
    }
    report = check_propositions(Trial(inst.criteria, inst.refs, 0.75, actions))
    assert report.hypothesis_met
    assert report.failures == ()


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = all_reports()
    for key, report in new.items():
        if json.loads(json.dumps(report)) != old.get(key):
            print(f"changed: {key}")
    GOLDEN.write_text(_as_json(new))
