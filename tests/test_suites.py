"""The credibility suites of ``verify`` must notice a wrong kernel.

Each suite reads ``suites.sigma_pair``. Replacing it with a corrupted
kernel must turn the suite's report into failures of the check that
the corruption breaks; a suite that stopped checking would still pass.
Each suite's kernel calls are pinned too, so one that drew fewer pairs
fails here, and so are the reports of the checked suites when a
corrupted bound scan makes their trials fail. The checked suites run in
one pass must give each suite's own report, from one instance per trial.
"""

import hashlib
import json
from collections import Counter

import pytest

from electre_score import properties, refsets, suites

KERNEL = suites.sigma_pair


def _swapped(kernel, pa, pb):
    sab, sba = KERNEL(kernel, pa, pb)
    return sba, sab


def _order_dependent(kernel, pa, pb):
    # right for one argument order, swapped for the other
    sab, sba = KERNEL(kernel, pa, pb)
    return (sba, sab) if tuple(pa) > tuple(pb) else (sab, sba)


def _reverse_scaled(kernel, pa, pb):
    sab, sba = KERNEL(kernel, pa, pb)
    return sab, 0.9 * sba


def _vetoes_raised(kernel, pa, pb):
    # credibility up by 0.1 (at most 1) wherever a criterion has a veto;
    # the veto-stripped concordance kernel is left alone
    sab, sba = KERNEL(kernel, pa, pb)
    if all(row[5] is None for row in kernel.rows):
        return sab, sba
    return min(1.0, sab + 0.1), min(1.0, sba + 0.1)


@pytest.mark.parametrize("suite, corrupted, case", [
    ("dominance-implications", _swapped, "dominance gives credibility 1"),
    ("dominance-implications", _swapped, "outrank then dominated target"),
    ("sigma-invariants", _reverse_scaled, "reflexivity at"),
    ("sigma-invariants-veto", _reverse_scaled, "reflexivity at"),
    ("variable-thresholds", _reverse_scaled, "reflexivity at"),
    ("sigma-invariants-veto", _vetoes_raised, "credibility cap"),
    ("sigma-invariants", _swapped, "dominance gives credibility 1"),
    ("sigma-invariants-veto", _swapped, "dominance gives credibility 1"),
    ("variable-thresholds", _swapped, "dominance gives credibility 1"),
    ("sigma-invariants", _order_dependent, "relation mirror symmetry"),
    ("sigma-invariants-veto", _order_dependent, "relation mirror symmetry"),
    ("variable-thresholds", _order_dependent, "relation mirror symmetry"),
], ids=lambda x: getattr(x, "__name__", x))
def test_corrupted_kernel_fails_the_suite(monkeypatch, suite, corrupted, case):
    assert suites.SUITES[suite](20, 1).passed
    monkeypatch.setattr(suites, "sigma_pair", corrupted)
    report = suites.SUITES[suite](20, 1)
    assert not report.passed
    assert any(f.case.startswith(case) for f in report.failures)


@pytest.mark.parametrize("suite, calls", [
    ("dominance-implications", 300),  # 3 draws of 5 pairs per trial
    ("sigma-invariants", 300),  # 3 reflexive pairs, 6 drawn pairs read both ways
    ("sigma-invariants-veto", 420),  # as above, plus concordance per drawn pair
    ("variable-thresholds", 380),  # as sigma-invariants, plus 2 draws of 2 pairs
])
def test_kernel_calls_are_pinned(monkeypatch, suite, calls):
    # verify prints only counts for a passing suite, so a suite that drew
    # fewer pairs would still match its golden; its kernel calls would not
    seen = []

    def counting(kernel, pa, pb):
        seen.append((pa, pb))
        return KERNEL(kernel, pa, pb)

    monkeypatch.setattr(suites, "sigma_pair", counting)
    assert suites.SUITES[suite](20, 1).passed
    assert len(seen) == calls


def _lower_one_level_down(real):
    def corrupted(relations, scores):
        lower, upper = real(relations, scores)
        if lower is not None and lower[1] > 0:
            lower = scores[lower[1] - 1], lower[1] - 1
        return lower, upper

    return corrupted


@pytest.mark.parametrize("suite, failures, sha256", [
    ("conformity", 21,
     "2a85caa07a32656768bd7aec01d1339ad6fd7ed3e40d1118d11698ccb8b59dba"),
    ("propositions", 44,
     "ba9bf54df13228f340ad2a3db076cf0deb29e548b6b819933d685fd84b3518f1"),
    ("stability", 18,
     "3ea224968afc3065d5b2ba382c08609c56dfa94a3188ab0c9929e45d55a367d0"),
], ids=["conformity", "propositions", "stability"])
def test_failing_trials_are_pinned(monkeypatch, suite, failures, sha256):
    # no golden has a failing trial; a lower bound scanned one level too
    # low makes these suites fail, and their reports pin the shrinking and
    # the seed and digest stamped on every failure
    monkeypatch.setattr(properties, "scan_bounds", _lower_one_level_down(properties.scan_bounds))
    report = suites.run_checked_suites([suite], 25, 4)[suite]
    assert len(report.failures) == failures
    assert all(f.seed is not None and f.digest for f in report.failures)
    blob = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == sha256


CHECKED = ("propositions", "conformity", "stability")


@pytest.mark.parametrize("names", [
    ["stability"], ["conformity", "propositions"], list(CHECKED),
], ids="+".join)
@pytest.mark.parametrize("seed", [1, 4])
def test_joint_pass_equals_each_suite_alone(names, seed):
    joint = suites.run_checked_suites(names, 30, seed)
    assert list(joint) == names
    for name in names:
        assert joint[name] == suites.run_checked_suites([name], 30, seed)[name]


def test_joint_pass_shrinks_as_each_suite_alone(monkeypatch):
    # with failing trials, each suite still shrinks on fresh trials of its own
    monkeypatch.setattr(properties, "scan_bounds", _lower_one_level_down(properties.scan_bounds))
    joint = suites.run_checked_suites(list(CHECKED), 12, 4)
    for name in CHECKED:
        assert joint[name].failures
        assert joint[name] == suites.run_checked_suites([name], 12, 4)[name]


def test_run_suites_keeps_the_order_and_repeats(monkeypatch):
    # the checked suites draw their trials once, between the others
    names = ["conformity", "deck-example", "propositions", "sigma-invariants", "conformity"]
    drawn = []
    generate = suites.generate_instance

    def generating(*args):
        drawn.append(args)
        return generate(*args)

    alone = [
        suites.run_checked_suites([name], 10, 1)[name] if name in CHECKED
        else suites.SUITES[name](10, 1)
        for name in names
    ]
    monkeypatch.setattr(suites, "generate_instance", generating)
    assert list(suites.run_suites(names, 10, 1)) == alone
    assert len(drawn) == 20  # ten for the checked pass, ten for sigma-invariants


@pytest.mark.parametrize("names, calls", [
    (["propositions"], 1913),  # the profile table, then every action's rows
    (["conformity"], 1024),  # the profile table
    (["stability"], 1297),  # every action's rows, then the inserted profiles
    # each of the above once: 5366 when every suite drew its own trials
    (list(CHECKED), 2321),
], ids=lambda x: "+".join(x) if isinstance(x, list) else str(x))
def test_checked_kernel_calls_are_pinned(monkeypatch, names, calls):
    # one instance per trial, however many checked suites read it
    seen = Counter()
    kernel, generate = refsets.sigma_pair, suites.generate_instance

    def counting(compiled, pa, pb):
        seen["sigma_pair"] += 1
        return kernel(compiled, pa, pb)

    def generating(*args):
        seen["generate_instance"] += 1
        return generate(*args)

    monkeypatch.setattr(refsets, "sigma_pair", counting)
    monkeypatch.setattr(suites, "generate_instance", generating)
    assert all(r.passed for r in suites.run_checked_suites(names, 20, 1).values())
    assert seen == {"generate_instance": 20, "sigma_pair": calls}


@pytest.mark.parametrize("overrides, sha256", [
    ({}, "786054f60e066dec405d586c0d0290144de3cba730701b8c41958535204e3eed"),
    (dict(actions=(3, 8), strong_dominance=False),
     "484bbd7d5088d7c61a7ed137d9e497d48a025563bd9b6218147fbbacf07abc27"),
    (dict(actions=(2, 8), veto=False, threshold_mode="constant", strong_dominance=False),
     "adb96d94a12a2e9e35bc5d8d0fa471bbb2b87d5cc056c45a5be774863d50f246"),
    (dict(actions=(2, 8), veto=True, threshold_mode="constant", strong_dominance=False),
     "bc380b8caa990544dafcff07878aeae34c9bc32225f778248ff34dac509c458f"),
    (dict(actions=(3, 6), salt=0x7A11, threshold_mode="variable", strong_dominance=False),
     "41f68799bab93bd2421e9c991dda6c3381f7e61e91c88f1e3b5e6c0835fc9a5e"),
], ids=["checked", "dominance-implications", "sigma-invariants", "sigma-invariants-veto",
        "variable-thresholds"])
def test_trial_draws_are_pinned(overrides, sha256):
    # a passing suite prints only counts, so an instance drawn differently
    # that still passes would match every golden; each trial's instance and
    # the draw that follows it are pinned bit for bit instead
    digest = hashlib.sha256()
    for trial_seed, rng, inst in suites._trials(30, 1, **overrides):
        digest.update(f"{trial_seed} {inst!r} {rng.random()!r}\n".encode())
    assert digest.hexdigest() == sha256


def test_dominated_variants_are_pinned():
    digest = hashlib.sha256()
    for _, rng, inst in suites._trials(30, 1, actions=(3, 8), strong_dominance=False):
        for vec in inst.table.rows.values():
            digest.update(repr(suites._dominated_variant(rng, inst.criteria, vec)).encode())
        digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == (
        "07716c1d4d020f2b8642c8aee386cba257002a43e3bd0ea08d0f1c9f06233daf"
    )


def test_checked_pass_calls_are_pinned(monkeypatch):
    # the 100-trial seed-1 joint pass: an edited structure's soft dominance
    # reads only the level pairs the edit touches (6,223 dominates and 457
    # soft_dominance calls when every edited structure was read whole),
    # while every pair and every bound scan the checkers ran is still run
    seen = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            seen[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(refsets, "dominates")
    counting(refsets, "sigma_pair")
    counting(properties, "soft_dominance")
    counting(properties, "scan_bounds")
    assert all(r.passed for r in suites.run_checked_suites(list(CHECKED), 100, 1).values())
    assert seen == {"dominates": 2891, "soft_dominance": 100,
                    "sigma_pair": 10256, "scan_bounds": 6323}
