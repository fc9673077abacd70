"""Seeded inputs for the benchmark workloads.

Every file the program reads is built here from the workload seed with
``random.Random`` alone. The package's own instance generator is not
used, so refactoring it cannot change what the benchmark measures.

Performances live on a "goodness" scale ``u`` (bigger is better) and are
written as raw values: ``100 + u`` on maximised criteria, ``400 - u`` on
minimised ones, which keeps every variable threshold positive.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# evaluate-batch: strongly separated levels, so the basic assumptions
# hold at every cutting level and every action is comparable
EVAL_ACTIONS = 1000
EVAL_CRITERIA = 8
EVAL_LEVELS = 8
# profiles per level: the bottom and top counts set the comparability
# work, the total the scoring work; both are the same for every seed
EVAL_END_PROFILES = 2
EVAL_MIDDLE_PROFILES = (1, 2, 3, 3, 4, 3)
EVAL_LAMBDA = 0.65
EVAL_ORACLE_SAMPLE = 80
EVAL_LEVEL_GAP = 12.5      # exceeds the largest preference threshold (7.4)
EVAL_PROFILE_JITTER = 0.2  # half the smallest indifference threshold (0.5)
EVAL_ACTION_SPREAD = 10.0

# lambda-analysis: crowded levels, so credibilities between neighbouring
# levels fall in the weak-preference zone and give many breakpoints
SWEEP_CRITERIA = 6
SWEEP_LEVELS = 10
SWEEP_PROFILES = 3
SWEEP_ACTIONS_PER_LEVEL = 8
SWEEP_Q, SWEEP_P = 1.0, 6.0
SWEEP_PHI = (0.45, 0.8)          # per-criterion concordance between neighbours
SWEEP_CONCORDANCE = (0.56, 0.78)  # their weighted mean, before jitter
SWEEP_JITTER = 0.1               # moves a concordance by at most 0.04
SWEEP_LAMBDA_RANKS = 10
# reports round to six decimals; a wider band keeps the target's lambda
# clear of the rounded band edges
SWEEP_MIN_BAND = 1e-4

# verify-suites: the five documented suites, pinned so a change of the
# command's default list does not change the workload. The suites draw
# instance sizes from their own seed, and one command took from 1.5 s to
# 2.0 s across six suite seeds at 60 trials. So the suite seed is fixed
# (the documented default, 1) and this workload does not vary with --seed.
VERIFY_SUITES = (
    "dominance-implications",
    "sigma-invariants",
    "propositions",
    "conformity",
    "stability",
)
VERIFY_TRIALS = 100
VERIFY_SEED = 1


@dataclass
class Inputs:
    """Generated files plus what the output checks need to know."""

    files: dict[str, Path]
    sha256: dict[str, str]
    facts: dict


def _raw(direction: str, u: float) -> float:
    return round(100.0 + u if direction == "max" else 400.0 - u, 3)


def _criterion(name, direction, weight, q, p, v=None) -> tuple[dict, dict]:
    """Model-file criterion and the oracle's dict for the same thresholds."""
    def spec(t):
        return None if t is None else {"intercept": t[0], "slope": t[1], "mode": t[2]}

    model = {
        "name": name, "direction": direction, "weight": weight,
        "indifference": spec(q), "preference": spec(p), "veto": spec(v),
    }
    return model, {"direction": direction, "weight": weight, "q": q, "p": p, "v": v}


def _save(out: Path, texts: dict[str, tuple[str, str]], facts: dict) -> Inputs:
    """Write ``{role: (file name, text)}`` and record each file's sha256."""
    files, digests = {}, {}
    for role, (name, text) in texts.items():
        files[role] = out / name
        files[role].write_text(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return Inputs(files, digests, facts)


def _csv(rows) -> str:
    return "".join(",".join(str(cell) for cell in row) + "\n" for row in rows)


def _model(criteria, levels, scores, names=None) -> str:
    sets = []
    for k, (profiles, score) in enumerate(zip(levels, scores)):
        entry = {"score": score, "profiles": [list(p) for p in profiles]}
        if names is not None:
            entry["names"] = names[k]
        sets.append(entry)
    return json.dumps({"criteria": criteria, "reference_sets": sets}, indent=1) + "\n"


def _performances(criteria, actions) -> str:
    header = ["action"] + [c["name"] for c in criteria]
    return _csv([header] + [[a, *vec] for a, vec in actions.items()])


def evaluate_batch(seed: int, out: Path, oracle) -> Inputs:
    rng = random.Random(f"evaluate-batch:{seed}")
    modes = ["constant"] * 3 + ["direct"] * 3 + ["inverse"] * 2
    rng.shuffle(modes)
    vetoed = set(rng.sample(range(EVAL_CRITERIA), EVAL_CRITERIA // 2))
    crit_json, crit_oracle, directions = [], [], []
    for j, mode in enumerate(modes):
        direction = rng.choice(("max", "min"))
        q0 = round(rng.uniform(0.5, 1.2), 3)
        p0 = round(q0 + rng.uniform(1.5, 3.0), 3)
        sq = sp = 0.0
        if mode != "constant":
            sq = round(rng.uniform(0.0, 0.004), 5)
            sp = round(sq + rng.uniform(0.0, 0.004), 5)
        veto = None
        if j in vetoed:
            veto = (round(p0 + rng.uniform(8.0, 15.0), 3), sp, mode)
        weight = round(rng.uniform(1.0, 5.0), 2)
        m, o = _criterion(f"g{j + 1}", direction, weight, (q0, sq, mode), (p0, sp, mode), veto)
        crit_json.append(m)
        crit_oracle.append(o)
        directions.append(direction)

    scores = [0.0]
    for _ in range(EVAL_LEVELS - 1):
        scores.append(scores[-1] + rng.randint(5, 15))
    centers = [6.0 + EVAL_LEVEL_GAP * k for k in range(EVAL_LEVELS)]
    middle = list(EVAL_MIDDLE_PROFILES)
    rng.shuffle(middle)
    levels = []
    for c, count in zip(centers, [EVAL_END_PROFILES, *middle, EVAL_END_PROFILES]):
        levels.append([
            tuple(_raw(d, c + rng.uniform(-EVAL_PROFILE_JITTER, EVAL_PROFILE_JITTER))
                  for d in directions)
            for _ in range(count)
        ])

    # actions stay a full level gap inside the bottom and top centres, so
    # they beat every bottom profile and lose to every top one on every
    # criterion beyond the preference threshold
    lo_u, hi_u = centers[0] + 10.0, centers[-1] - 10.0
    actions = {}
    for i in range(EVAL_ACTIONS):
        centre = lo_u + rng.random() * (hi_u - lo_u)
        actions[f"a{i + 1}"] = tuple(
            _raw(d, min(hi_u, max(lo_u, centre + rng.gauss(0.0, EVAL_ACTION_SPREAD))))
            for d in directions
        )

    return _save(out, {
        "model": ("model.json", _model(crit_json, levels, scores)),
        "performances": ("performances.csv", _performances(crit_json, actions)),
    }, {
        "criteria": crit_oracle, "levels": levels, "scores": scores, "actions": actions,
        "sample": rng.sample(list(actions), EVAL_ORACLE_SAMPLE), "lambda": EVAL_LAMBDA,
    })


def _weighted_mean(values, weights) -> float:
    return sum(v * w for v, w in zip(values, weights)) / sum(weights)


def lambda_analysis(seed: int, out: Path, oracle) -> Inputs:
    rng = random.Random(f"lambda-analysis:{seed}")
    crit_json, crit_oracle, directions, weights = [], [], [], []
    for j in range(SWEEP_CRITERIA):
        direction = rng.choice(("max", "min"))
        weight = round(rng.uniform(1.0, 3.0), 2)
        m, o = _criterion(f"g{j + 1}", direction, weight, (SWEEP_Q, 0.0, "constant"),
                          (SWEEP_P, 0.0, "constant"))
        crit_json.append(m)
        crit_oracle.append(o)
        directions.append(direction)
        weights.append(weight)

    # Each gap between neighbouring levels is set through the concordance
    # it gives on each criterion (phi in the weak-preference zone), and
    # redrawn until the weighted concordance lies well inside ]0.5, 1[.
    # Then every lower-vs-next-level credibility is its own breakpoint,
    # pairs two or more levels apart stay below 0.5 (their gaps add up to
    # at least 2 * 2.0 - 2 * jitter > (p + q) / 2 per criterion), and the
    # number of breakpoints does not depend on the seed.
    positions = [[20.0] * SWEEP_CRITERIA]
    for _ in range(SWEEP_LEVELS - 1):
        while True:
            phi = [rng.uniform(*SWEEP_PHI) for _ in range(SWEEP_CRITERIA)]
            if SWEEP_CONCORDANCE[0] <= _weighted_mean(phi, weights) <= SWEEP_CONCORDANCE[1]:
                break
        positions.append([x + SWEEP_P - f * (SWEEP_P - SWEEP_Q)
                          for x, f in zip(positions[-1], phi)])

    def near(level: int) -> tuple[float, ...]:
        return tuple(_raw(d, x + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))
                     for d, x in zip(directions, positions[level]))

    scores = [float(10 * k) for k in range(SWEEP_LEVELS)]
    levels = [[near(k) for _ in range(SWEEP_PROFILES)] for k in range(SWEEP_LEVELS)]
    names = [[f"r{k + 1:02d}_{p + 1}" for p in range(SWEEP_PROFILES)]
             for k in range(SWEEP_LEVELS)]
    actions = {}
    for k in range(SWEEP_LEVELS):
        for _ in range(SWEEP_ACTIONS_PER_LEVEL):
            actions[f"a{len(actions) + 1}"] = near(k)

    flat = [(n, vec) for level_names, profiles in zip(names, levels)
            for n, vec in zip(level_names, profiles)]
    sigma = {}
    for pname, pvec in flat:
        for a, avec in actions.items():
            sigma[(a, pname)] = oracle.sigma_oracle(crit_oracle, avec, pvec)
            sigma[(pname, a)] = oracle.sigma_oracle(crit_oracle, pvec, avec)
    points = sorted({v for v in sigma.values() if 0.5 < v <= 1.0} | {1.0})
    bands = list(zip([0.5] + points[:-1], points))
    # the target's lambda sits in a band near the middle breakpoint, so the
    # sweep's mismatch lists, and with them its memory, do not vary by seed
    middle = len(bands) // 2
    candidates = [(lo + hi) / 2 for lo, hi in bands[middle - SWEEP_LAMBDA_RANKS:
                                                    middle + SWEEP_LAMBDA_RANKS]
                  if hi - lo > SWEEP_MIN_BAND]
    lam_star = rng.choice(candidates)

    def mark(a: str, pname: str) -> str:
        sab = sigma[(a, pname)] >= lam_star
        sba = sigma[(pname, a)] >= lam_star
        return "a" if sab and not sba else "b" if sba and not sab else ""

    target = [["profile"] + list(actions)]
    target += [[pname] + [mark(a, pname) for a in actions] for pname, _ in flat]
    return _save(out, {
        "model": ("model.json", _model(crit_json, levels, scores, names)),
        "performances": ("performances.csv", _performances(crit_json, actions)),
        "target": ("target.csv", _csv(target)),
    }, {"lambda_star": lam_star})


def verify_suites(seed: int, out: Path, oracle) -> Inputs:
    config = {"suites": list(VERIFY_SUITES), "trials": VERIFY_TRIALS,
              "seed": VERIFY_SEED}
    return _save(out, {"config": ("config.json", json.dumps(config, indent=1) + "\n")},
                 {"suites": VERIFY_SUITES, "trials": VERIFY_TRIALS})


GENERATORS = {
    "evaluate-batch": evaluate_batch,
    "lambda-analysis": lambda_analysis,
    "verify-suites": verify_suites,
}
