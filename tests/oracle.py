"""Independent reference implementation used to cross-check the engine.

Deliberately written in the marginal-concordance style (a per-criterion
concordance value in [0, 1] aggregated by weights) rather than the
engine's coalition-classification style, over plain dicts rather than
the package's domain types. Values must agree to within float noise.
"""

from __future__ import annotations


def _worse_better(direction: str, ga: float, gb: float) -> tuple[float, float]:
    if direction == "max":
        return min(ga, gb), max(ga, gb)
    return max(ga, gb), min(ga, gb)


def _threshold(spec, direction: str, ga: float, gb: float) -> float:
    intercept, slope, mode = spec
    if mode == "constant":
        return intercept
    worse, better = _worse_better(direction, ga, gb)
    return intercept + slope * (worse if mode == "direct" else better)


def _diff(direction: str, ga: float, gb: float) -> float:
    return ga - gb if direction == "max" else gb - ga


def marginal_concordance(crit: dict, ga: float, gb: float) -> float:
    q = _threshold(crit["q"], crit["direction"], ga, gb)
    p = _threshold(crit["p"], crit["direction"], ga, gb)
    delta = _diff(crit["direction"], ga, gb)
    if delta >= -q:
        return 1.0
    if delta <= -p:
        return 0.0
    return (delta + p) / (p - q)


def marginal_discordance(crit: dict, ga: float, gb: float) -> float:
    if crit.get("v") is None:
        return 0.0
    p = _threshold(crit["p"], crit["direction"], ga, gb)
    v = _threshold(crit["v"], crit["direction"], ga, gb)
    delta = _diff(crit["direction"], ga, gb)
    if delta >= -p:
        return 0.0
    if delta < -v:
        return 1.0
    return (delta + p) / (p - v)


def sigma_oracle(criteria: list[dict], pa, pb) -> float:
    total = sum(c["weight"] for c in criteria)
    conc = sum(
        c["weight"] * marginal_concordance(c, a, b)
        for c, a, b in zip(criteria, pa, pb)
    ) / total
    sigma = conc
    for c, a, b in zip(criteria, pa, pb):
        d = marginal_discordance(c, a, b)
        if d > conc:
            sigma *= (1.0 - d) / (1.0 - conc)
    return sigma


def strict_side(criteria: list[dict], pa, pb) -> str | None:
    """"a" when a is strictly preferred to b on every criterion (d > p),
    "b" when b is on every one (d < -p), None otherwise."""
    margins = [
        (_diff(c["direction"], a, b), _threshold(c["p"], c["direction"], a, b))
        for c, a, b in zip(criteria, pa, pb)
    ]
    if all(d > p for d, p in margins):
        return "a"
    if all(d < -p for d, p in margins):
        return "b"
    return None


def relation_oracle(criteria: list[dict], pa, pb, lam: float) -> str:
    sab = sigma_oracle(criteria, pa, pb) >= lam
    sba = sigma_oracle(criteria, pb, pa) >= lam
    if sab and sba:
        return "indifferent"
    if sab:
        return "a"
    if sba:
        return "b"
    return "incomparable"


def classify_oracle(criteria, action, profiles, lam: float) -> str:
    rels = [relation_oracle(criteria, action, p, lam) for p in profiles]
    if "a" in rels and "b" in rels:
        return "incomparable"
    if "a" in rels:
        return "action_preferred"
    if "b" in rels:
        return "set_preferred"
    if "indifferent" in rels:
        return "indifferent"
    return "incomparable"


def bounds_oracle(criteria, action, level_profiles, scores, lam: float):
    """(lower, upper) scores by literal definition scan; None where absent."""
    classes = [classify_oracle(criteria, action, profs, lam) for profs in level_profiles]
    return scan_oracle(classes, scores)


def scan_oracle(classes, scores):
    """(lower, upper) scores of per-level classifications by literal
    definition scan; None where absent."""
    lower = None
    for k in range(len(classes) - 1, -1, -1):
        if classes[k] == "action_preferred" and all(
            classes[h] in ("action_preferred", "incomparable") for h in range(k)
        ):
            lower = scores[k]
            break
    upper = None
    for k in range(len(classes)):
        if classes[k] == "set_preferred" and all(
            classes[h] in ("set_preferred", "incomparable")
            for h in range(k + 1, len(classes))
        ):
            upper = scores[k]
            break
    return lower, upper


def engine_criterion_to_dict(criterion) -> dict:
    """Adapter for cross-checking random engine instances."""
    def spec(s):
        return None if s is None else (s.intercept, s.slope, s.mode.value)

    return {
        "direction": criterion.direction.value,
        "weight": criterion.weight,
        "q": spec(criterion.indifference),
        "p": spec(criterion.preference),
        "v": spec(criterion.veto),
    }


# the bundled hotel instance, re-entered literally (criteria parameters,
# performances, profiles) so the oracle does not depend on package data
HOTEL_ORACLE_CRITERIA = [
    {"direction": "min", "weight": 5.0, "q": (250.0, 0.03, "direct"),
     "p": (500.0, 0.05, "direct"), "v": None},
    {"direction": "min", "weight": 4.0, "q": (50.0, 0.05, "direct"),
     "p": (100.0, 0.07, "direct"), "v": None},
    {"direction": "max", "weight": 3.0, "q": (1.0, 0.0, "constant"),
     "p": (2.0, 0.0, "constant"), "v": None},
    {"direction": "max", "weight": 3.0, "q": (1.0, 0.0, "constant"),
     "p": (2.0, 0.0, "constant"), "v": None},
    {"direction": "max", "weight": 3.0, "q": (1.0, 0.0, "constant"),
     "p": (2.0, 0.0, "constant"), "v": None},
]

HOTEL_ORACLE_ACTIONS = {
    "a1": (13000, 3000, 4, 4, 4),
    "a2": (15000, 2500, 6, 2, 7),
    "a3": (10900, 3400, 6, 6, 1),
    "a4": (15500, 3500, 6, 6, 6),
    "a5": (15000, 2600, 6, 1, 2),
}

HOTEL_ORACLE_LEVELS = [
    [(18000, 4000, 1, 1, 1)],
    [(17000, 3500, 2, 2, 1), (16500, 3700, 1, 2, 1)],
    [(15350, 3200, 3, 1, 2)],
    [(14250, 2850, 3, 4, 3), (13750, 3150, 4, 3, 3)],
    [(12650, 2650, 4, 4, 5)],
    [(11500, 2100, 5, 6, 5), (11000, 2500, 6, 5, 7)],
    [(10000, 2000, 7, 7, 7)],
]
