"""Band-by-band reference for the cutting-level band questions.

Judges every pair again at every band, the slow and obvious way: the
elementary bands of ]0.5, 1] end at the credibilities
in ]0.5, 1] plus 1, and each band is judged at its right endpoint with
``sigma >= lam``. Credibilities come from the per-criterion reference
(``criterion_reference.credibility``), which has the same bits as the
pair kernel, and relations from plain comparisons, so nothing here reads
``band_ends``, ``preferred_bands`` or ``sigma_pair``.
"""

from __future__ import annotations

from criterion_reference import credibility


def mark(sab: float, sba: float, lam: float) -> str:
    """Target-table cell of the relation of a to b at ``lam``."""
    if sab >= lam and not sba >= lam:
        return "a"
    if sba >= lam and not sab >= lam:
        return "b"
    return ""


def sweep(table, refs, criteria, target, dont_care_blanks=False) -> dict:
    """Bands, exact-match intervals and the closest band, band by band."""
    profiles = {name: vec for name, _, _, vec in refs.flat_profiles()}
    # a blank under dont_care_blanks is no constraint and cuts no band
    target = {key: cell for key, cell in target.items() if cell or not dont_care_blanks}
    sigma = {}
    for pname, action in target:
        avec, pvec = table.vector(action), profiles[pname]
        sigma[(pname, action)] = (
            credibility(criteria, avec, pvec), credibility(criteria, pvec, avec),
        )
    values = sorted({v for pair in sigma.values() for v in pair if 0.5 < v <= 1.0} | {1.0})
    bands = []
    lower = 0.5
    for upper in values:
        mismatches = [key for key, cell in target.items() if mark(*sigma[key], upper) != cell]
        bands.append((lower, upper, mismatches))
        lower = upper
    intervals = []
    for lower, upper, mismatches in bands:
        if mismatches:
            continue
        if intervals and intervals[-1][1] == lower:
            intervals[-1] = (intervals[-1][0], upper)
        else:
            intervals.append((lower, upper))
    best = min(bands, key=lambda band: len(band[2]))
    return {
        "breakpoints": values,
        "counts": [len(band[2]) for band in bands],
        "intervals": intervals,
        "best_band": (best[0], best[1]),
        "mismatches_best": best[2],
    }


def profile_breakpoints(refs, criteria) -> list[float]:
    """Credibilities in ]0.5, 1] between two distinct profiles, plus 1."""
    vectors = [vec for _, _, _, vec in refs.flat_profiles()]
    values = {
        credibility(criteria, a, b)
        for i, a in enumerate(vectors) for j, b in enumerate(vectors) if i != j
    }
    return sorted({v for v in values if 0.5 < v <= 1.0} | {1.0})


def basic_assumption_violations(refs, criteria, lams) -> list[list[str]]:
    """Violation messages of the basic assumptions at each cutting level."""
    sets = refs.sets
    names = refs.profile_names()
    sigma = {}
    for k, lower in enumerate(sets):
        for h, higher in enumerate(sets):
            for p, a in enumerate(lower.profiles):
                for q, b in enumerate(higher.profiles):
                    sigma[(k, p, h, q)] = credibility(criteria, a, b)

    def violations(lam):
        def relation(k, p, h, q):
            return mark(sigma[(k, p, h, q)], sigma[(h, q, k, p)], lam)

        messages = []
        for k, ref in enumerate(sets):
            for p in range(len(ref.profiles)):
                for q in range(p + 1, len(ref.profiles)):
                    m = relation(k, p, k, q)
                    if m == "a":
                        messages.append(f"within-set preference: {names[k][p]} > {names[k][q]}")
                    elif m == "b":
                        messages.append(f"within-set preference: {names[k][q]} > {names[k][p]}")
        for lo in range(len(sets)):
            for hi in range(lo + 1, len(sets)):
                for p in range(len(sets[lo].profiles)):
                    for q in range(len(sets[hi].profiles)):
                        if relation(lo, p, hi, q) == "a":
                            messages.append(
                                f"lower-set profile preferred to higher-set profile: "
                                f"{names[lo][p]} > {names[hi][q]}"
                            )
        return messages

    return [violations(lam) for lam in lams]
