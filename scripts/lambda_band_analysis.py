"""Per-band analysis of the hotel instance.

For every elementary cutting-level band of ]0.5, 1] (delimited by
credibility breakpoints) this prints: how many target-table pairs match,
whether the basic assumptions hold, and the score ranges. It documents
why no single band reproduces the bundled relation target and range list
in full: the target encodes mutually exclusive constraints (see the
mismatch columns).
"""

from __future__ import annotations

from pathlib import Path

from electre_score.credibility import compile_criteria, sigma_pair
from electre_score.files import load_model, load_performances_csv, load_target_csv
from electre_score.refsets import ProfileTable
from electre_score.scoring import score_ranges
from electre_score.sweep import sweep_lambda

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    model = load_model(DATA / "hotel_model.json")
    criteria, refs = model.criteria, model.refs
    table = load_performances_csv(DATA / "hotel_performances.csv", criteria)
    target = load_target_csv(DATA / "hotel_target_relations.csv")

    result = sweep_lambda(table, refs, criteria, target)
    print(f"breakpoints ({len(result.breakpoints)}):")
    print("  " + ", ".join(f"{b:.9f}" for b in result.breakpoints))
    print(f"exact-match bands: {[ (iv.lower, iv.upper) for iv in result.intervals ]}")
    print(
        f"closest band ]{result.best_band.lower:.9f}, "
        f"{result.best_band.upper:.9f}] misses: {list(result.mismatches_best)}"
    )

    scores = refs.scores
    shipped = {
        "a1": (scores[2], scores[5]),
        "a2": (scores[3], scores[5]),
        "a3": (scores[3], scores[5]),
        "a4": (scores[2], scores[4]),
        "a5": (scores[2], scores[4]),
    }

    print("\nper-band details (right endpoint used as representative):")
    # one table of profile credibilities serves the basic assumptions of every band
    ends = result.breakpoints
    kernel = compile_criteria(criteria)
    profiles = ProfileTable(kernel, refs)
    band_violations = profiles.basic_assumption_violations(ends)
    for lower, upper, violations in zip((0.5, *ends), ends, band_violations):
        ranges = score_ranges(table, refs, criteria, upper, force=True)
        def matches(r) -> bool:
            return (
                r.defined
                and abs(r.lower - shipped[r.action][0]) < 1e-9
                and abs(r.upper - shipped[r.action][1]) < 1e-9
            )

        agree = sum(1 for r in ranges.ranges if matches(r))
        off = [
            (
                f"{r.action}=]{r.lower:.2f},{r.upper:.2f}["
                if r.defined
                else f"{r.action}=undefined({r.reason})"
            )
            for r in ranges.ranges
            if not matches(r)
        ]
        print(
            f"]{lower:.9f}, {upper:.9f}]  "
            f"assumptions={'ok' if not violations else 'VIOLATED'}  "
            f"ranges {agree}/5" + (f"  off: {', '.join(off)}" if off else "")
        )

    # the two hard conflicts inside the relation target
    vecs = {a: table.vector(a) for a in table.actions}
    for name, _, _, v in refs.flat_profiles():
        vecs[name] = v
    # one kernel call per pair gives both directions
    sigma = {}
    for a, b in (("a4", "b41"), ("a5", "b41"), ("a5", "b31"), ("a4", "b51"), ("a2", "b51")):
        sigma[a, b], sigma[b, a] = sigma_pair(kernel, vecs[a], vecs[b])
    print("\nconflicting constraints inside the relation target:")
    print(
        f"  a4>b41 needs lam <= {sigma['a4', 'b41']:.9f}; "
        f"a5>b41 needs lam > {sigma['b41', 'a5']:.9f}"
    )
    print(
        f"  a5>b31 needs lam > {sigma['b31', 'a5']:.9f}; "
        f"b51>a4 needs lam <= {sigma['b51', 'a4']:.9f}; "
        f"blank (b51,a2) needs lam outside ]{sigma['a2', 'b51']:.9f}, {sigma['b51', 'a2']:.9f}]"
    )


if __name__ == "__main__":
    main()
