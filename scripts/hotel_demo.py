"""End-to-end demo on the bundled hotel instance at a chosen cutting level."""

from __future__ import annotations

import argparse
from pathlib import Path

from electre_score.credibility import compile_criteria, sigma_pair
from electre_score.files import load_model, load_performances_csv
from electre_score.refsets import check_comparability, check_separability
from electre_score.scoring import score_ranges

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.65)
    args = parser.parse_args()

    model = load_model(DATA / "hotel_model.json")
    criteria, refs = model.criteria, model.refs
    table = load_performances_csv(DATA / "hotel_performances.csv", criteria)

    kernel = compile_criteria(criteria)
    profiles = [(name, vec) for name, _, _, vec in refs.flat_profiles()]

    print(f"credibility of actions vs profiles (lambda = {args.lam}):")
    header = "      " + "".join(f"{p:>9}" for p, _ in profiles)
    print(header)
    for a in table.actions:
        row = "".join(
            f"{sigma_pair(kernel, table.vector(a), vec)[0]:9.4f}" for _, vec in profiles
        )
        print(f"{a:>5} {row}")

    sep = check_separability(refs, criteria, args.lam)
    weak = [
        (lo + 1, hi + 1)
        for (lo, hi), f in sorted(sep.pairs.items())
        if not (f.soft_dominance_primal and f.soft_dominance_dual)
    ]
    print(f"\nsoft-dominance gaps at level pairs: {weak or 'none'}")
    print(f"comparability: {check_comparability(table, refs, criteria, args.lam)}")

    result = score_ranges(table, refs, criteria, args.lam, force=True)
    print(f"\nscore ranges at lambda = {args.lam} "
          f"({'fast path' if result.used_fast_path else 'general scan'}):")
    for r in result.ranges:
        if r.defined:
            print(f"  {r.action}: ]{r.lower:.5f}, {r.upper:.5f}[")
        else:
            print(f"  {r.action}: undefined ({r.reason})")
    for f in result.findings:
        print(f"  finding: {f}")


if __name__ == "__main__":
    main()
