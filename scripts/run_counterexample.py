"""Run the witness pipeline across a sweep of truncation depths.

Prints one verdict line per depth and optionally writes each verdict
document to a directory.  The constants that matter (the commutator
invariants and the product norms) are depth-independent, which is the
point: the obstruction is visible at every finite truncation.

Usage:
    python3 scripts/run_counterexample.py
    python3 scripts/run_counterexample.py --depths 3 4 8 16 --out-dir reports
"""

import argparse
import json
import os
import sys
import time

from tetrablock import pipeline_report_to_json, run_pipeline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="+", default=[3, 4, 8, 16])
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--seed", type=int, default=20250801)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    header = (
        f"{'depth':>5} {'dim':>5} {'verdict':<12} {'c1':>9} {'c2':>9} "
        f"{'products':>9} {'falsify':>17} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    worst = "Obstructed"
    for depth in args.depths:
        t0 = time.perf_counter()
        rep = run_pipeline(
            depth, trials=args.trials, degree=args.degree, seed=args.seed
        )
        dt = time.perf_counter() - t0
        c1 = rep.obstruction.c1 if rep.obstruction else float("nan")
        c2 = rep.obstruction.c2 if rep.obstruction else float("nan")
        products = max(rep.products.values()) if rep.products else float("nan")
        outcome = rep.falsify.outcome if rep.falsify else "skipped"
        print(
            f"{depth:>5} {rep.dim:>5} {rep.verdict:<12} {c1:>9.2e} {c2:>9.6f} "
            f"{products:>9.2e} {outcome:>17} {dt:>6.2f}"
        )
        if rep.verdict != "Obstructed":
            worst = rep.verdict
        if args.out_dir:
            path = os.path.join(args.out_dir, f"verdict_depth{depth}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(pipeline_report_to_json(rep), fh, indent=2, sort_keys=True)

    print()
    print(f"overall: {worst}")
    return 0 if worst == "Obstructed" else 1


if __name__ == "__main__":
    sys.exit(main())
