"""Convergence of the empirical two-coefficient extension to its infimum.

For a batch of seeded coefficient pairs, runs the convergence study
(Lawson's iteration at a sweep of completion degrees) and prints the
ratio of each empirical value to the exact matrix-norm infimum.  The
ratios should decrease towards 1 along each row and the final column
should sit within a few tenths of a percent of 1.

Usage:
    python3 scripts/cf_convergence.py
    python3 scripts/cf_convergence.py --pairs 10 --degrees 0 2 4 8 --grid 512
"""

import argparse
import statistics
import sys
import time

import numpy as np

from tetrablock import cf_convergence_study


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--degrees", type=int, nargs="+", default=[0, 2, 4, 8])
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args(argv)

    cols = " ".join(f"{'d=' + str(d):>9}" for d in args.degrees)
    print(f"{'pair':>4} {'|b0|':>6} {'|b1|':>6} {'inf':>8} {cols}")
    t0 = time.perf_counter()
    final_ratios = []
    children = np.random.SeedSequence(args.seed).spawn(args.pairs)
    for i, child in enumerate(children):
        rep = cf_convergence_study(
            seed=child, degrees=tuple(args.degrees), grid=args.grid
        )
        mu = rep.matrix_norm
        ratios = [v / mu for v in rep.values]
        final_ratios.append(ratios[-1])
        row = " ".join(f"{r:>9.5f}" for r in ratios)
        print(f"{i:>4} {abs(rep.b0):>6.3f} {abs(rep.b1):>6.3f} {mu:>8.5f} {row}")
        if not rep.monotone:
            print(f"     warning: pair {i} is not monotone across degrees")

    dt = time.perf_counter() - t0
    print()
    print(
        f"final ratios: worst {max(final_ratios):.5f}, "
        f"median {statistics.median(final_ratios):.5f} "
        f"({args.pairs} pairs, {dt:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
