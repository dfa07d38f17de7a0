"""Median and quartile wall times of each stage of the witness pipeline.

Runs ``run_pipeline(depth, trials=...)`` for every seed, ``--repeats``
times each after one warm-up run, and prints the quartiles (p25, median,
p75) over all runs of each stage's wall time, with the whole call and
the median's share of the whole's median.  The spread between p25 and
p75 tells a change in a stage from load on the machine, which one
median cannot.  Nothing is written to a verdict document.

The stages are local to ``run_pipeline``, so their bounds are read off
the ``counterexample`` module bindings they call.  Each binding below is
wrapped for the run; a stage starts at the first call of its marker and
ends where the next stage starts, and the last ends when
``run_pipeline`` returns:

    build_witness       the build_witness call itself
    products            from build_witness's return (includes the
                        first Triple.parts)
    defect_projection   sqrt_psd
    fundamental         extract_fundamental
    obstruction         dilation_obstruction
    hypotheses          check_obstruction_hypotheses
    falsify             falsify_spectral_set
    case_inequalities   case_inequality_check
    cf_study            cf_convergence_study

Usage:
    PYTHONPATH=src python3 scripts/stage_times.py
    PYTHONPATH=src python3 scripts/stage_times.py --depth 32 --trials 50 --seeds 1 2 3
"""

import argparse
import functools
import statistics
import sys
import time

from tetrablock import counterexample

# Each stage after products and the binding whose first call starts it.
MARKERS = (
    ("defect_projection", "sqrt_psd"),
    ("fundamental", "extract_fundamental"),
    ("obstruction", "dilation_obstruction"),
    ("hypotheses", "check_obstruction_hypotheses"),
    ("falsify", "falsify_spectral_set"),
    ("case_inequalities", "case_inequality_check"),
    ("cf_study", "cf_convergence_study"),
)
STAGES = ("build_witness", "products") + tuple(stage for stage, _ in MARKERS)


def timed_run(depth: int, trials: int, seed: int) -> dict:
    """One ``run_pipeline`` call; each stage's wall time and the whole's, in s."""
    starts: dict = {}

    def first_call(stage, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            starts.setdefault(stage, time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def witness(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            starts["build_witness"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                starts["products"] = time.perf_counter()

        return wrapper

    originals = {name: getattr(counterexample, name) for _, name in MARKERS}
    originals["build_witness"] = counterexample.build_witness
    try:
        for stage, name in MARKERS:
            setattr(counterexample, name, first_call(stage, originals[name]))
        counterexample.build_witness = witness(originals["build_witness"])
        t0 = time.perf_counter()
        counterexample.run_pipeline(depth, trials=trials, seed=seed)
        end = time.perf_counter()
    finally:
        for name, fn in originals.items():
            setattr(counterexample, name, fn)
    bounds = [starts[stage] for stage in STAGES] + [end]
    times = {stage: b - a for stage, a, b in zip(STAGES, bounds, bounds[1:])}
    times["run_pipeline"] = end - t0
    return times


def quartiles(values) -> tuple:
    """p25, median and p75 of the values, inclusive of their extremes."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=32)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    timed_run(args.depth, args.trials, args.seeds[0])
    runs = [
        timed_run(args.depth, args.trials, seed)
        for _ in range(args.repeats)
        for seed in args.seeds
    ]
    total = statistics.median(run["run_pipeline"] for run in runs)
    print(
        f"run_pipeline({args.depth}, trials={args.trials}), seeds "
        f"{' '.join(map(str, args.seeds))}: quartiles of {len(runs)} runs, in ms"
    )
    print(f"{'stage':<18} {'p25':>9} {'median':>9} {'p75':>9} {'share':>7}")
    for stage in STAGES + ("run_pipeline",):
        p25, mid, p75 = (1e3 * q for q in quartiles([run[stage] for run in runs]))
        print(
            f"{stage:<18} {p25:>9.2f} {mid:>9.2f} {p75:>9.2f} "
            f"{mid / (1e3 * total):>7.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
