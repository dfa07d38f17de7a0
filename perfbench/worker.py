"""Benchmark worker: set up one workload, then run its ops in a closed loop.

Started by ``run.py``, one worker at a time.  The worker imports the
package from the checkout's ``src``, draws the workload's inputs, and
prints ``READY``; with ``--setup-only`` it exits there.  Otherwise it
runs op 0 once as an untimed warm-up, then one client runs ops back to
back (the next op starts when the previous one returns) while one more
op and the replay should still end within ``--seconds``.  The last op
replays op 0 with the same input and compares verdict bytes with the
warm-up.  It prints one ``RESULT`` line of JSON and exits.

In a traced run (``--trace 1``) timed ops alternate untraced and
traced, and the replay is traced, so the replay also checks that
tracing leaves the verdict bytes unchanged.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import StaleTraceError, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_info() -> dict:
    """BLAS name, version and thread count as the loaded library reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            maps = fh.read()
    except OSError:  # not Linux: the thread count stays unknown
        return info
    libs = sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", maps)))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def run_ops(workload, inputs, seconds: float, tracer) -> dict:
    """Warm-up op, closed loop over the input pool, then the replay.

    The warm-up runs op 0 untimed, so lazy initialisation inside numpy
    and the interpreter does not land in the first timed op; its bytes
    are the reference for the replay.  Its time counts against
    ``seconds``, so a run lasts about ``seconds`` whatever the op time.
    """
    times, traced, problems, quality = [], [], [], []

    def one(inp, with_trace):
        if with_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        finally:
            dt = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall()
        found = workload.problems(inp, out)
        problems.append(found)
        if not found:
            quality.append(workload.quality(out))
        return out, dt

    start = time.perf_counter()
    first, warmup = one(inputs[0], False)
    timed_start = time.perf_counter()
    i = 1
    # Start another op only if it and the replay should both end in time.
    while time.perf_counter() - start + 2 * statistics.median(times or [warmup]) <= seconds:
        with_trace = tracer is not None and i % 2 == 0
        _, dt = one(inputs[i % len(inputs)], with_trace)
        times.append(dt)
        traced.append(with_trace)
        i += 1
    replay, dt = one(inputs[0], tracer is not None)
    times.append(dt)
    traced.append(tracer is not None)
    wall = time.perf_counter() - timed_start
    if replay != first:
        problems[-1].append("replay of op 0 gave different verdict bytes")
    return {
        "warmup": warmup,
        "times": times,
        "traced": traced,
        "problems": problems,
        "quality": quality,
        "wall": wall,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import tetrablock  # noqa: F401

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.size == "tiny")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    result = run_ops(workload, inputs, args.seconds, tracer)
    if tracer is not None:
        n_traced = sum(result["traced"])
        missing = [
            key for key in workload.expected_calls if tracer.stats[key].calls == 0
        ]
        if missing:
            raise StaleTraceError(
                f"traced ops never reached: {', '.join(missing)}"
            )
        result["layers"] = tracer.metrics(n_traced)
        result["self_total"] = tracer.self_total()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["blas"] = blas_info()
    result["numpy"] = np.__version__
    result["python"] = sys.version.split()[0]
    result["nproc"] = os.cpu_count()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
