"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-d32 --seed 1 --seconds 56 --trace 0

Set-up is measured by starting the worker several times in a row and
taking the median time from spawn to ``READY``; the last worker then
runs the timed closed loop.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
provenance record and a readable table.  The exit code is 0 when a
result was printed, and 1 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _lines(proc, deadline: float):
    """Yield the worker's stdout lines, killing it at the deadline."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(timeout=left):
                raise BenchError("worker exceeded the run deadline")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                if buf:
                    yield buf.decode()
                return
            buf += chunk
            *done, buf = buf.split(b"\n")
            for line in done:
                yield line.decode()
    finally:
        sel.close()


def spawn(worker_args, deadline, setup_only):
    """Start one worker; return (seconds to READY, RESULT dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    ready, result = None, None
    try:
        for line in _lines(proc, deadline):
            if line == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker failed with exit code {code}")
    return ready, result


def end_to_end(setups, res) -> dict:
    times = res["times"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / res["wall"], "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }


def quality_maxima(res) -> dict:
    """Worst cf ratio and falsifier ratio over the run's correct ops."""
    q = res["quality"]
    return {
        "counterexample.cf_convergence_study.final_ratio_max": (
            max((x["cf_ratio"] for x in q if "cf_ratio" in x), default=0.0),
            "ratio",
        ),
        "contractions.falsify_spectral_set.worst_ratio_max": (
            max((x["falsify_ratio"] for x in q if "falsify_ratio" in x), default=0.0),
            "ratio",
        ),
    }


def per_layer(res) -> dict:
    metrics = {key: tuple(v) for key, v in res["layers"].items()}
    metrics.update(quality_maxima(res))
    times = res["times"]
    traced = [t for t, on in zip(times, res["traced"]) if on]
    # A run with room for one timed op only compares against the warm-up.
    untraced = [t for t, on in zip(times, res["traced"]) if not on] or [res["warmup"]]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.self_share"] = (res["self_total"] / sum(traced), "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every op, for the benchmark's own tests",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tetrablock" / "__init__.py").is_file():
        print(f"error: no tetrablock sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    try:
        setups = []
        for i in range(SETUPS):
            ready, res = spawn(worker_args, deadline, setup_only=i < SETUPS - 1)
            setups.append(ready)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": res["nproc"],
        "python": res["python"],
        "numpy": res["numpy"],
        "blas": res["blas"],
        "git_commit": git_commit(ROOT),
        "timed_ops": len(res["times"]),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    problems = [p for p in res["problems"] if p]
    for i, found in enumerate(res["problems"]):
        if found:
            print(f"op {i} failed: {'; '.join(found)}", file=sys.stderr)
    attempted = len(res["problems"])
    if args.trace:
        metrics = per_layer(res)
        shown = metrics
    else:
        metrics = end_to_end(setups, res)
        shown = {
            **metrics,
            "failed_frac": (len(problems) / attempted, "frac"),
            **quality_maxima(res),
        }
    for name, (value, unit) in shown.items():
        print(f"{name:58s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
