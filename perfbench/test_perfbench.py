"""Tests of the benchmark itself: metrics, correctness checks, trace guard.

Run with ``python -m pytest perfbench``.  The package's own suite does
not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tetrablock  # noqa: E402
from tetrablock import cli, linalg  # noqa: E402
from tracer import TRACED, StaleTraceError, Tracer  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "provenance " in proc.stdout


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for w in WORKLOADS.values():
        assert set(w.expected_calls) <= set(TRACED)


def _tiny_output(name):
    w = WORKLOADS[name]
    inp = w.make_inputs(9, True)[0]
    out = w.run(inp)
    assert w.problems(inp, out) == []
    return w, inp, out


def test_doctored_c2_counts_as_failed():
    w, argv, out = _tiny_output("pipeline-d32")
    wrapper = json.loads(out)
    doc = json.loads(wrapper["stdout"])
    doc["obstruction"]["c2"] = 0.0625 + 2.0**-40
    wrapper["stdout"] = json.dumps(doc)
    assert w.problems(argv, json.dumps(wrapper).encode()) == ["c2 == 1/16"]


def test_doctored_certify_counts_as_failed():
    w, inp, out = _tiny_output("certify-small")
    doc = json.loads(out)
    doc["mismatches"] = 1
    assert len(w.problems(inp, json.dumps(doc).encode())) == 1
    assert w.problems(inp, b"not json") != []


def test_replay_mismatch_counts_as_failed():
    calls = iter(range(10))
    fake = Workload(
        name="fake",
        why="",
        make_inputs=None,
        run=lambda inp: str(next(calls)).encode(),
        problems=lambda inp, out: [],
        quality=lambda out: {},
        expected_calls=(),
    )
    res = run_ops(fake, [None], seconds=0.0, tracer=None)
    assert [bool(p) for p in res["problems"]] == [False, True]
    assert len(res["times"]) == 1


def test_tracer_wraps_every_binding_and_restores_it():
    original = linalg.op_norm
    holders = [tetrablock, linalg]
    holders += [getattr(tetrablock, m) for m in ("poly3", "models", "contractions")]
    holders.append(tetrablock.counterexample)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {id(mod.op_norm) for mod in holders}
        assert len(wrapped) == 1 and holders[0].op_norm is not original
        assert holders[0].op_norm.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert all(mod.op_norm is original for mod in holders)


def test_traced_verdict_bytes_are_identical():
    w, argv, out = _tiny_output("pipeline-d32")
    tracer = Tracer()
    tracer.install()
    try:
        traced = w.run(argv)
    finally:
        tracer.uninstall()
    assert traced == out
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.counts["contractions.falsify_spectral_set.trials"] == 2
    assert tracer.counts["contractions.violation_certificate.refined"] == 0


def test_stale_trace_guard_missing_function(monkeypatch):
    monkeypatch.delattr(linalg, "numerical_radius")
    with pytest.raises(StaleTraceError, match="numerical_radius"):
        Tracer().install()


def test_stale_trace_guard_moved_function(monkeypatch):
    def op_norm(a):
        return 0.0

    monkeypatch.setattr(linalg, "op_norm", op_norm)
    with pytest.raises(StaleTraceError, match="now defined in"):
        Tracer().install()


def test_stale_trace_guard_unreachable_binding(monkeypatch):
    monkeypatch.setattr(cli, "_NORMS", {"op": linalg.op_norm}, raising=False)
    with pytest.raises(StaleTraceError, match="cannot reach"):
        Tracer().install()
    assert cli.main.__module__ == "tetrablock.cli"
    assert not hasattr(cli.main, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", "pipeline-d32", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
