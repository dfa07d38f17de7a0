"""Smoke tests of the scripts under ``scripts/``, run with tiny arguments.

The scripts import public names from ``tetrablock``; running their
``main`` here catches a removed or renamed export.
"""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from tetrablock import contractions, counterexample, pipeline_report_to_json, run_pipeline
from tetrablock.cli import main as tetra

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_counterexample_writes_the_pipeline_document(tmp_path, capsys):
    script = load_script("run_counterexample")
    argv = ["--depths", "3", "--trials", "2", "--seed", "7", "--out-dir", str(tmp_path)]
    assert script.main(argv) == 0
    assert "overall: Obstructed" in capsys.readouterr().out
    with open(tmp_path / "verdict_depth3.json", encoding="utf-8") as fh:
        written = json.load(fh)
    want = pipeline_report_to_json(run_pipeline(3, trials=2, seed=7))
    assert written == json.loads(json.dumps(want))


def test_cf_convergence_runs(capsys):
    script = load_script("cf_convergence")
    assert script.main(["--pairs", "1", "--degrees", "0", "2"]) == 0
    assert "final ratios" in capsys.readouterr().out


def test_run_counterexample_reports_a_failed_products_stage(monkeypatch, capsys):
    # Before, a failed first stage left products None and the table
    # row ended in AttributeError.
    def broken(_):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(counterexample, "op_norm", broken)
    script = load_script("run_counterexample")
    assert script.main(["--depths", "3", "--trials", "2"]) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.split()[:1] == ["3"])
    assert row.split()[2:6] == ["Inconclusive", "nan", "nan", "nan"]
    assert "overall: Inconclusive" in out


def test_verdict_digest_hashes_each_document(tmp_path, capsys):
    script = load_script("verdict_digest")
    script.write_inputs(tmp_path)
    for argv, _ in script.commands():
        for flag in ("--a1", "--a2", "--poly"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).exists()
    model = ["model", "--a1", "sym-2-diag-a1.json", "--a2", "sym-2-diag-a2.json",
             "--blocks", "3", "--emit", "t.json"]
    cmds = [(["classify", "--point", "(0,0,2)"], None), (model, "t.json")]
    here = os.getcwd()
    lines = script.digest_lines(cmds, tmp_path)
    assert os.getcwd() == here

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert tetra(["classify", "--point", "(0,0,2)"]) == 0
    classify = sha(capsys.readouterr().out.encode())
    emitted = sha((tmp_path / "t.json").read_bytes())
    assert lines == [
        f"0 {classify} tetra classify --point '(0,0,2)'",
        lines[1],
        f"file {emitted} t.json",
    ]
    code, digest, command = lines[1].split(" ", 2)
    assert code == "0" and command == "tetra " + " ".join(model)


def test_stage_times_prints_every_stage(capsys):
    script = load_script("stage_times")
    for repeats in ("1", "3"):
        argv = ["--depth", "4", "--trials", "2", "--seeds", "3", "--repeats", repeats]
        assert script.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["stage", "p25", "median", "p75", "share"]
        rows = [line.split() for line in lines[2:]]
        assert {row[0] for row in rows} == set(script.STAGES) | {"run_pipeline"}
        for name, p25, mid, p75, share in rows:
            assert 0.0 <= float(p25) <= float(mid) <= float(p75), name
            assert share.endswith("%"), name
        assert rows[-1][0] == "run_pipeline" and rows[-1][-1] == "100.0%"
    # The wrapped bindings are put back.
    assert counterexample.falsify_spectral_set is contractions.falsify_spectral_set
