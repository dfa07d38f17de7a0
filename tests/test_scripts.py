"""Smoke tests of the scripts under ``scripts/``, run with tiny arguments.

The scripts import public names from ``tetrablock``; running their
``main`` here catches a removed or renamed export.
"""

import importlib.util
import json
from pathlib import Path

from tetrablock import pipeline_report_to_json, run_pipeline

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
