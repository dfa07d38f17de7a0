"""End-to-end command-line tests, run in process through main()."""

import json

import numpy as np
import pytest

from tetrablock import (
    Triple,
    build_witness,
    matrix_to_json,
    poly_to_json,
    random_symbol_pair,
    triple_to_json,
    varopoulos_example,
)
from tetrablock.cli import main
from tetrablock.poly3 import Poly3


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_classify_inside(capsys):
    code, doc = run_json(capsys, ["classify", "--point", "(0,0,0)"])
    assert code == 0
    assert doc["verdict"] == "InClosure"
    assert doc["schema"] == "tetrablock/verdict-v1"
    assert doc["beta"] == [[0.0, 0.0], [0.0, 0.0]]


def test_classify_outside_still_exits_zero(capsys):
    # Classification succeeded; the verdict names the answer.
    code, doc = run_json(capsys, ["classify", "--point", "(3,0,0)"])
    assert code == 0
    assert doc["verdict"] == "Outside"


def test_classify_json_point_form(capsys):
    point = json.dumps({"x1": [0.2, 0.1], "x2": [0.1, 0.0], "x3": [0.0, 0.0]})
    code, doc = run_json(capsys, ["classify", "--point", point])
    assert code == 0
    assert doc["verdict"] == "InClosure"
    assert doc["point"]["x1"] == [0.2, 0.1]


def test_sup_constant_poly(capsys, tmp_path):
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(0, 0, 0): 2.0})))
    code, doc = run_json(capsys, ["sup", "--poly", poly, "--samples", "64"])
    assert code == 0
    assert doc["estimate"] == pytest.approx(2.0, abs=1e-12)
    assert doc["samples"] == 64


def test_cf_reports_frozen_norm(capsys):
    code, doc = run_json(
        capsys, ["cf", "--b0", "0.6", "--b1", "0.8", "--degree", "2"]
    )
    assert code == 0
    assert doc["matrix_norm"] == pytest.approx(1.1211102550927978, abs=1e-12)
    assert doc["empirical_inf"] >= doc["matrix_norm"] - 1e-6
    assert doc["ratio"] >= 1.0 - 1e-9


def test_fundamental_on_witness(capsys, tmp_path):
    w = build_witness(4)
    triple = write_json(tmp_path / "t.json", triple_to_json(w.triple))
    code, doc = run_json(capsys, ["fundamental", "--triple", triple])
    assert code == 0
    assert doc["rank"] == 18
    assert doc["a1_norm"] == pytest.approx(0.25, abs=1e-12)
    assert doc["a2_norm"] <= 1e-12


def test_falsify_no_violation(capsys, tmp_path):
    w = build_witness(3)
    triple = write_json(tmp_path / "t.json", triple_to_json(w.triple))
    code, doc = run_json(
        capsys,
        ["falsify", "--triple", triple, "--trials", "10", "--degree", "2",
         "--seed", "6"],
    )
    assert code == 0
    assert doc["verdict"] == "NoViolationFound"
    assert "certificate" not in doc


def test_falsify_violation_exits_one(capsys, tmp_path):
    # A scalar triple evaluated outside the domain violates generically.
    t = Triple(t1=[[2.0]], t2=[[0.0]], t3=[[0.0]])
    triple = write_json(tmp_path / "t.json", triple_to_json(t))
    code, doc = run_json(
        capsys,
        ["falsify", "--triple", triple, "--trials", "30", "--degree", "2",
         "--seed", "2"],
    )
    assert code == 1
    assert doc["verdict"] == "Violation"
    cert = doc["certificate"]
    assert cert["lhs"] > cert["sup_refined"] + cert["margin"]


def test_obstruction_on_witness(capsys, tmp_path):
    w = build_witness(4)
    triple = write_json(tmp_path / "t.json", triple_to_json(w.triple))
    code, doc = run_json(
        capsys, ["obstruction", "--triple", triple, "--split", str(w.split)]
    )
    assert code == 1
    assert doc["verdict"] == "Obstructed"
    assert doc["c1"] <= 1e-12
    assert doc["c2"] == pytest.approx(0.0625, abs=1e-10)
    # The CLI path has no boundary data, so the hypotheses run strict.
    assert doc["hypotheses"]["mode"] == "strict"
    assert doc["hypotheses"]["boundary_dim"] == 0


def test_obstruction_unobstructed_on_boundary_triple(capsys, tmp_path):
    from tetrablock import build_circulant_model

    a1, a2 = random_symbol_pair(2, seed=14, diagonal=True)
    m = build_circulant_model(a1, a2, 4)
    triple = write_json(tmp_path / "t.json", triple_to_json(m.as_triple()))
    code, doc = run_json(
        capsys, ["obstruction", "--triple", triple, "--split", str(m.dim // 2)]
    )
    assert code == 0
    assert doc["verdict"] == "Unobstructed"
    # A unitary shift has no defect at all, so the pair is empty.
    assert doc["rank"] == 0
    assert doc["c1"] == 0.0 and doc["c2"] == 0.0


def test_obstruction_blockwise_equals_one_block(capsys, monkeypatch, tmp_path):
    # Diagonal symbols split a hardy model into one chain per symbol
    # entry; the hypotheses check on those blocks must print the same
    # document as on the whole matrices.
    from tetrablock import build_hardy_model, contractions

    m = build_hardy_model(*random_symbol_pair(3, seed=21, diagonal=True), 4)
    p_first = np.diag((np.arange(m.dim) < m.dim // 2).astype(float))
    assert len(contractions.diagonal_blocks((m.t3, p_first))) == 3
    triple = write_json(tmp_path / "t.json", triple_to_json(m))
    argv = ["obstruction", "--triple", triple, "--split", str(m.dim // 2)]
    blocks = run_cli(capsys, argv)
    monkeypatch.setattr(
        contractions, "diagonal_blocks", lambda mats: [np.arange(len(mats[0]))]
    )
    whole = run_cli(capsys, argv)
    assert blocks == whole
    assert json.loads(blocks[1])["rank"] == 3


def test_model_emit_feeds_fundamental(capsys, tmp_path):
    a1, a2 = random_symbol_pair(2, seed=25)
    f1 = write_json(tmp_path / "a1.json", matrix_to_json(a1))
    f2 = write_json(tmp_path / "a2.json", matrix_to_json(a2))
    emitted = str(tmp_path / "triple.json")
    code, doc = run_json(
        capsys,
        ["model", "--a1", f1, "--a2", f2, "--blocks", "4", "--flavor", "hardy",
         "--emit", emitted],
    )
    assert code == 0
    assert doc["verdict"] == "Built"
    assert doc["symbol"]["valid"]
    assert doc["interior"]["passed"]
    code, doc = run_json(capsys, ["fundamental", "--triple", emitted])
    assert code == 0
    assert doc["rank"] == 2


def test_model_circulant_flavor_is_boundary_triple(capsys, tmp_path):
    a1, a2 = random_symbol_pair(2, seed=26)
    f1 = write_json(tmp_path / "a1.json", matrix_to_json(a1))
    f2 = write_json(tmp_path / "a2.json", matrix_to_json(a2))
    code, doc = run_json(
        capsys, ["model", "--a1", f1, "--a2", f2, "--blocks", "5", "--flavor", "circulant"]
    )
    assert code == 0
    assert doc["flavor"] == "circulant"
    assert doc["boundary_triple"]["passed"]


def test_model_rejects_inadmissible_pair(capsys, tmp_path):
    big = matrix_to_json(0.9 * np.eye(2))
    f1 = write_json(tmp_path / "a1.json", big)
    f2 = write_json(tmp_path / "a2.json", big)
    code = main(["model", "--a1", f1, "--a2", f2, "--blocks", "4"])
    assert code == 2


def test_counterexample_byte_identical_and_out_file(capsys, tmp_path):
    out = str(tmp_path / "verdict.json")
    argv = ["counterexample", "--blocks", "4", "--trials", "5", "--degree", "2",
            "--seed", "11"]
    code_a, text_a = run_cli(capsys, argv + ["--out", out])
    code_b, text_b = run_cli(capsys, argv)
    assert code_a == code_b == 1
    assert text_a == text_b
    doc = json.loads(text_a)
    assert doc["verdict"] == "Obstructed"
    with open(out, "r", encoding="utf-8") as fh:
        assert json.load(fh) == doc
    code_c, text_c = run_cli(capsys, ["counterexample", "--blocks", "4",
                                      "--trials", "5", "--degree", "2",
                                      "--seed", "12"])
    assert code_c == 1
    assert text_c != text_a


def test_seed_precedence(capsys, monkeypatch, tmp_path):
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    monkeypatch.setenv("TETRA_SEED", "505")
    code, doc = run_json(capsys, ["sup", "--poly", poly, "--samples", "32"])
    assert code == 0 and doc["seed"] == 505
    # An explicit flag beats the environment.
    code, doc = run_json(
        capsys, ["sup", "--poly", poly, "--samples", "32", "--seed", "606"]
    )
    assert code == 0 and doc["seed"] == 606
    monkeypatch.delenv("TETRA_SEED")
    code, doc = run_json(capsys, ["sup", "--poly", poly, "--samples", "32"])
    assert code == 0 and doc["seed"] == 1729  # config default


def test_seed_only_on_randomized_commands(capsys, tmp_path):
    triple = write_json(tmp_path / "t.json", triple_to_json(build_witness(3).triple))
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    a1, a2 = random_symbol_pair(2, seed=25)
    a1 = write_json(tmp_path / "a1.json", matrix_to_json(a1))
    a2 = write_json(tmp_path / "a2.json", matrix_to_json(a2))
    deterministic = [
        ["cf", "--b0", "0.6", "--b1", "0.8", "--degree", "2"],
        ["classify", "--point", "(0,0,0)"],
        ["fundamental", "--triple", triple],
        ["obstruction", "--triple", triple, "--split", "12"],
        ["model", "--a1", a1, "--a2", a2, "--blocks", "2"],
        ["selftest"],
    ]
    for argv in deterministic:
        assert main(argv + ["--seed", "4"]) == 2, argv[0]
    randomized = [
        (["sup", "--poly", poly, "--samples", "32"], 0),
        (["falsify", "--triple", triple, "--trials", "2"], 0),
        (["counterexample", "--blocks", "3", "--trials", "2"], 1),
    ]
    for argv, want in randomized:
        code, doc = run_json(capsys, argv + ["--seed", "4"])
        assert code == want and doc["seed"] == 4, argv[0]


def test_config_file_supplies_defaults(capsys, tmp_path):
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(0, 0, 1): 1.0})))
    cfg = write_json(tmp_path / "cfg.json", {"seed": 777, "sup_samples": 128})
    code, doc = run_json(capsys, ["sup", "--poly", poly, "--config", cfg])
    assert code == 0
    assert doc["seed"] == 777
    assert doc["samples"] == 128


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(0, 0, 1): 1.0})))
    cfg = write_json(tmp_path / "cfg.json", {"seeed": 7})
    assert main(["sup", "--poly", poly, "--config", cfg]) == 2


def test_text_format(capsys):
    code, out = run_cli(
        capsys, ["classify", "--point", "(0,0,0)", "--format", "text"]
    )
    assert code == 0
    assert "{" not in out
    lines = dict(
        line.split(": ", 1) for line in out.strip().splitlines()
    )
    assert lines["verdict"] == "InClosure"
    assert lines["in_closure"] == "True"


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["nonsense"]) == 2
    assert main(["classify", "--point", "not a point"]) == 2
    assert main(["fundamental", "--triple", str(tmp_path / "missing.json")]) == 2
    assert main([]) == 2


def test_split_mismatch_exits_two(capsys, tmp_path):
    w = build_witness(3)
    triple = write_json(tmp_path / "t.json", triple_to_json(w.triple))
    assert main(["obstruction", "--triple", triple, "--split", "3"]) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"sup_samples": 0},
        {"sup_samples": True},
        {"cf_grid": 100.5},
        {"cf_grid": 15},
        {"z_samples": 0},
        {"falsify_trials": -3},
    ],
)
def test_bad_config_budgets_exit_two(capsys, tmp_path, cfg):
    # Before, a zero-sample sup read 0.0 and the witness came out a
    # false "Violation"; a float grid or a negative trial count ended
    # in a traceback.
    path = write_json(tmp_path / "cfg.json", cfg)
    argv = ["counterexample", "--blocks", "3", "--trials", "3", "--config", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and next(iter(cfg)) in captured.err


def test_nonpositive_counts_exit_two(capsys, tmp_path):
    triple = write_json(tmp_path / "t.json", triple_to_json(build_witness(3).triple))
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    for argv in (
        ["counterexample", "--blocks", "3", "--trials", "-3"],
        ["falsify", "--triple", triple, "--trials", "-3"],
        ["sup", "--poly", poly, "--samples", "0"],
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv[0]
