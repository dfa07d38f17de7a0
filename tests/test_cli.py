"""End-to-end command-line tests, run in process through main()."""

import dataclasses
import json

import jsonschema
import numpy as np
import pytest

from tetrablock import (
    VERDICT_SCHEMA,
    Triple,
    build_circulant_model,
    build_witness,
    check_tetra_unitary,
    matrix_to_json,
    poly_to_json,
    random_symbol_pair,
    triple_to_json,
    varopoulos_example,
)
from tetrablock.cli import main
from tetrablock.contractions import report_to_json
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


def strict_json(text):
    # NaN and Infinity are not JSON; the standard parser takes them.
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("point", ["(0,0,2)", "(0.3,0.5,1)", "(1.2,1.2,1)"])
def test_classify_without_parameter_pair_writes_null(capsys, point):
    # Before, beta_sum was printed as Infinity, which is not JSON.
    code, out = run_cli(capsys, ["classify", "--point", point])
    assert code == 0
    doc = strict_json(out)
    assert doc["verdict"] == "Outside"
    assert doc["beta"] is None and doc["beta_sum"] is None


@pytest.mark.parametrize(
    "point",
    [
        "(nan,0,0)",
        "(0,inf,0)",
        "(0,0,nanj)",
        '{"x1": [NaN, 0], "x2": [0, 0], "x3": [0, 0]}',
        '{"x1": [0, 0], "x2": [0, Infinity], "x3": [0, 0]}',
        '{"x1": [true, 0], "x2": [0, 0], "x3": [0, 0]}',
        '{"x1": [0, 0], "x2": ["0", 0], "x3": [0, 0]}',
        '{"x1": [0, 0], "x2": [0, 0], "x3": [0]}',
    ],
)
def test_classify_bad_point_exits_two(capsys, point):
    # Before, a NaN component printed NaN fields and exited 0, and a
    # bool component was read as a number.
    assert main(["classify", "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_non_finite_document_exits_two(capsys, monkeypatch, tmp_path):
    # A document is never written with NaN or Infinity in it, on stdout
    # or in the --out file.
    from tetrablock import cli

    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    monkeypatch.setattr(cli, "sup_on_closure", lambda *a, **k: float("nan"))
    assert main(["sup", "--poly", poly, "--samples", "8"]) == 2
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cli, "pipeline_report_to_json", lambda _: {"x": float("inf")})
    out = tmp_path / "verdict.json"
    argv = ["counterexample", "--blocks", "3", "--trials", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == "" and not out.exists()


def test_memory_error_exits_two(capsys, monkeypatch):
    # An input too large to run is an input error: before, the
    # MemoryError escaped main as a traceback with exit code 1, the
    # code of a negative verdict.
    from tetrablock import counterexample

    def too_big(depth, **_):
        raise MemoryError(f"cannot allocate the depth-{depth} witness")

    monkeypatch.setattr(counterexample, "build_witness", too_big)
    assert main(["counterexample", "--blocks", "100000", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: MemoryError: cannot allocate the depth-100000 witness\n"
    )


def test_counterexample_runs_at_depth_one_hundred_thousand(capsys):
    # The witness is a direct sum of three distinct blocks, so dim
    # 800,000 is worked on without a dim x dim matrix (9.31 TiB each).
    code, doc = run_json(
        capsys, ["counterexample", "--blocks", "100000", "--trials", "2"]
    )
    assert code == 1
    assert (doc["verdict"], doc["dim"]) == ("Obstructed", 800_000)
    assert doc["hypotheses"]["passed"]


@pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)
def test_non_finite_document_exits_two_in_text_form(capsys, tmp_path):
    # The text form refuses what the JSON form refuses: before, both
    # commands printed an inf field and exited 0.
    big = Poly3({(1, 0, 0): 1e308, (0, 1, 0): 1e308})
    poly = write_json(tmp_path / "p.json", poly_to_json(big))
    sup = ["sup", "--poly", poly, "--samples", "64", "--seed", "1"]
    cf = ["cf", "--b0", "1e308", "--b1", "1e308"]
    for argv in (sup, cf):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert main(argv + ["--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not JSON compliant" in captured.err


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
    # Every defect that decides "passed" is written, normality too.
    unitary = check_tetra_unitary(build_circulant_model(a1, a2, 5))
    assert doc["boundary_triple"] == report_to_json(unitary)


@pytest.mark.parametrize("flavor", ["hardy", "circulant"])
def test_model_validates_the_pair_once(capsys, monkeypatch, tmp_path, flavor):
    # The symbol block is the report the build checked, not a second
    # stacked SVD over the pencils.
    from tetrablock import cli, models

    calls = []
    validate = models.validate_symbol_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(models, "validate_symbol_pair", counting)
    monkeypatch.setattr(cli, "validate_symbol_pair", counting, raising=False)
    a1, a2 = random_symbol_pair(2, seed=27)
    f1 = write_json(tmp_path / "a1.json", matrix_to_json(a1))
    f2 = write_json(tmp_path / "a2.json", matrix_to_json(a2))
    argv = ["model", "--a1", f1, "--a2", f2, "--blocks", "4", "--flavor", flavor]
    code, doc = run_json(capsys, argv)
    assert code == 0 and len(calls) == 1
    assert doc["symbol"] == report_to_json(validate(a1, a2))


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


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_negative_seed_exits_two_naming_it(capsys, monkeypatch, tmp_path, source):
    # Before, each source ended in numpy's bare "expected non-negative
    # integer", which names neither the seed nor where it came from.
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    argv = ["sup", "--poly", poly, "--samples", "8"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("TETRA_SEED", "-2")
    else:
        argv += ["--config", write_json(tmp_path / "cfg.json", {"seed": -4})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert ("TETRA_SEED" if source == "env" else "seed") in captured.err


def _envelope_commands(tmp_path) -> dict:
    # One run of every command that prints a verdict document.
    triple = write_json(tmp_path / "t.json", triple_to_json(build_witness(3).triple))
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    a1, a2 = random_symbol_pair(2, seed=25)
    a1 = write_json(tmp_path / "a1.json", matrix_to_json(a1))
    a2 = write_json(tmp_path / "a2.json", matrix_to_json(a2))
    model = ["model", "--a1", a1, "--a2", a2, "--blocks", "3", "--flavor"]
    return {
        "classify": ["classify", "--point", "(0.2,0.3,0.5)"],
        "sup": ["sup", "--poly", poly, "--samples", "32"],
        "cf": ["cf", "--b0", "0.6", "--b1", "0.8", "--degree", "2"],
        "fundamental": ["fundamental", "--triple", triple],
        "falsify": ["falsify", "--triple", triple, "--trials", "2"],
        "obstruction": ["obstruction", "--triple", triple, "--split", "12"],
        "model-hardy": model + ["hardy"],
        "model-circulant": model + ["circulant"],
        "counterexample": ["counterexample", "--blocks", "3", "--trials", "2"],
    }


@pytest.mark.parametrize(
    "name",
    ["classify", "sup", "cf", "fundamental", "falsify", "obstruction",
     "model-hardy", "model-circulant", "counterexample"],
)
def test_every_document_in_the_envelope(capsys, tmp_path, name):
    argv = _envelope_commands(tmp_path)[name]
    code, doc = run_json(capsys, argv)
    assert code in (0, 1)
    jsonschema.validate(doc, VERDICT_SCHEMA)
    assert doc["tool"] == argv[0]
    # Only the randomized commands echo a seed.
    assert ("seed" in doc) == (argv[0] in ("sup", "falsify", "counterexample"))


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
        {"z_samples": 2},
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


@pytest.mark.parametrize(
    "cfg",
    [
        {"seed": 1.5},
        {"seed": True},
        {"tol_solve": "x"},
        {"rank_tol": float("nan")},
        {"falsify_margin": float("inf")},
    ],
)
def test_bad_config_types_exit_two(capsys, tmp_path, cfg):
    # Before, a float seed or a string tolerance ended in a TypeError
    # traceback, and a bool seed, a NaN or an infinite tolerance were
    # taken as given.
    path = write_json(tmp_path / "cfg.json", cfg)
    poly = write_json(tmp_path / "p.json", poly_to_json(Poly3({(1, 0, 0): 1.0})))
    argv = ["sup", "--config", path, "--poly", poly, "--samples", "8"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and next(iter(cfg)) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cfg", [5, None], ids=["int", "null"])
def test_config_file_not_an_object_exits_two(capsys, tmp_path, cfg):
    # Before, a config file holding 5 or null ended in a TypeError
    # traceback and exit code 1.
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["classify", "--point", "(0,0,0)", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: config ")


def test_default_configs_construct():
    from tetrablock.config import DEFAULT_CONFIG, ToolConfig

    assert ToolConfig() == DEFAULT_CONFIG
    assert ToolConfig.from_dict(dataclasses.asdict(DEFAULT_CONFIG)) == DEFAULT_CONFIG


@pytest.mark.parametrize(
    "doc",
    [
        [[[1, 0, 0], [1, 0]]],
        {"a": 1},
        # A non-integer exponent used to be truncated, and a NaN
        # coefficient printed "estimate": NaN, which is not JSON.
        [{"exp": [1.5, 0, 0], "coef": [1.0, 0.0]}],
        [{"exp": [True, 0, 0], "coef": [1.0, 0.0]}],
        [{"exp": [1, 0, 0], "coef": [float("nan"), 0.0]}],
        [{"exp": [1, 0, 0], "coef": [1.0, float("inf")]}],
        # A bool coefficient used to be read as a number.
        [{"exp": [1, 0, 0], "coef": [True, 0]}],
    ],
)
def test_malformed_poly_exits_two(capsys, tmp_path, doc):
    poly = write_json(tmp_path / "p.json", doc)
    assert main(["sup", "--poly", poly, "--samples", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(rows=True),
        lambda m: m.update(cols=1.0),
        lambda m: m.update(rows="1"),
        lambda m: m.update(data=[[True, 0.0]]),
        lambda m: m.update(data=[[0.5, float("nan")]]),
        lambda m: m.update(data=[["0.5", 0.0]]),
        lambda m: m.update(data=[[0.5]]),
    ],
    ids=[
        "bool-rows",
        "float-cols",
        "string-rows",
        "bool-entry",
        "nan-entry",
        "string-entry",
        "short-entry",
    ],
)
def test_malformed_matrix_exits_two(capsys, tmp_path, edit):
    # Before, bool or float rows and cols and bool entries were read as
    # numbers, and a string entry ended in a TypeError traceback.
    doc = triple_to_json(Triple([[0.5]], [[0.0]], [[0.0]]))
    edit(doc["t1"])
    triple = write_json(tmp_path / "t.json", doc)
    assert main(["fundamental", "--triple", triple]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "tol",
    [True, float("nan"), float("inf"), 0, -1e-9, "1e-9", None, 10**400],
    ids=["bool", "nan", "inf", "zero", "negative", "string", "null", "huge-int"],
)
def test_bad_triple_tol_exits_two(capsys, tmp_path, tol):
    # Before, "tol": true loaded as 1.0, and the unitary check then
    # passed on the non-unitary depth-3 witness; NaN loaded too.
    doc = triple_to_json(build_witness(3).triple)
    doc["tol"] = tol
    triple = write_json(tmp_path / "t.json", doc)
    for argv in (
        ["fundamental", "--triple", triple],
        ["falsify", "--triple", triple, "--trials", "2"],
        ["obstruction", "--triple", triple, "--split", "12"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tol ")


@pytest.mark.parametrize("doc", [[1], 5], ids=["list", "int"])
def test_triple_file_not_an_object_exits_two(capsys, tmp_path, doc):
    # Before, a triple file holding [1] or 5 ended in an AttributeError
    # traceback and exit code 1.
    triple = write_json(tmp_path / "t.json", doc)
    for argv in (
        ["fundamental", "--triple", triple],
        ["falsify", "--triple", triple, "--trials", "2"],
        ["obstruction", "--triple", triple, "--split", "12"],
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: triple "), argv[0]


def test_triple_tol_accepts_a_positive_int(capsys, tmp_path):
    doc = triple_to_json(build_witness(3).triple)
    doc["tol"] = 1
    triple = write_json(tmp_path / "t.json", doc)
    code, _ = run_json(capsys, ["fundamental", "--triple", triple])
    assert code == 0
