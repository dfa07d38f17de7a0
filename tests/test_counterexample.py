"""Witness construction and end-to-end pipeline tests."""

import dataclasses
import json
import tracemalloc

import jsonschema
import numpy as np
import pytest

from tetrablock import (
    VERDICT_SCHEMA,
    BadSplitError,
    CaseInequalityReport,
    FundamentalPair,
    NoConvergenceError,
    ToolConfig,
    build_witness,
    case_inequality_check,
    cf_convergence_study,
    cf_matrix_norm,
    op_norm,
    pipeline_report_to_json,
    report_to_json,
    run_pipeline,
    witness_symbol,
)
from tetrablock import counterexample as ce

from conftest import dense_witness, use_dense_witness


def test_witness_symbol_exact_constants():
    f1 = witness_symbol()
    assert op_norm(f1) == 0.25
    assert np.all(f1 @ f1 == 0.0)
    comm = f1.conj().T @ f1 - f1 @ f1.conj().T
    assert op_norm(comm) == 0.0625


def test_build_witness_shapes():
    w = build_witness(5)
    assert w.triple.dim == 40
    assert w.split == 20
    assert w.boundary.tolist() == [18, 19]
    assert w.depth == 5


@pytest.mark.parametrize("depth", [3, 4, 5, 16, 32, 100, 256])
def test_witness_parts_equal_the_dense_oracle(depth):
    # The stated parts are what Triple.parts finds on the dense matrices
    # written out whole: the same blocks bit for bit, in the same order,
    # with the same occurrence arrays; and they scatter back to those
    # matrices.
    t = build_witness(depth).triple
    oracle = dense_witness(depth)
    assert "t1" not in vars(t) and t.dim == oracle.dim
    assert len(t.parts) == len(oracle.parts) == 3
    for (part, where), (want, want_where) in zip(t.parts, oracle.parts):
        assert where.dtype == want_where.dtype
        assert np.array_equal(where, want_where)
        for name in ("t1", "t2", "t3"):
            got, ref = getattr(part, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    for name in ("t1", "t2", "t3"):
        assert np.array_equal(getattr(t, name), getattr(oracle, name))


@pytest.mark.parametrize("depth", [4, 32, 256])
def test_pipeline_document_equals_the_dense_oracle(monkeypatch, depth):
    doc = json.dumps(pipeline_report_to_json(run_pipeline(depth, trials=5, seed=7)))
    use_dense_witness(monkeypatch, lambda w: dense_witness(w.depth, w.triple.tol))
    oracle = pipeline_report_to_json(run_pipeline(depth, trials=5, seed=7))
    assert doc == json.dumps(oracle)


def test_pipeline_at_depth_one_hundred_thousand():
    # dim 800,000: one dense matrix would take 9.31 TiB.
    rep = run_pipeline(100_000, trials=5)
    assert (rep.verdict, rep.dim, rep.failing_stage) == ("Obstructed", 800_000, None)
    assert rep.hypotheses.passed
    assert rep.obstruction.c2 == 0.0625


def test_pipeline_allocates_nothing_dim_sized():
    # At depth 1024 (dim 8192) one dense matrix alone would take 1 GiB;
    # the pipeline works on the three distinct blocks only.  A first
    # run does the lazy imports and set-up, which are not per depth.
    run_pipeline(4, trials=2)
    tracemalloc.start()
    try:
        rep = run_pipeline(1024, trials=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "Obstructed"
    assert peak < 8 * 2**20


def test_build_witness_rejects_shallow_depth():
    for depth in (0, 1, 2):
        with pytest.raises(ValueError):
            build_witness(depth)


def test_case_inequality_check():
    rep = case_inequality_check()
    assert rep == CaseInequalityReport(passed=True, points=27)
    assert report_to_json(rep) == {"passed": True, "points": 27}


def test_case_inequality_holds_against_svd():
    # The proved claim against the largest singular value, on random
    # entries and on the edges: zeros, a0 = a1 (the case boundary) and
    # an entry at the top of the range.
    rng = np.random.default_rng(8)
    edges = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 1.5, 0.0],
            [0.0, 0.0, 1.3],
            [0.7, 0.0, 0.2],
            [0.9, 0.9, 0.0],
            [1.1, 1.1, 0.4],
            [2.0, 0.0, 2.0],
            [0.0, 2.0, 2.0],
        ]
    )
    a0, a1, a3 = np.concatenate([2.0 * rng.random((10**5, 3)), edges]).T
    lhs = np.zeros((a0.size, 2, 2))
    lhs[:, 0, 0], lhs[:, 1, 0], lhs[:, 1, 1] = a0, a3, a0 + a1 / 4.0
    rhs = np.zeros_like(lhs)
    rhs[:, 0, 0], rhs[:, 1, 1] = a0, a0
    rhs[:, 1, 0] = np.where(a0 <= a1, a1 + a3, a0 + a3)
    lhs_norm = np.linalg.svd(lhs, compute_uv=False)[:, 0]
    rhs_norm = np.linalg.svd(rhs, compute_uv=False)[:, 0]
    assert np.all(rhs_norm >= lhs_norm - 1e-12)


def test_cf_convergence_study():
    rep = cf_convergence_study(seed=123, grid=256)
    assert rep.monotone
    assert rep.above_floor
    assert rep.degrees == (0, 2, 4, 8)
    mu = cf_matrix_norm(rep.b0, rep.b1)
    assert rep.matrix_norm == pytest.approx(mu, abs=1e-12)
    assert rep.values[0] == pytest.approx(abs(rep.b0) + abs(rep.b1), abs=1e-9)
    assert rep.final_ratio == pytest.approx(rep.values[-1] / mu, abs=1e-12)
    assert 1.0 - 1e-9 <= rep.final_ratio <= 1.05


def test_cf_study_fits_each_degree_once(monkeypatch):
    import tetrablock.poly3 as poly3

    fits = []
    circle_sup_bound = poly3._circle_sup_bound

    def counting(row, d):
        fits.append(d)
        return circle_sup_bound(row, d)

    monkeypatch.setattr(poly3, "_circle_sup_bound", counting)
    rep = cf_convergence_study(seed=123, grid=256)
    # Degrees 2..8 are each fitted once (the running minimum carries
    # them to 4 and 8), not 1 + 3 + 7 times.
    assert fits == list(range(2, 9))
    monkeypatch.setattr(poly3, "_circle_sup_bound", circle_sup_bound)
    separate = tuple(
        poly3.cf_empirical_inf(rep.b0, rep.b1, [d], grid=256)[0] for d in rep.degrees
    )
    assert rep.values == separate


def test_pipeline_obstructed_verdict_each_depth():
    for depth in (3, 4, 8):
        rep = run_pipeline(depth, trials=8, degree=2, seed=99)
        assert rep.verdict == "Obstructed"
        assert rep.failing_stage is None
        assert max(rep.products.values()) == 0.0
        assert rep.defect_projection_error <= 1e-12
        assert pipeline_report_to_json(rep)["fundamental"]["a2_norm"] <= 1e-12
        assert rep.obstruction.c1 <= 1e-12
        assert rep.obstruction.c2 == pytest.approx(0.0625, abs=1e-10)
        assert rep.hypotheses.passed
        assert rep.falsify.outcome == "NoViolationFound"
        assert rep.case_check.passed
        assert rep.cf_study.monotone and rep.cf_study.above_floor


def test_pipeline_json_matches_schema_and_is_stable():
    rep = run_pipeline(4, trials=5, degree=2, seed=7)
    doc = pipeline_report_to_json(rep)
    jsonschema.validate(doc, VERDICT_SCHEMA)
    assert doc["schema"] == "tetrablock/verdict-v1"
    assert doc["verdict"] == "Obstructed"
    blob_a = json.dumps(doc, sort_keys=True)
    rep2 = run_pipeline(4, trials=5, degree=2, seed=7)
    blob_b = json.dumps(pipeline_report_to_json(rep2), sort_keys=True)
    assert blob_a == blob_b
    # Different seed moves the randomized stages but not the verdict.
    rep3 = run_pipeline(4, trials=5, degree=2, seed=8)
    assert rep3.verdict == "Obstructed"
    assert json.dumps(pipeline_report_to_json(rep3), sort_keys=True) != blob_a


def test_pipeline_inconclusive_on_stage_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise NoConvergenceError("synthetic failure")

    monkeypatch.setattr(ce, "extract_fundamental", boom)
    rep = run_pipeline(4, trials=5, degree=2, seed=7)
    assert rep.verdict == "Inconclusive"
    assert rep.failing_stage == "fundamental"
    # Stages before the failure are reported, later ones stay empty.
    assert max(rep.products.values()) == 0.0
    assert rep.obstruction is None
    assert rep.falsify is None
    doc = pipeline_report_to_json(rep)
    jsonschema.validate(doc, VERDICT_SCHEMA)
    assert doc["verdict"] == "Inconclusive"
    assert doc["failing_stage"] == "fundamental"
    assert doc["failure"] == "NoConvergenceError: synthetic failure"
    json.dumps(doc)  # still strictly serializable


def test_pipeline_document_names_the_failure(monkeypatch):
    # The failing stage's exception type and message sit next to its
    # name; a run that succeeds has no failure key.
    ok = pipeline_report_to_json(run_pipeline(4, trials=5, degree=2, seed=7))
    assert ok["failing_stage"] is None and "failure" not in ok

    def boom(*args, **kwargs):
        raise BadSplitError("boom")

    monkeypatch.setattr(ce, "check_obstruction_hypotheses", boom)
    rep = run_pipeline(4, trials=5, degree=2, seed=7)
    assert (rep.failing_stage, rep.failure) == ("hypotheses", "BadSplitError: boom")
    doc = pipeline_report_to_json(rep)
    assert doc["verdict"] == "Inconclusive"
    assert doc["failing_stage"] == "hypotheses"
    assert doc["failure"] == "BadSplitError: boom"
    assert doc["obstruction"] == ok["obstruction"] and doc["falsify"] is None


def test_pipeline_programming_error_propagates(monkeypatch):
    # Only the package's own errors and LAPACK failures make a run
    # Inconclusive; anything else is a bug and must not be folded away.
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ce, "extract_fundamental", boom)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_pipeline(4, trials=5, degree=2, seed=7)


def test_pipeline_config_seed_fallback():
    cfg = ToolConfig(seed=31415)
    rep = run_pipeline(3, trials=4, degree=2, config=cfg)
    assert rep.seed == 31415


def test_pipeline_document_combines_block_pairs():
    # The document's rank counts every copy of a block's pair, and its
    # residuals are the largest over the distinct blocks.
    def pair(rank, residual_1, residual_2):
        return FundamentalPair(
            a1=np.zeros((rank, rank)),
            a2=np.zeros((rank, rank)),
            basis=np.zeros((3, rank)),
            defect_values=np.ones(rank),
            residual_1=residual_1,
            residual_2=residual_2,
            rank=rank,
        )

    rep = dataclasses.replace(
        run_pipeline(4, trials=5, seed=3),
        fundamental=[(pair(1, 0.0, 3e-12), 5), (pair(2, 2e-12, 1e-12), 1)],
    )
    doc = pipeline_report_to_json(rep)["fundamental"]
    assert (doc["rank"], doc["residual_1"], doc["residual_2"]) == (7, 2e-12, 3e-12)
