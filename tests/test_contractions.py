"""Triple structure checks, fundamental operators, dilation verification."""

import json

import numpy as np
import pytest

from tetrablock import contractions
from tetrablock import (
    BadSplitError,
    DimensionMismatchError,
    NotIsometricEmbeddingError,
    Triple,
    build_circulant_model,
    build_hardy_model,
    build_witness,
    check_obstruction_hypotheses,
    check_tetra_isometry,
    check_tetra_unitary,
    commutation_defect,
    dilation_obstruction,
    extract_fundamental,
    falsify_spectral_set,
    op_norm,
    pipeline_report_to_json,
    purity_defect,
    random_symbol_pair,
    run_pipeline,
    triple_from_json,
    triple_to_json,
    varopoulos_example,
    verify_dilation,
    violation_certificate,
    witness_symbol,
)

from conftest import power_table_eval_operator

SYMBOLS = random_symbol_pair(2, seed=55)


def test_triple_shape_validation():
    with pytest.raises(DimensionMismatchError):
        Triple(t1=np.eye(2), t2=np.eye(3), t3=np.eye(2))


def test_triple_json_round_trip(rng):
    mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    t = Triple(t1=mats[0], t2=mats[1], t3=mats[2], tol=1e-7)
    u = triple_from_json(triple_to_json(t))
    assert u.tol == t.tol
    assert np.array_equal(u.t1, t.t1)
    assert np.array_equal(u.t2, t.t2)
    assert np.array_equal(u.t3, t.t3)


def test_commutation_defect(rng):
    d = [np.diag(rng.standard_normal(3)) for _ in range(3)]
    assert commutation_defect(Triple(t1=d[0], t2=d[1], t3=d[2])) == 0.0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = Triple(t1=a, t2=a.T, t3=np.eye(2))
    assert commutation_defect(t) == pytest.approx(1.0, abs=1e-12)


def test_circulant_model_is_tetra_unitary():
    m = build_circulant_model(*SYMBOLS, 6)
    rep = check_tetra_unitary(m.as_triple())
    assert rep.passed
    for field in ("commutation", "unitary_defect", "relation_1", "relation_2",
                  "normality_1", "normality_2"):
        assert getattr(rep, field) <= 1e-12
    assert rep.contraction_excess <= 1e-12


def test_witness_is_not_tetra_unitary():
    w = build_witness(4)
    rep = check_tetra_unitary(w.triple)
    assert not rep.passed
    assert rep.unitary_defect == pytest.approx(1.0, abs=1e-12)


def test_circulant_model_is_tetra_isometry():
    m = build_circulant_model(*SYMBOLS, 6)
    assert check_tetra_isometry(m.as_triple()).passed


def test_hardy_model_isometry_fails_at_truncation():
    m = build_hardy_model(*SYMBOLS, 4)
    rep = check_tetra_isometry(m.as_triple())
    assert not rep.passed
    # The truncated shift drops exactly one slot, so the defect is 1.
    assert rep.isometry_defect == pytest.approx(1.0, abs=1e-12)


def test_purity_defect():
    h = build_hardy_model(*SYMBOLS, 4).as_triple()
    c = build_circulant_model(*SYMBOLS, 4).as_triple()
    assert purity_defect(h) == 0.0
    assert purity_defect(c) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        purity_defect(h, power=-1)


def test_extract_fundamental_on_witness():
    w = build_witness(4)
    fp = extract_fundamental(w.triple)
    assert fp.rank == 18
    assert fp.basis.shape == (32, 18)
    # The defect of the witness shift is an exact projection.
    assert np.max(np.abs(fp.defect_values - 1.0)) <= 1e-12
    assert op_norm(fp.a1) == pytest.approx(0.25, abs=1e-12)
    assert op_norm(fp.a2) <= 1e-12
    assert fp.residual_1 <= 1e-10
    assert fp.residual_2 <= 1e-10


def test_extract_fundamental_on_hardy_model():
    m = build_hardy_model(*SYMBOLS, 5)
    fp = extract_fundamental(m.as_triple())
    k = m.block_dim
    assert fp.rank == k
    assert fp.residual_1 <= 1e-10
    assert fp.residual_2 <= 1e-10
    # Basis rotation preserves singular values of the symbols.
    got = np.linalg.svd(fp.a1, compute_uv=False)
    want = np.linalg.svd(m.a1, compute_uv=False)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_dilation_obstruction_normal_pair(rng):
    a1 = np.diag(0.3 * rng.standard_normal(3))
    a2 = np.diag(0.3 * rng.standard_normal(3))
    rep = dilation_obstruction(a1, a2)
    assert not rep.obstructed
    assert rep.c1 == 0.0 and rep.c2 == 0.0


def test_dilation_obstruction_witness_pair():
    f1 = witness_symbol()
    rep = dilation_obstruction(f1, np.zeros((2, 2)))
    assert rep.obstructed
    assert rep.c1 == 0.0
    assert rep.c2 == pytest.approx(0.0625, abs=1e-14)


def test_dilation_obstruction_shape_gate():
    with pytest.raises(DimensionMismatchError):
        dilation_obstruction(np.eye(2), np.eye(3))


def test_hypotheses_interior_mode_passes_on_witness():
    w = build_witness(4)
    rep = check_obstruction_hypotheses(
        w.triple, w.split, boundary=w.boundary
    )
    assert rep.mode == "interior"
    assert rep.boundary_dim == 2
    assert rep.passed
    assert max(rep.defect_kernel, rep.defect_range) <= 1e-12
    assert max(rep.shift_kills_range, rep.shift_maps_kernel) <= 1e-12


def test_hypotheses_strict_mode_sees_truncation():
    # Without discounting the boundary the kernel/range comparison
    # must fail by a full unit at any finite depth.
    w = build_witness(4)
    rep = check_obstruction_hypotheses(w.triple, w.split)
    assert rep.mode == "strict"
    assert not rep.passed
    assert rep.defect_kernel == pytest.approx(1.0, abs=1e-12)


def test_hypotheses_split_gate():
    w = build_witness(4)
    with pytest.raises(BadSplitError):
        check_obstruction_hypotheses(w.triple, w.split - 1)


def test_hypotheses_boundary_gate():
    w = build_witness(4)
    bad = 2.0 * w.boundary
    with pytest.raises(NotIsometricEmbeddingError):
        check_obstruction_hypotheses(w.triple, w.split, boundary=bad)


def test_circulant_dilates_hardy():
    h = build_hardy_model(*SYMBOLS, 4)
    c = build_circulant_model(*SYMBOLS, 8)
    embed = np.zeros((c.dim, h.dim))
    embed[: h.dim, :] = np.eye(h.dim)
    rep = verify_dilation(h.as_triple(), c.as_triple(), embed, max_degree=4)
    assert rep.passed
    assert rep.max_compression_defect <= 1e-10
    # A power dilation need not be an extension; the defects just
    # report how far the adjoints leak off the subspace.
    assert max(rep.extension_defects) > 0.1


def test_unitary_power_dilation_stops_at_degree_one():
    t = 0.6
    s = np.sqrt(1.0 - t * t)
    u = np.array([[t, s], [s, -t]])
    small = Triple(t1=[[t]], t2=[[t]], t3=[[t]])
    big = Triple(t1=u, t2=u, t3=u)
    v = np.array([[1.0], [0.0]])
    assert verify_dilation(small, big, v, max_degree=1).passed
    rep = verify_dilation(small, big, v, max_degree=2)
    assert not rep.passed
    # u squares to the identity, so every degree-2 monomial compresses
    # to 1 instead of t^2.
    assert rep.max_compression_defect == pytest.approx(1.0 - t * t, abs=1e-12)


def test_verify_dilation_treats_absent_monomials_as_zero():
    # The witness sits as a direct summand of a bigger triple, so every
    # compression is exact, including the witness's zero monomials.
    w = build_witness(3).triple
    d = np.diag([0.5, -0.25, 0.75])
    zeros = np.zeros((w.dim, 3))

    def with_block(m):
        return np.block([[m, zeros], [zeros.T, d]])

    big = Triple(t1=with_block(w.t1), t2=with_block(w.t2), t3=with_block(w.t3))
    v = np.vstack([np.eye(w.dim), zeros.T])
    rep = verify_dilation(w, big, v, max_degree=3)
    assert rep.passed
    assert rep.max_compression_defect == 0.0
    # A zero monomial on either side compresses against 0.5^|m| on the
    # other, so the worst defect is 0.5, first met at (0, 0, 1).
    half = Triple(t1=[[0.5]], t2=[[0.5]], t3=[[0.5]])
    zero = Triple(t1=[[0.0]], t2=[[0.0]], t3=[[0.0]])
    for small, big in ((half, zero), (zero, half)):
        rep = verify_dilation(small, big, [[1.0]], max_degree=3)
        assert not rep.passed
        assert rep.max_compression_defect == 0.5
        assert rep.worst_monomial == (0, 0, 1)


def test_verify_dilation_requires_isometric_embed():
    small = Triple(t1=[[0.5]], t2=[[0.5]], t3=[[0.5]])
    big = Triple(t1=np.eye(2), t2=np.eye(2), t3=np.eye(2))
    with pytest.raises(NotIsometricEmbeddingError):
        verify_dilation(small, big, np.array([[2.0], [0.0]]))


def test_varopoulos_certificate():
    t, p = varopoulos_example()
    cert = violation_certificate(t, p)
    assert cert.violates
    assert cert.lhs == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-9)
    assert cert.sup_refined == pytest.approx(5.0, abs=1e-6)
    assert cert.lhs > cert.sup_refined + cert.margin


def test_falsifier_confirms_varopoulos_violation():
    t, p = varopoulos_example()
    rep = falsify_spectral_set(t, polys=[p], seed=1)
    assert rep.outcome == "Violation"
    assert rep.certificate is not None
    assert rep.certificate.violates
    assert rep.worst_ratio > 1.03


def test_falsifier_finds_nothing_on_witness():
    w = build_witness(4)
    rep = falsify_spectral_set(w.triple, trials=60, degree=3, seed=17)
    assert rep.outcome == "NoViolationFound"
    # The best-ratio trial is kept for inspection but does not violate.
    assert rep.certificate is not None and not rep.certificate.violates
    assert rep.trials_run == 60
    assert rep.worst_ratio <= 1.0
    assert rep.commutation_defect <= 1e-12


def test_falsifier_reproducible():
    w = build_witness(3)
    a = falsify_spectral_set(w.triple, trials=25, degree=2, seed=5)
    b = falsify_spectral_set(w.triple, trials=25, degree=2, seed=5)
    assert a == b


@pytest.mark.parametrize("seed", [3, 11])
def test_pipeline_document_unchanged_by_shared_basis(monkeypatch, seed):
    # The falsifier's shared monomial basis must give the same verdict
    # document, byte for byte, as per-call power tables.
    fast = json.dumps(pipeline_report_to_json(run_pipeline(4, trials=5, seed=seed)))
    monkeypatch.setattr(contractions, "eval_operator", power_table_eval_operator)
    slow = json.dumps(pipeline_report_to_json(run_pipeline(4, trials=5, seed=seed)))
    assert fast == slow
