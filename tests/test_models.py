"""Functional-model builders: structure oracles, validation, recovery."""

import math

import numpy as np
import pytest

from tetrablock import (
    TruncationTooSmallError,
    ValidationRequiredError,
    build_circulant_model,
    build_hardy_model,
    check_tetra_unitary,
    interior_identity_report,
    op_norm,
    random_symbol_pair,
    recover_fundamental,
    validate_symbol_pair,
)


def test_random_symbol_pair_admissible():
    for seed, diagonal in ((1, True), (2, False), (3, True), (4, False)):
        a1, a2 = random_symbol_pair(3, seed=seed, diagonal=diagonal)
        rep = validate_symbol_pair(a1, a2)
        assert rep.valid
        assert rep.max_pencil_norm <= 0.951
        if diagonal:
            assert op_norm(a1 - np.diag(np.diagonal(a1))) == 0.0
        else:
            assert op_norm(a1 - np.diag(np.diagonal(a1))) > 1e-3


def test_random_symbol_pair_deterministic():
    a = random_symbol_pair(4, seed=9)
    b = random_symbol_pair(4, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        random_symbol_pair(0)


def test_validate_symbol_pair_pencil_sup_matches_per_angle_norms():
    # One stacked SVD gives, bit for bit, the largest of the per-angle
    # operator norms, also for a zero and an empty pair; the bound adds
    # the chord slack and the rounding allowance to it.
    pairs = [
        random_symbol_pair(8, seed=child, diagonal=(i % 2 == 0))
        for i, child in enumerate(np.random.SeedSequence(40).spawn(12))
    ]
    pairs += [(np.zeros((3, 3)), np.zeros((3, 3))), (np.zeros((0, 0)),) * 2]
    for a1, a2 in pairs:
        roots = np.exp(2j * np.pi * np.arange(64) / 64)
        sampled = max(op_norm(a1.conj().T + z * a2) for z in roots)
        a2_norm = op_norm(a2)
        rounding = 8.0 * len(a2) * math.ulp(1.0) * (sampled + 2.0 * a2_norm)
        slack = (1.0 - math.cos(math.pi / 64)) * a2_norm
        assert validate_symbol_pair(a1, a2).max_pencil_norm == sampled + slack + rounding


def test_validate_symbol_pair_refuses_a_pencil_peaking_between_roots():
    # |0.5001 + 0.5001 e^{i(theta - pi/64)}| peaks at 1.0002, midway
    # between two of the 64 roots, where it reads 1.0002 cos(pi/128),
    # below one; the sampled maximum alone would accept the pair.
    a1 = np.array([[0.5001]])
    a2 = np.array([[0.5001 * np.exp(-1j * np.pi / 64)]])
    roots = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.abs(a1[0, 0] + roots * a2[0, 0]).max() <= 1.0
    rep = validate_symbol_pair(a1, a2)
    assert rep.commutator == 0.0 and rep.balance == 0.0
    assert rep.max_pencil_norm >= 1.0002
    assert not rep.valid
    with pytest.raises(ValueError, match="at least 3"):
        validate_symbol_pair(a1, a2, z_samples=2)


def test_validate_symbol_pair_flags_each_defect():
    # Noncommuting pair.
    a = np.array([[0.0, 0.3], [0.0, 0.0]])
    rep = validate_symbol_pair(a, a.T)
    assert rep.commutator > 0.05 and not rep.valid
    # Unbalanced pair: one creation operator against a normal matrix.
    rep = validate_symbol_pair(np.array([[0.0, 0.5], [0.0, 0.0]]), np.zeros((2, 2)))
    assert rep.balance == pytest.approx(0.25, abs=1e-12)
    assert not rep.valid
    # Pencil too large.
    rep = validate_symbol_pair(0.8 * np.eye(2), 0.8 * np.eye(2))
    slack = (1.0 - math.cos(math.pi / 64)) * 0.8
    assert rep.max_pencil_norm == pytest.approx(1.6 + slack, abs=1e-9)
    assert not rep.valid


def test_builders_reject_inadmissible_pair():
    big = 0.8 * np.eye(2)
    with pytest.raises(ValidationRequiredError):
        build_hardy_model(big, big, 4)
    with pytest.raises(ValidationRequiredError):
        build_circulant_model(big, big, 4)
    # The depth is checked before the pair.
    with pytest.raises(TruncationTooSmallError):
        build_hardy_model(big, big, 0)


def test_model_block_structure():
    a1, a2 = random_symbol_pair(2, seed=6)
    m = build_hardy_model(a1, a2, 3)
    # First block column spells out the construction: diagonal a1*,
    # subdiagonal a2.
    assert np.array_equal(m.t1[0:2, 0:2], a1.conj().T)
    assert np.array_equal(m.t1[2:4, 0:2], a2)
    assert op_norm(m.t1[4:6, 0:2]) == 0.0
    assert np.array_equal(m.t3[2:4, 0:2], np.eye(2))


def test_circulant_blocks_diagonalize_under_fourier():
    # The cyclic shift is diagonal in the Fourier basis, so conjugating
    # the model by DFT x identity must produce block-diagonal matrices
    # whose blocks are the symbol pencils at the shift eigenvalues.
    a1, a2 = random_symbol_pair(2, seed=13)
    depth = 5
    m = build_circulant_model(a1, a2, depth)
    k = m.block_dim
    idx = np.arange(depth)
    f = np.exp(2j * np.pi * np.outer(idx, idx) / depth) / np.sqrt(depth)
    shift = np.zeros((depth, depth))
    for i in range(depth):
        shift[(i + 1) % depth, i] = 1.0
    lam = np.diagonal(f.conj().T @ shift @ f)
    assert np.max(np.abs(f.conj().T @ shift @ f - np.diag(lam))) <= 1e-12
    u = np.kron(f, np.eye(k))
    for t, first, second in ((m.t1, a1.conj().T, a2), (m.t2, a2.conj().T, a1)):
        rot = u.conj().T @ t @ u
        for j in range(depth):
            for i in range(depth):
                block = rot[i * k : (i + 1) * k, j * k : (j + 1) * k]
                if i == j:
                    want = first + lam[j] * second
                    assert op_norm(block - want) <= 1e-10
                else:
                    assert op_norm(block) <= 1e-10


def test_interior_identities():
    a1, a2 = random_symbol_pair(3, seed=21)
    h = build_hardy_model(a1, a2, 4)
    rep = interior_identity_report(h)
    assert rep.passed
    assert rep.interior_dim == 9
    assert max(rep.defect_isometry, rep.defect_relation_1, rep.defect_relation_2) <= 1e-12
    # The truncated shift on four blocks is nilpotent of order four.
    powers = [op_norm(np.linalg.matrix_power(h.t3, k)) for k in (3, 4)]
    assert powers[0] == pytest.approx(1.0, abs=1e-12) and powers[1] == 0.0
    c = build_circulant_model(a1, a2, 4)
    rep = interior_identity_report(c)
    assert rep.passed


def test_circulant_model_boundary_structure():
    a1, a2 = random_symbol_pair(2, seed=30, diagonal=True)
    m = build_circulant_model(a1, a2, 6)
    assert check_tetra_unitary(m.as_triple()).passed


def test_recover_fundamental_round_trip():
    for seed, diagonal in ((41, True), (42, False)):
        a1, a2 = random_symbol_pair(3, seed=seed, diagonal=diagonal)
        m = build_hardy_model(a1, a2, 5)
        rec = recover_fundamental(m)
        assert op_norm(rec.g1 - a1) <= 1e-12
        assert op_norm(rec.g2 - a2) <= 1e-12
        assert max(rec.stray_1, rec.stray_2) <= 1e-12


def test_recover_fundamental_gates():
    a1, a2 = random_symbol_pair(2, seed=50)
    with pytest.raises(TruncationTooSmallError):
        recover_fundamental(build_hardy_model(a1, a2, 2))
    with pytest.raises(ValueError):
        recover_fundamental(build_circulant_model(a1, a2, 4))
