"""Eigensolver, norms, and numerical radius against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock import (
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
    as_matrix,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    numerical_radius,
    op_norm,
    random_symbol_pair,
    sqrt_psd,
)

from tetrablock.linalg import (
    _SCAN_STRIDE,
    _jacobi_eigh,
    _round_robin,
    complex_from_json,
)

from tetrablock.selftest import _model_pairs, witness_symbol

from conftest import (
    bracket_numerical_radius,
    cyclic_jacobi_eigh,
    full_scan_numerical_radius,
    random_complex,
    random_hermitian,
)


def test_as_matrix_rejects_rectangular_when_square_required(rng):
    with pytest.raises(NonSquareError):
        as_matrix(rng.standard_normal((3, 4)), square=True, name="t")


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]], name="t")


@pytest.mark.parametrize(
    "pair",
    [[True, 0.0], [0.0, False], ["1", 0.0], [None, 0.0], [1.0], 1.0,
     [float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0]],
)
def test_complex_from_json_rejects_and_names(pair):
    with pytest.raises(ValueError, match="entry 7"):
        complex_from_json(pair, "entry 7")


def test_complex_from_json_reads_numbers():
    assert complex_from_json([1, -2.5], "z") == complex(1.0, -2.5)
    assert complex_from_json((0.25, 0), "z") == 0.25


def test_matrix_json_round_trip(rng):
    for shape in [(1, 1), (3, 3), (2, 5), (0, 0)]:
        m = random_complex(rng, shape) if shape[0] * shape[1] else np.zeros(shape)
        back = matrix_from_json(matrix_to_json(m))
        assert back.shape == shape
        assert np.array_equal(back, m.astype(np.complex128))


@pytest.mark.parametrize("backend", ["lapack", "jacobi"])
@pytest.mark.parametrize("n", [2, 3, 6, 12, 33, 64])
def test_herm_eig_reconstructs(rng, backend, n):
    h = random_hermitian(rng, n)
    eig = herm_eig(h, backend=backend)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert op_norm(recon - h) <= 1e-10
    assert op_norm(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_backends_agree(rng):
    h = random_hermitian(rng, 17)
    a = herm_eig(h, backend="lapack")
    b = herm_eig(h, backend="jacobi")
    scale = max(1.0, float(np.abs(a.values).max()))
    assert np.abs(a.values - b.values).max() <= 1e-12 * scale


def test_herm_eig_rejects_asymmetric(rng):
    g = random_complex(rng, (4, 4))
    with pytest.raises(NotHermitianError):
        herm_eig(g)


def test_herm_eig_unknown_backend(rng):
    with pytest.raises(ValueError):
        herm_eig(random_hermitian(rng, 3), backend="magic")


def test_sqrt_psd_squares_back(rng):
    g = random_complex(rng, (6, 6))
    m = g @ g.conj().T
    root = sqrt_psd(m)
    assert op_norm(root @ root - m) <= 1e-10 * max(1.0, op_norm(m))
    assert op_norm(root - root.conj().T) <= 1e-12 * max(1.0, op_norm(root))


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSDError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_numerical_radius_nilpotent_cell():
    f1 = np.array([[0.0, 0.25], [0.0, 0.0]])
    omega, theta = numerical_radius(f1)
    assert abs(omega - 0.125) <= 1e-6
    assert 0.0 <= theta < 2.0 * np.pi


def test_numerical_radius_hermitian_is_spectral(rng):
    h = random_hermitian(rng, 5)
    omega, _ = numerical_radius(h)
    spectral = float(np.abs(np.linalg.eigvalsh(h)).max())
    assert abs(omega - spectral) <= 1e-8


def test_numerical_radius_normal_equals_norm(rng):
    d = np.diag(random_complex(rng, 6))
    omega, _ = numerical_radius(d)
    assert abs(omega - op_norm(d)) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rayleigh_below_radius(seed):
    rng = np.random.default_rng(seed)
    g = random_complex(rng, (5, 5))
    omega, _ = numerical_radius(g)
    x = random_complex(rng, 5)
    x = x / np.linalg.norm(x)
    assert abs(np.vdot(x, g @ x)) <= omega + 1e-8


def test_op_norm_matches_gram_eigenvalue(rng):
    g = random_complex(rng, (7, 7))
    top = float(np.sqrt(np.linalg.eigvalsh(g.conj().T @ g)[-1]))
    assert abs(op_norm(g) - top) <= 1e-10 * max(1.0, top)


def test_op_norm_zero_matrix_skips_svd(rng, monkeypatch):
    g = random_complex(rng, (7, 7))
    assert op_norm(g) == float(np.linalg.norm(g, 2))

    def no_svd(*args, **kwargs):
        raise AssertionError("op_norm ran an SVD on a zero matrix")

    monkeypatch.setattr(np.linalg, "norm", no_svd)
    value = op_norm(np.zeros((9, 9), dtype=np.complex128))
    assert value == 0.0 and type(value) is float


def test_spectral_radius_below_norm(rng):
    # The spectral radius as criterion 9 takes it, from np.linalg.eigvals.
    g = random_complex(rng, (6, 6))
    assert np.abs(np.linalg.eigvals(g)).max() <= op_norm(g) + 1e-8


def test_jacobi_convergence_error_surfaces(monkeypatch):
    import tetrablock.linalg as la

    monkeypatch.setattr(la, "JACOBI_MAX_SWEEPS", 0)
    h = random_hermitian(np.random.default_rng(0), 8)
    with pytest.raises(NoConvergenceError):
        la.herm_eig(h, backend="jacobi")


def radius_corpus():
    """(matrix, grid, refine) triples: pencils as in criterion 7, dense,
    Hermitian, equal-modulus diagonal, the nilpotent cell, zero."""
    rng = np.random.default_rng(31)
    zs = [0.0] + [np.exp(2j * np.pi * k / 35) for k in range(35)]
    for i, child in enumerate(np.random.SeedSequence(606).spawn(4)):
        a1, a2 = random_symbol_pair(8, seed=child, diagonal=(i % 2 == 0))
        for z in zs:
            yield a1 + z * a2, 360, 30
    for n in range(2, 17):
        yield random_complex(rng, (n, n)), 720, 40
        yield random_hermitian(rng, n), 720, 40
        phases = np.exp(2j * np.pi * rng.random(n))
        yield np.diag(rng.random() * phases), 720, 40
    yield np.array([[0.0, 0.25], [0.0, 0.0]]), 720, 40
    yield np.zeros((3, 3)), 720, 40


def top_eigenvalue_at(t, theta):
    h = 0.5 * (np.exp(1j * theta) * t + np.exp(-1j * theta) * t.conj().T)
    return float(np.linalg.eigvalsh(h)[-1])


def test_numerical_radius_matches_bracket_oracle():
    for t, grid, refine in radius_corpus():
        value, theta = numerical_radius(t, grid=grid, refine=refine)
        want, _ = bracket_numerical_radius(t, grid=grid, refine=refine)
        assert abs(value - want) <= 1e-12 * abs(want)
        assert value >= numerical_radius(t, grid=grid, refine=0)[0]
        assert 0.0 <= theta < 2.0 * np.pi
        scale = max(1.0, op_norm(t))
        assert abs(top_eigenvalue_at(t, theta) - value) <= 1e-14 * scale


def test_numerical_radius_newton_converges_in_few_steps(rng):
    # From the best of 360 angles, six Newton steps reach the value the
    # oracle gets from 30 rounds of bracket shrinking.
    for n in (3, 5, 8, 12):
        for _ in range(3):
            t = random_complex(rng, (n, n))
            want, _ = bracket_numerical_radius(t, grid=360, refine=30)
            value, _ = numerical_radius(t, grid=360, refine=6)
            assert abs(value - want) <= 1e-12 * want


def test_numerical_radius_leaves_a_valley_between_two_peaks():
    # Two branches with peaks 2e-3 apart cross in an avoided crossing,
    # rotated so that the valley between the peaks is the best scan
    # angle.  There lambda'' > 0, so a Newton step would settle on the
    # valley; the bisection fallback reaches a peak.
    eps = 2e-3
    t = np.exp(-0.5j * eps) * np.array([[1.0, 1e-8], [0.0, np.exp(1j * eps)]])
    scan, theta = numerical_radius(t, grid=720, refine=0)
    assert theta == 0.0
    value, _ = numerical_radius(t, grid=720, refine=40)
    want, _ = bracket_numerical_radius(t, grid=720, refine=40)
    assert value - scan > 1e-7
    assert abs(value - want) <= 1e-12 * want


def test_numerical_radius_leaves_a_valley_where_the_slope_is_exactly_zero():
    # A real rotation by 1e-3 split by 1e-8: the same picture, but at the
    # valley lambda' is exactly zero, so only lambda'' > 0 tells it from
    # a flat top eigenvalue, where refinement stops.
    c, s = np.cos(1e-3), np.sin(1e-3)
    t = np.array([[c + 1e-8, -s], [s, c - 1e-8]])
    scan, theta = numerical_radius(t, grid=720, refine=0)
    assert theta == 0.0
    value, _ = numerical_radius(t, grid=720, refine=40)
    assert value - scan > 1e-7
    assert abs(value - bracket_numerical_radius(t, grid=720, refine=40)[0]) <= 1e-12


def test_numerical_radius_stops_where_the_top_eigenvalue_is_flat(monkeypatch):
    # lambda is constant on the nilpotent cell and the zero matrix, and
    # the top eigenvalue of eye(3) is triple: refinement cannot gain, so
    # it stops at once instead of bisecting its bracket to 1e-13.
    calls = []
    eigh = np.linalg.eigh

    def counting(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cases = [
        (np.array([[0.0, 0.25], [0.0, 0.0]]), 0.125),
        (np.zeros((3, 3)), 0.0),
        (np.eye(3), 1.0),
    ]
    for t, want in cases:
        calls.clear()
        value, theta = numerical_radius(t)
        assert len(calls) <= 2
        assert abs(value - want) <= 1e-15 and 0.0 <= theta < 2.0 * np.pi


def criterion_7_pencils():
    zs = [0.0 + 0.0j] + [complex(np.exp(2j * np.pi * k / 35)) for k in range(35)]
    pairs = list(_model_pairs(8))
    pairs.append((witness_symbol(), np.zeros((2, 2), dtype=np.complex128)))
    for a1, a2 in pairs:
        for z in zs:
            yield a1 + z * a2


def tied_matrices(grid):
    """Matrices whose scan has exact or near ties: flat and round
    ranges, and points and squares turned so that the maximum falls
    midway between a skipped angle and the coarse angle after it."""
    square = np.diag([1.0, 1.0j, -1.0, -1.0j])
    yield np.diag(np.ones(5), 1)
    yield np.eye(3)
    yield np.zeros((3, 3))
    yield square
    for j in range(1, 15):
        turn = np.exp(-2j * np.pi * (_SCAN_STRIDE * j - 0.5) / grid)
        yield turn * square
        yield turn * np.eye(1)
        yield turn * np.diag([1.0, 0.5])


def pruning_corpus():
    """(matrix, grid, refine) triples for the full-scan oracle."""
    for t in criterion_7_pencils():
        yield t, 360, 30
    rng = np.random.default_rng(1515)
    for grid in (4, 6, 360, 720):
        for n in range(1, 13):
            for _ in range(3):
                yield random_complex(rng, (n, n)), grid, 40
        for t in tied_matrices(grid):
            yield t, grid, 40


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_pruned_scan_matches_full_scan_bit_for_bit(scale):
    # The support-line bound only skips angles that cannot win, so the
    # value and the angle are the full scan's, bits and ties included.
    with np.errstate(over="ignore"):
        for t, grid, refine in pruning_corpus():
            got = numerical_radius(scale * t, grid=grid, refine=refine)
            want = full_scan_numerical_radius(scale * t, grid=grid, refine=refine)
            assert got == want, (t.shape, grid, got, want)


def test_pruned_scan_solves_few_angles(monkeypatch):
    # On criterion 7's model pencils the coarse pass and the angles near
    # the peaks are a small part of the 180 half-circle angles; a scan
    # that falls back to solving all of them fails here.  The last 36
    # pencils are the witness cell, whose numerical range is a disc:
    # every angle ties, so none is skipped.
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(h):
        solved[-1] += h.shape[0] if h.ndim == 3 else 1
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for t in criterion_7_pencils():
        solved.append(0)
        numerical_radius(t, grid=360, refine=30)
    assert solved[-36:] == [180] * 36
    assert 0 < max(solved[:-36]) < 60


@pytest.mark.parametrize("grid", [3, 5, 361])
def test_numerical_radius_rejects_odd_grid(grid):
    with pytest.raises(ValueError, match="even"):
        numerical_radius(np.eye(2), grid=grid)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.floats(0.0, 2.0 * np.pi),
)
def test_numerical_radius_bounds_and_rotation_invariance(seed, n, phi):
    # r(T) <= w(T) <= |T| <= 2 w(T), and w(e^{i phi} T) = w(T).
    t = random_complex(np.random.default_rng(seed), (n, n))
    w, _ = numerical_radius(t)
    r = float(np.abs(np.linalg.eigvals(t)).max())
    norm = op_norm(t)
    tol = 1e-12 * norm
    assert r <= w + tol
    assert w <= norm + tol
    assert norm <= 2.0 * w + tol
    w_rot, _ = numerical_radius(np.exp(1j * phi) * t)
    assert abs(w_rot - w) <= 1e-12 * w


def _jacobi_checks(h, w, v, scale):
    n = h.shape[0]
    recon = v @ np.diag(w) @ v.conj().T
    assert op_norm(recon - h) <= 1e-10 * scale
    assert op_norm(v.conj().T @ v - np.eye(n)) <= 1e-10
    assert np.all(np.diff(w) >= 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_round_robin_visits_each_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for p, q in rounds:
        assert p.size == n // 2 and np.all(p < q)
        assert len(set(p) | set(q)) == 2 * p.size
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33, 64])
def test_jacobi_matches_cyclic_oracle(rng, n):
    h = random_hermitian(rng, n)
    scale = max(1.0, op_norm(h))
    w, v = _jacobi_eigh(h)
    w_cyclic, _ = cyclic_jacobi_eigh(h)
    assert np.abs(w - w_cyclic).max() <= 1e-12 * scale
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    _jacobi_checks(h, w, v, scale)


def _degenerate_inputs(rng):
    u = np.linalg.qr(random_complex(rng, (6, 6)))[0]
    x = random_complex(rng, 7)
    yield "identity", np.eye(5, dtype=np.complex128)
    yield "repeated", (u * [1.0, 1.0, 1.0, 2.0, 2.0, -3.0]) @ u.conj().T
    yield "rank one", np.outer(x, x.conj())
    yield "zero", np.zeros((4, 4), dtype=np.complex128)
    yield "tiny", 1e-200 * random_hermitian(rng, 9)
    yield "huge", 1e200 * random_hermitian(rng, 9)


def test_jacobi_degenerate_inputs(rng):
    for name, h in _degenerate_inputs(rng):
        h = 0.5 * (h + h.conj().T)
        norm = op_norm(h)
        w, v = _jacobi_eigh(h)
        assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12 * norm, name
        _jacobi_checks(h, w, v, norm)


def test_jacobi_diagonal_input_needs_no_rotation():
    d = np.array([3.0, -1.0, 2.0, 0.5, -1.0, 7.25])
    w, v = _jacobi_eigh(np.diag(d).astype(np.complex128))
    order = np.argsort(d, kind="stable")
    assert np.array_equal(w, d[order])
    assert np.array_equal(v, np.eye(d.size)[:, order])


def test_jacobi_calls_no_lapack(rng, monkeypatch):
    h = random_hermitian(rng, 12)

    def no_lapack(*args, **kwargs):
        raise AssertionError("the Jacobi solver called LAPACK")

    with monkeypatch.context() as m:
        for name in ("eigh", "eigvalsh", "eig", "svd"):
            m.setattr(np.linalg, name, no_lapack)
        w, v = _jacobi_eigh(h)
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12 * op_norm(h)
    _jacobi_checks(h, w, v, op_norm(h))
