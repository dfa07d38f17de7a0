"""Polynomial evaluation and minimal-extension search tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetrablock import (
    MonomialBasis,
    Poly3,
    build_witness,
    cf_empirical_inf,
    cf_matrix_norm,
    eval_operator,
    eval_scalar,
    eval_scalar_many,
    op_norm,
    poly_from_json,
    poly_to_json,
    random_poly,
)
from tetrablock.poly3 import _circle_sup

from conftest import power_table_eval_operator, random_complex


def naive_eval(p, x1, x2, x3):
    # Term-by-term reference, no Horner, no power tables.
    return sum(c * x1**m1 * x2**m2 * x3**m3 for (m1, m2, m3), c in p.coeffs.items())


coef = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
exponent = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
point = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(exponent, coef, max_size=8), point, point, point)
def test_eval_scalar_matches_naive_sum(coeffs, x1, x2, x3):
    p = Poly3(coeffs)
    got = eval_scalar(p, x1, x2, x3)
    want = naive_eval(p, x1, x2, x3)
    scale = 1.0 + abs(want)
    assert abs(got - want) <= 1e-9 * scale


def test_eval_scalar_many_matches_pointwise(rng):
    p = random_poly(4, seed=5)
    x1 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x2 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x3 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    many = eval_scalar_many(p, x1, x2, x3)
    single = np.array([eval_scalar(p, a, b, c) for a, b, c in zip(x1, x2, x3)])
    assert np.max(np.abs(many - single)) <= 1e-9 * (1.0 + np.abs(single).max())


def test_eval_scalar_many_broadcasts():
    p = Poly3({(1, 0, 0): 1.0, (0, 0, 1): 2.0})
    x1 = np.array([[0.5], [1.0]])
    out = eval_scalar_many(p, x1, 0.0, np.array([1.0, 2.0]))
    assert out.shape == (2, 2)
    assert abs(out[1, 1] - (1.0 + 4.0)) <= 1e-12


def test_eval_operator_diagonal_reduces_to_scalar(rng):
    # On commuting diagonal matrices the operator value is the scalar
    # value at each joint eigenvalue.
    p = random_poly(3, seed=11)
    e1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e3 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t = (np.diag(e1), np.diag(e2), np.diag(e3))
    val = eval_operator(p, t)
    want = np.diag(eval_scalar_many(p, e1, e2, e3))
    assert op_norm(val - want) <= 1e-9 * (1.0 + op_norm(want))


def test_eval_operator_empty_poly_is_zero():
    p = Poly3({})
    z = np.zeros((3, 3))
    assert op_norm(eval_operator(p, (z, z, z))) == 0.0


def _dense_triple(rng, n=6):
    # Scaled so that powers up to degree ~6 stay O(1); nothing is zero.
    return tuple(random_complex(rng, (n, n)) / np.sqrt(4.0 * n) for _ in range(3))


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_basis_matches_power_tables_on_dense_triple(rng, scale):
    # At the small scale the cubic monomials are ~1e-18 but not zero,
    # so they must still be kept.
    t = tuple(scale * m for m in _dense_triple(rng))
    basis = MonomialBasis(t)
    for k in range(6):
        p = random_poly(3, seed=k)
        assert np.array_equal(eval_operator(p, basis), power_table_eval_operator(p, t))
    assert len(basis.monomials) == 20
    assert all(m is not None for m in basis.monomials.values())


def test_basis_matches_power_tables_on_witness():
    t = build_witness(8).triple
    basis = MonomialBasis(t)
    for k in range(4):
        p = random_poly(3, seed=k)
        assert np.array_equal(eval_operator(p, basis), power_table_eval_operator(p, t))


def test_basis_keeps_only_nonzero_witness_monomials():
    # Every pairwise product of the witness operators is exactly zero and
    # T2 itself is zero, so of the 20 degree-3 monomials only I, T1 and
    # T3 survive.
    t = build_witness(8).triple
    basis = MonomialBasis(t)
    p = random_poly(3, seed=1)
    eval_operator(p, basis)
    assert set(basis.monomials) == set(p.coeffs)
    kept = {exp for exp, m in basis.monomials.items() if m is not None}
    assert kept == {(0, 0, 0), (1, 0, 0), (0, 0, 1)}
    for exp, m in basis.monomials.items():
        dense = power_table_eval_operator(Poly3({exp: 1.0}), t)
        if m is None:
            assert not dense.any()
        else:
            assert dense.any() and np.array_equal(m, dense)


def test_basis_grows_power_tables_after_first_use(rng):
    t = _dense_triple(rng)
    basis = MonomialBasis(t)
    polys = [
        random_poly(1, seed=3),
        Poly3({(4, 0, 0): 1.0 - 2.0j, (0, 3, 2): 0.5, (1, 1, 5): -1.5j}),
        random_poly(3, seed=4),
        Poly3({(6, 1, 0): 2.0, (0, 0, 7): 1.0j}),
    ]
    for p in polys:
        assert np.array_equal(eval_operator(p, basis), power_table_eval_operator(p, t))


def test_basis_skips_partially_nilpotent_products(rng):
    # T1 is nilpotent of order 3 and T1 T2 = 0 while T2, T3 are dense
    # and nonsingular, so zero heads and zero powers both occur.
    n = 4
    t1 = np.zeros((n, n), dtype=np.complex128)
    t1[0, 1] = t1[1, 2] = 0.5
    t2 = np.zeros((n, n), dtype=np.complex128)
    t2[3, :] = random_complex(rng, n)
    t3 = random_complex(rng, (n, n)) / 4.0
    t = (t1, t2, t3)
    basis = MonomialBasis(t)
    p = random_poly(4, seed=9)
    assert np.array_equal(eval_operator(p, basis), power_table_eval_operator(p, t))
    assert basis.monomials[(3, 0, 0)] is None
    assert basis.monomials[(1, 1, 0)] is None
    assert basis.monomials[(0, 1, 1)] is not None


def test_basis_empty_poly_and_tuple_input(rng):
    t = _dense_triple(rng)
    empty = Poly3({})
    assert np.array_equal(eval_operator(empty, MonomialBasis(t)), np.zeros((6, 6)))
    assert np.array_equal(eval_operator(empty, t), power_table_eval_operator(empty, t))
    p = random_poly(3, seed=2)
    want = power_table_eval_operator(p, t)
    assert np.array_equal(eval_operator(p, t), want)
    assert np.array_equal(eval_operator(p, list(t)), want)


def test_poly_json_round_trip():
    p = random_poly(4, seed=3)
    q = poly_from_json(poly_to_json(p))
    assert q == p


def test_poly_json_accumulates_duplicate_exponents():
    doc = [
        {"exp": [1, 0, 0], "coef": [1.0, 0.0]},
        {"exp": [1, 0, 0], "coef": [2.0, -1.0]},
    ]
    p = poly_from_json(doc)
    assert p.coeffs == {(1, 0, 0): complex(3.0, -1.0)}


def test_poly_json_cancellation_drops_term():
    doc = [
        {"exp": [0, 2, 0], "coef": [1.0, 0.5]},
        {"exp": [0, 2, 0], "coef": [-1.0, -0.5]},
    ]
    assert poly_from_json(doc).coeffs == {}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly3({(0, -1, 0): 1.0})


def test_bad_exponent_arity_rejected():
    with pytest.raises(ValueError):
        poly_from_json([{"exp": [1, 0], "coef": [1.0, 0.0]}])


def test_total_degree():
    assert Poly3({}).total_degree == -1
    assert Poly3({(0, 0, 0): 2.0}).total_degree == 0
    assert Poly3({(1, 2, 3): 1.0, (0, 0, 1): 1.0}).total_degree == 6


def test_random_poly_deterministic_and_degree_bounded():
    p = random_poly(3, seed=42)
    q = random_poly(3, seed=42)
    assert p == q
    assert p.total_degree <= 3
    assert p.coeffs  # a Gaussian draw of this size never lands at zero
    r = random_poly(3, seed=43)
    assert r != p


def test_random_poly_rejects_negative_degree():
    with pytest.raises(ValueError):
        random_poly(-1)


# ---------------------------------------------------------------------------
# Two-coefficient minimal extension.
# ---------------------------------------------------------------------------


def test_cf_matrix_norm_frozen_value():
    # Oracle frozen from the 2x2 singular value computed by hand:
    # [[0.6, 0], [0.8, 0.6]] has squared norm (1 + sqrt(1 + 4*0.36^2/0.64^2))
    # scaled form; the number below was verified against a direct SVD.
    assert cf_matrix_norm(0.6, 0.8) == pytest.approx(1.1211102550927978, abs=1e-12)


def test_cf_matrix_norm_is_toeplitz_norm(rng):
    for _ in range(20):
        b0, b1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = op_norm([[b0, 0.0], [b1, b0]])
        assert cf_matrix_norm(b0, b1) == pytest.approx(direct, abs=1e-12)


def test_cf_matrix_norm_bounds(rng):
    for _ in range(20):
        b0, b1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mu = cf_matrix_norm(b0, b1)
        assert mu >= max(abs(b0), abs(b1)) - 1e-12
        assert mu <= abs(b0) + abs(b1) + 1e-12


def test_cf_empirical_degree_one_is_coefficient_sum():
    # With no free coefficients the sup on the circle is exactly
    # |b0| + |b1| (attained where the two terms align).
    v = cf_empirical_inf(0.3, 0.5, 0, grid=512)
    assert v == pytest.approx(0.8, abs=1e-9)
    v1 = cf_empirical_inf(0.3, 0.5, 1, grid=512)
    assert v1 == pytest.approx(0.8, abs=1e-9)


def test_cf_empirical_floor_and_monotone():
    b0, b1 = 0.45, 0.7
    mu = cf_matrix_norm(b0, b1)
    vals = [cf_empirical_inf(b0, b1, d, grid=512, seed=9) for d in (0, 2, 4)]
    for v in vals:
        assert v >= mu - 1e-6
    assert vals[0] >= vals[1] >= vals[2]
    # Degree 4 already sits close to the infimum for a tame pair.
    assert vals[2] <= 1.05 * mu


def test_circle_sup_matches_dense_grid(rng):
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        coefs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        got = _circle_sup(coefs, 256)
        z = np.exp(2j * np.pi * np.arange(200_001) / 200_001)
        dense = np.abs(np.polyval(coefs[::-1], z)).max()
        assert got >= dense - 1e-7
        assert got <= dense + 1e-6
