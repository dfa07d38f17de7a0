"""Polynomial evaluation and minimal-extension search tests."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetrablock import (
    Poly3,
    Triple,
    build_hardy_model,
    build_witness,
    witness_symbol,
    cf_empirical_inf,
    cf_matrix_norm,
    eval_operator,
    eval_scalar_many,
    op_norm,
    poly_from_json,
    poly_to_json,
    random_poly,
    random_symbol_pair,
)
from tetrablock import contractions, poly3
from tetrablock.contractions import _poly_norms, varopoulos_example, varopoulos_polynomial
from tetrablock.counterexample import cf_convergence_study
from tetrablock.geometry import sample_distinguished_boundary
from tetrablock.poly3 import (
    _circle_sup_bound,
    _components,
    _lawson_fits,
    diagonal_blocks,
    distinct_blocks,
)

from conftest import (
    fft_lawson_fits,
    frontier_components,
    horner_eval_scalar,
    lstsq_lawson_fits,
    power_table_eval_operator,
    random_complex,
    single_eval_scalar_many,
)


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
    got = horner_eval_scalar(p, x1, x2, x3)
    want = naive_eval(p, x1, x2, x3)
    scale = 1.0 + abs(want)
    assert abs(got - want) <= 1e-9 * scale


def test_eval_scalar_many_matches_pointwise(rng):
    p = random_poly(4, seed=5)
    x1 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x2 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x3 = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    many = eval_scalar_many(p, x1, x2, x3)
    single = np.array(
        [horner_eval_scalar(p, a, b, c) for a, b, c in zip(x1, x2, x3)]
    )
    assert np.max(np.abs(many - single)) <= 1e-9 * (1.0 + np.abs(single).max())


def test_eval_scalar_many_broadcasts():
    p = Poly3({(1, 0, 0): 1.0, (0, 0, 1): 2.0})
    x1 = np.array([[0.5], [1.0]])
    out = eval_scalar_many(p, x1, 0.0, np.array([1.0, 2.0]))
    assert out.shape == (2, 2)
    assert abs(out[1, 1] - (1.0 + 4.0)) <= 1e-12


def assert_matches_single(p, x1, x2, x3):
    got = eval_scalar_many(p, x1, x2, x3)
    assert np.array_equal(got, single_eval_scalar_many(p, x1, x2, x3))


def test_eval_scalar_many_refine_shape_matches_single():
    # The compass refinement's shape: 5 starts times 6 probes, on 50
    # degree-3 draws.
    x1, x2, x3 = sample_distinguished_boundary(30, seed=1)
    for i in range(50):
        assert_matches_single(random_poly(3, seed=i), x1, x2, x3)


def test_eval_scalar_many_sampling_shape_matches_single():
    # The sampling pass: one polynomial at 4096 points, and at broadcast
    # and 0-d points.
    p = random_poly(3, seed=8)
    x1, x2, x3 = sample_distinguished_boundary(4096, seed=2)
    assert_matches_single(p, x1, x2, x3)
    assert_matches_single(p, x1[:64, None], x2[None, :5], x3[0])
    assert_matches_single(p, x1[0], x2[0], x3[0])


def test_eval_scalar_many_mixed_batch_at_4096_matches_single():
    # Different exponent sets and term counts, an empty polynomial and
    # a constant, each evaluated on its own at 4096 points.
    polys = [
        random_poly(3, seed=3),
        random_poly(2, seed=4),
        varopoulos_polynomial(),
        Poly3({}),
        Poly3({(0, 4, 0): 1.5j, (2, 0, 1): -0.5}),
        random_poly(1, seed=2),
        Poly3({(0, 0, 0): 2.0 - 1.0j}),
    ]
    x1, x2, x3 = sample_distinguished_boundary(4096, seed=3)
    for p in polys:
        assert_matches_single(p, x1, x2, x3)


@pytest.mark.parametrize("n", [1, 2, 3, 30, 409, 410, 1024])
def test_eval_scalar_many_same_bits_at_once_or_term_by_term(monkeypatch, n):
    # Up to _AT_ONCE_ENTRIES terms times points (409 points of a
    # degree-3 polynomial's 20 terms) a 1-d batch of at least two points
    # has every term formed at once; one point and larger batches go
    # term by term.  Either way the values are the term-by-term
    # oracle's, and each point alone gives its bits in the batch.
    p = random_poly(3, seed=n)
    x = sample_distinguished_boundary(n, seed=n)
    calls = []
    loop = poly3._eval_stack
    monkeypatch.setattr(poly3, "_eval_stack", lambda *a: calls.append(1) or loop(*a))
    got = eval_scalar_many(p, *x)
    assert bool(calls) == (n == 1 or 20 * n > poly3._AT_ONCE_ENTRIES)
    assert np.array_equal(got, single_eval_scalar_many(p, *x))
    for j in range(0, n, max(1, n // 7)):
        alone = eval_scalar_many(p, *(c[j : j + 1] for c in x))
        assert alone.tobytes() == got[j : j + 1].tobytes()


def test_eval_operator_diagonal_reduces_to_scalar(rng):
    # On commuting diagonal matrices the operator value is the scalar
    # value at each joint eigenvalue.
    p = random_poly(3, seed=11)
    e1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e3 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t = Triple(np.diag(e1), np.diag(e2), np.diag(e3))
    val = eval_operator(p, t)
    want = np.diag(eval_scalar_many(p, e1, e2, e3))
    assert op_norm(val - want) <= 1e-9 * (1.0 + op_norm(want))


def _dense_triple(rng, n=6, scale=1.0):
    # Scaled so that powers up to degree ~6 stay O(1); nothing is zero.
    mats = (scale * (random_complex(rng, (n, n)) / np.sqrt(4.0 * n)) for _ in range(3))
    return Triple(*mats)


def test_eval_operator_empty_poly_is_zero(rng):
    p = Poly3({})
    z = np.zeros((3, 3))
    assert op_norm(eval_operator(p, Triple(z, z, z))) == 0.0
    # On a dense triple too.
    assert np.array_equal(eval_operator(p, _dense_triple(rng)), np.zeros((6, 6)))


# Polynomials whose degrees differ per variable, up to 7 in one.
MIXED_DEGREES = [
    Poly3({(4, 0, 0): 1.0 - 2.0j, (0, 3, 2): 0.5, (1, 1, 5): -1.5j}),
    Poly3({(6, 1, 0): 2.0, (0, 0, 7): 1.0j}),
]


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_basis_matches_power_tables_on_dense_triple(rng, scale):
    # At the small scale the cubic monomials are ~1e-18 but not zero.
    # The table is built to the largest exponent of any variable, the
    # reference's to each variable's own.
    t = _dense_triple(rng, scale=scale)
    polys = [random_poly(3, seed=k) for k in range(6)] + [random_poly(1, seed=3)]
    for p in polys + MIXED_DEGREES:
        assert np.array_equal(eval_operator(p, t), power_table_eval_operator(p, t))


def test_basis_matches_power_tables_on_witness():
    t = build_witness(8).triple
    for k in range(4):
        p = random_poly(3, seed=k)
        assert np.array_equal(eval_operator(p, t), power_table_eval_operator(p, t))


def test_eval_operator_matches_power_tables_through_zero_products(rng):
    # T1 is nilpotent of order 3 and T1 T2 = 0 while T2, T3 are dense
    # and nonsingular, so zero heads and zero powers both occur.  They
    # are multiplied out and added like any other monomial, and the sum
    # is still the reference's bits.
    n = 4
    t1 = np.zeros((n, n), dtype=np.complex128)
    t1[0, 1] = t1[1, 2] = 0.5
    t2 = np.zeros((n, n), dtype=np.complex128)
    t2[3, :] = random_complex(rng, n)
    t = Triple(t1, t2, random_complex(rng, (n, n)) / 4.0)
    for exp, zero in [((3, 0, 0), True), ((1, 1, 0), True), ((0, 1, 1), False)]:
        want = power_table_eval_operator(Poly3({exp: 1.0}), t)
        assert want.any() != zero
        assert np.array_equal(eval_operator(Poly3({exp: 1.0}), t), want)
    for p in [random_poly(4, seed=9)] + MIXED_DEGREES:
        assert np.array_equal(eval_operator(p, t), power_table_eval_operator(p, t))


def triple_blocks(t):
    # Every block of the triple's partition, from its parts' occurrences.
    return sorted((idx for _, where in t.parts for idx in where), key=lambda b: b[0])


def test_witness_partition_has_blocks_of_at_most_two():
    t = build_witness(8).triple
    blocks = diagonal_blocks((t.t1, t.t2, t.t3))
    assert max(len(b) for b in blocks) <= 2 and len(blocks) > 1
    assert [b.tolist() for b in triple_blocks(t)] == [b.tolist() for b in blocks]
    # The blocks partition the index set, each sorted, ordered by first index.
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(t.dim))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    assert all(np.array_equal(b, np.sort(b)) for b in blocks)


def test_dense_triple_is_one_block_with_unchanged_norm(rng):
    t = _dense_triple(rng)
    [(part, where)] = t.parts
    assert part is t and where.tolist() == [list(range(t.dim))]
    polys = [random_poly(3, seed=k) for k in range(4)]
    norms = _poly_norms(t, polys)
    assert [float(x) for x in norms] == [op_norm(eval_operator(p, t)) for p in polys]


def test_triple_coupled_only_through_t2_is_one_block(rng):
    n = 5
    shift = np.diag(np.full(n - 1, 0.5), k=1)
    t = Triple(np.diag(random_complex(rng, n)), shift, np.diag(random_complex(rng, n)))
    assert len(triple_blocks(t)) == 1
    # Without T2 the same triple falls apart into n singletons.
    t = Triple(t.t1, np.zeros((n, n)), t.t3)
    assert len(triple_blocks(t)) == n


def test_interleaved_blocks_and_off_block_entries(rng):
    # Blocks {0, 2} and {1, 3}; a single one-way entry couples a pair.
    t1 = np.zeros((4, 4), dtype=np.complex128)
    t1[2, 0] = 1.0
    t1[1, 3] = 0.5
    z = np.zeros((4, 4))
    t = Triple(t1, z, z)
    parts = t.parts
    assert [where.tolist() for _, where in parts] == [[[0, 2]], [[1, 3]]]
    assert np.array_equal(parts[0][0].t1, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(parts[1][0].t1, [[0.0, 0.5], [0.0, 0.0]])
    p = Poly3({(0, 0, 0): 3.0, (1, 0, 0): random_complex(rng, ())})
    full = op_norm(eval_operator(p, t))
    assert abs(_poly_norms(t, [p])[0] - full) <= 1e-13 * full
    assert _poly_norms(t, []).shape == (0,)


def partition_cases():
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 40):
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            yield rng.random((n, n)) < density
    path = np.zeros((30, 30), dtype=bool)
    path[np.arange(29), np.arange(1, 30)] = True
    yield path
    # A path through the vertices in scrambled order, plus isolated ones.
    order = rng.permutation(30)
    scrambled = np.zeros((32, 32), dtype=bool)
    scrambled[order[:-1], order[1:]] = True
    yield scrambled
    t = build_witness(8).triple
    yield (t.t1 != 0) | (t.t2 != 0) | (t.t3 != 0)
    # Sparse random graphs on scrambled labels: roots hook over several
    # rounds, and some components are stars and long chains.
    for n, density in ((300, 0.004), (300, 0.008), (500, 0.003)):
        yield rng.random((n, n)) < density


def test_components_match_frontier_oracle():
    for pattern in partition_cases():
        got = _components(pattern.shape[0], *np.nonzero(pattern))
        want = frontier_components(pattern | pattern.T)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_components_of_a_matching_and_of_a_long_chain():
    # Many two-vertex components (the witness's shape) and one component
    # reached only one edge at a time.
    n = 4096
    rows, cols = np.arange(0, n, 2), np.arange(1, n, 2)
    blocks = _components(n, rows, cols)
    assert len(blocks) == n // 2
    assert all(b.tolist() == [2 * k, 2 * k + 1] for k, b in enumerate(blocks))
    chain = _components(n, np.arange(n - 1), np.arange(1, n))
    assert len(chain) == 1 and np.array_equal(chain[0], np.arange(n))


def assert_occurrences_tile(parts, mats):
    # The occurrences tile the index set, and each restricts every
    # matrix to its part.
    where = np.concatenate([w.ravel() for _, w in parts])
    assert np.array_equal(np.sort(where), np.arange(len(mats[0])))
    for sub, occurrences in parts:
        for idx in occurrences:
            ix = np.ix_(idx, idx)
            assert all(np.array_equal(m[ix], x) for m, x in zip(mats, sub))


@pytest.mark.parametrize("depth", [3, 4, 5, 16, 32, 100, 256])
def test_witness_is_a_direct_sum_of_three_distinct_blocks(depth):
    w = build_witness(depth)
    t = w.triple
    jordan = np.array([[0.0, 0.0], [1.0, 0.0]])
    zero2, zero1 = np.zeros((2, 2)), np.zeros((1, 1))
    # The triple's block form: 4 depth - 2 copies of (0, 0, J), two 1x1
    # zero blocks and one (f1, 0, 0).
    parts = t.parts
    assert [len(where) for _, where in parts] == [4 * depth - 2, 2, 1]
    want = [(zero2, zero2, jordan), (zero1,) * 3, (witness_symbol(), zero2, zero2)]
    for (part, _), mats in zip(parts, want):
        got = (part.t1, part.t2, part.t3)
        assert all(np.array_equal(m, x) for m, x in zip(got, mats))
    assert_occurrences_tile(
        [((p.t1, p.t2, p.t3), where) for p, where in parts], (t.t1, t.t2, t.t3)
    )
    # What the hypotheses check sees, the parts' first-half and boundary
    # masks: every shift block has its first coordinate in the first
    # half; the two 1x1 zero blocks are the boundary, in the first half;
    # f1's block lies in the second half, off the boundary.
    masks = [
        np.unique(np.stack([where < w.split, np.isin(where, w.boundary)], 1), axis=0)
        for _, where in parts
    ]
    want = [[[[1, 0], [0, 0]]], [[[1], [1]]], [[[0, 0], [0, 0]]]]
    assert [m.astype(int).tolist() for m in masks] == want
    assert np.array_equal(parts[1][1].ravel(), w.boundary)


def test_parts_key_on_projectors_and_couple_through_them():
    # Two equal diagonal blocks stay distinct when a projector tells them
    # apart, and a projector entry between blocks joins them.
    d = np.diag([0.5, 0.5, 0.25])
    assert [len(w) for _, w in Triple(d, d, d).parts] == [2, 1]
    mats = (d, np.diag([1.0, 0.0, 0.0]))
    blocks = diagonal_blocks(mats)
    assert [b.tolist() for b in blocks] == [[0], [1], [2]]
    assert [len(w) for _, w in distinct_blocks(mats, blocks)] == [1, 1, 1]
    couple = np.zeros((3, 3))
    couple[0, 2] = couple[2, 0] = 0.5
    mats = (d, couple)
    blocks = diagonal_blocks(mats)
    assert [b.tolist() for b in blocks] == [[0, 2], [1]]
    parts = distinct_blocks(mats, blocks)
    assert [w.tolist() for _, w in parts] == [[[0, 2]], [[1]]]
    want = np.stack([np.diag([0.5, 0.25]), [[0.0, 0.5], [0.5, 0.0]]])
    assert np.array_equal(parts[0][0], want)


@pytest.mark.parametrize("depth", [4, 16, 32])
def test_block_norm_matches_full_norm_on_witness(depth):
    t = build_witness(depth).triple
    polys = [random_poly(3, seed=depth + k) for k in range(5)]
    norms = _poly_norms(t, polys)
    for p, got in zip(polys, norms):
        full = op_norm(eval_operator(p, t))
        assert abs(got - full) <= 1e-13 * full


def _multi_block_triple(rng):
    # Two copies of one 2x2 block and a distinct 1x1 block.
    mats = []
    for _ in range(3):
        m = np.zeros((5, 5), dtype=np.complex128)
        m[:2, :2] = m[2:4, 2:4] = random_complex(rng, (2, 2)) / 2.0
        m[4, 4] = random_complex(rng, ()) / 2.0
        mats.append(m)
    return Triple(*mats)


@pytest.mark.parametrize("stack_entries", [None, 8], ids=["one-stack", "chunked"])
@pytest.mark.parametrize(
    "which",
    ["witness", "varopoulos", "multi-block", "interleaved", "interleaved-1x1"],
)
def test_poly_norms_are_the_largest_block_op_norm(monkeypatch, which, stack_entries):
    # Stacked evaluation and SVDs, one or several stacks per layout and
    # block, give op_norm of the reference evaluation bit for bit.  The
    # interleaved input's layouts take turns, so each layout's members
    # are scattered over the list.  A chunked stack holds two matrices of
    # the multi-block triple's 2x2 block, which splits every layout, and
    # on a 1x1 triple the layouts of one polynomial are stacks of one
    # 1x1 matrix, which numpy multiplies by another loop than longer
    # stacks unless both operands have three axes.
    if stack_entries is not None:
        monkeypatch.setattr(contractions, "_STACK_ENTRIES", stack_entries)
    t = {
        "witness": lambda: build_witness(32).triple,
        "varopoulos": lambda: varopoulos_example()[0],
        "multi-block": lambda: _multi_block_triple(np.random.default_rng(6)),
        "interleaved": lambda: _multi_block_triple(np.random.default_rng(7)),
        "interleaved-1x1": lambda: Triple([[0.3 - 0.5j]], [[0.6j]], [[-0.7 + 0.1j]]),
    }[which]()
    if which.startswith("interleaved"):
        polys = [random_poly(d, seed=10 * d + k) for k in range(5) for d in (3, 1, 2)]
        polys[4:4] = [Poly3({}), varopoulos_polynomial(), Poly3({})]
        polys += [random_poly(d, seed=d) for d in (4, 5)] + MIXED_DEGREES
        layouts = poly3._layouts(polys)
        assert [len(m) for _, m, _ in layouts] == [5, 5, 5, 2, 1, 1, 1, 1, 1]
    else:
        polys = [random_poly(d, seed=10 * d + k) for d in range(4) for k in range(5)]
        polys += [Poly3({}), varopoulos_polynomial()]
    want = [
        max(op_norm(power_table_eval_operator(p, part)) for part, _ in t.parts)
        for p in polys
    ]
    assert _poly_norms(t, polys).tolist() == want


def test_poly_norms_reject_non_finite_values():
    t = Triple([[1.0]], [[1.0]], [[1.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        _poly_norms(t, [Poly3({(0, 0, 0): 1e308, (1, 0, 0): 1e308})])


def test_poly_norms_memory_is_one_monomial_stack():
    # A dense 256-dim block: the power table (12 matrices) and the 20
    # monomials, each multiplied out on its own into the stack, stay
    # under 2.5 stacks; forming every term's three factors at once by
    # fancy indexing, a (terms, 3, d, d) array, would not.
    t = build_hardy_model(*random_symbol_pair(8, seed=2), 32).as_triple()
    assert t.dim == 256 and len(t.parts) == 1
    polys = [random_poly(3, seed=k) for k in range(50)]
    terms = len(polys[0].coeffs)
    tracemalloc.start()
    try:
        _poly_norms(t, polys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * terms * t.dim**2 * 16


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


@pytest.mark.parametrize("exp", [(1.5, 0, 0), (1.0, 0, 0), (True, 0, 0), (0, 0, "1")])
def test_non_integer_exponent_rejected(exp):
    # 1.5 used to be truncated to 1, and True read as 1.
    with pytest.raises(ValueError, match=re.escape(f"integers, got {exp}")):
        Poly3({exp: 1.0})


def test_numpy_integer_exponents_accepted():
    p = Poly3({(np.int64(2), np.intp(0), 1): 1.5})
    assert p.coeffs == {(2, 0, 1): 1.5}
    assert all(type(m) is int for m in next(iter(p.coeffs)))


def test_poly_packs_terms_in_coeffs_order():
    p = Poly3({(0, 2, 1): 2.0, (1, 0, 0): 0.0, (3, 0, 0): -1.0j, (0, 0, 0): 0.5})
    assert p.exp_array.dtype == np.intp and p.exp_array.shape == (3, 3)
    assert p.exp_array.tolist() == [list(exp) for exp in p.coeffs]
    assert p.coef_array.tolist() == list(p.coeffs.values())
    assert not p.exp_array.flags.writeable and not p.coef_array.flags.writeable
    empty = Poly3({})
    assert empty.exp_array.shape == (0, 3) and empty.coef_array.shape == (0,)


def test_bad_exponent_arity_rejected():
    with pytest.raises(ValueError):
        poly_from_json([{"exp": [1, 0], "coef": [1.0, 0.0]}])


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"a": 1}, "list of terms"),
        (5, "list of terms"),
        ([[[1, 0, 0], [1, 0]]], "term 0"),
        ([{"exp": [1, 0, 0], "coef": [1.0, 0.0]}, {"exp": [1, 0, 0]}], "term 1"),
        ([{"exp": [1, 0, 0], "coef": 5}], "term 0"),
        ([{"exp": 3, "coef": [1.0, 0.0]}], "term 0"),
        ([{"exp": ["a", 0, 0], "coef": [1.0, 0.0]}], "term 0"),
        ([{"exp": [1, 0, 0], "coef": ["1", 0.0]}], "term 0"),
        ([{"exp": [1.5, 0, 0], "coef": [1.0, 0.0]}], "term 0"),
        ([{"exp": [1.0, 0, 0], "coef": [1.0, 0.0]}], "term 0"),
        ([{"exp": [True, 0, 0], "coef": [1.0, 0.0]}], "term 0"),
        ([{"exp": [1, 0, 0], "coef": [float("nan"), 0.0]}], "term 0"),
        (
            [
                {"exp": [0, 0, 0], "coef": [1.0, 0.0]},
                {"exp": [1, 0, 0], "coef": [0.0, float("inf")]},
            ],
            "term 1",
        ),
    ],
)
def test_malformed_poly_json_rejected(doc, where):
    # Before, most of these escaped as TypeError or KeyError.
    with pytest.raises(ValueError, match=where):
        poly_from_json(doc)


def test_random_poly_deterministic_and_degree_bounded():
    p = random_poly(3, seed=42)
    q = random_poly(3, seed=42)
    assert p == q
    assert max(map(sum, p.coeffs)) <= 3
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
    v, v1 = cf_empirical_inf(0.3, 0.5, [0, 1], grid=512)
    assert v == pytest.approx(0.8, abs=1e-9)
    assert v1 == pytest.approx(0.8, abs=1e-9)
    # The zero pair is its own best extension at every degree.
    assert cf_empirical_inf(0, 0, [4], grid=512) == (0.0,)
    assert cf_empirical_inf(0, 0, (0, 4), grid=512) == (0.0, 0.0)


def test_cf_empirical_floor_and_monotone():
    # A tame pair, a complex pair, one with |b0| close to |b1|, and one
    # with a tiny b1, where the per-degree fits alone are not monotone.
    pairs = [
        (0.45, 0.7),
        (0.3 - 0.2j, 0.5j),
        (0.7, -0.7 + 1e-3j),
        (0.376 - 0.856j, 0.0017 - 0.0021j),
    ]
    for b0, b1 in pairs:
        mu = cf_matrix_norm(b0, b1)
        vals = [cf_empirical_inf(b0, b1, [d], grid=512)[0] for d in range(9)]
        assert vals[0] == pytest.approx(abs(b0) + abs(b1), abs=1e-12)
        for v in vals:
            assert v >= mu - 1e-6
        assert all(vals[d] >= vals[d + 1] for d in range(8))
        # The search is deterministic: a second call repeats the floats.
        assert cf_empirical_inf(b0, b1, [8], grid=512) == (vals[8],)
        # A sequence of degrees, in any order, gives the same floats.
        assert cf_empirical_inf(b0, b1, [8, 0, 3], grid=512) == (
            vals[8],
            vals[0],
            vals[3],
        )
    # Degree 4 already sits close to the infimum for a tame pair.
    mu = cf_matrix_norm(0.45, 0.7)
    assert cf_empirical_inf(0.45, 0.7, [4], grid=512)[0] <= 1.05 * mu


@pytest.mark.filterwarnings("error")
def test_cf_empirical_scales_exactly_with_the_pair():
    # Scaling the pair by 2^k scales every value by 2^k, bit for bit,
    # from near underflow to near overflow, with no warning.
    degrees = (0, 2, 8)
    for b0, b1 in [(0.45, 0.7), (0.3 - 0.2j, 0.5j), (1.0, 1.0j)]:
        unit = cf_empirical_inf(b0, b1, degrees)
        for k in (-1000, -600, 600, 1020):
            s = 2.0**k
            want = tuple(s * v for v in unit)
            assert cf_empirical_inf(s * b0, s * b1, degrees) == want
    # Unscaled, these fits overflow and the value stays |b0| + |b1|.
    value = cf_empirical_inf(8e307, 8e307, [8])[0]
    assert value <= 1.01 * cf_matrix_norm(8e307, 8e307)


def test_circle_sup_matches_dense_grid(rng):
    # Rows of degrees 1..16, each at three scales, against |p| at 10**6
    # equispaced points, which lie within 2e-9 relative of the sup at
    # these degrees: the bound is never below, at most 0.07% above, and
    # unchanged by zero padding.  Its rounding allowance, above 1e-13
    # relative, covers the scaled dense maximum's last-bit error.
    z = np.exp(2j * np.pi * np.arange(10**6) / 10**6)
    for d in range(1, 17):
        unit = random_complex(rng, d + 1)
        unit_dense = np.abs(np.polyval(unit[::-1], z)).max()
        for scale in (1.0, 1e-200, 1e200):
            row = scale * unit
            dense = scale * unit_dense
            bound = _circle_sup_bound(row, d)
            assert dense <= bound <= 1.0007 * dense
            assert _circle_sup_bound(np.concatenate([row, np.zeros(3)]), d) == bound


def _cf_oracle_pairs():
    # Criterion 5's 20 pairs, then edge pairs: a zero, a tiny, a nearly
    # equal or a purely imaginary coefficient, and a dominant b0.
    pairs = []
    for i, child in enumerate(np.random.SeedSequence(1729).spawn(20)):
        rep = cf_convergence_study(seed=child, degrees=(0,))
        pairs.append(pytest.param(rep.b0, rep.b1, id=f"criterion5-{i}"))
    edges = [
        (0.0, 0.8),
        (1e-8, 0.5),
        (0.799, 0.8),
        (0.8, 0.8j),
        (0.9, 0.1),
        (0.5, 0.0),
        (1.0, 1e-9),
    ]
    return pairs + [pytest.param(b0, b1, id=f"edge-{b0}-{b1}") for b0, b1 in edges]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b0, b1", _cf_oracle_pairs())
def test_cf_fits_match_lstsq_oracle(b0, b1):
    # The Toeplitz normal equations, solved for all degrees in lockstep,
    # against one least-squares Lawson loop per degree: every degree's
    # circle sup bound within 1e-13 relative.
    got = _lawson_fits(b0, b1, 8, 512)
    want = lstsq_lawson_fits(b0, b1, 8, grid=512)
    np.testing.assert_allclose(
        [_circle_sup_bound(row, d) for d, row in enumerate(got, start=2)],
        [_circle_sup_bound(row, d) for d, row in enumerate(want, start=2)],
        rtol=1e-13,
        atol=0.0,
    )


def _circle_bounds(fits):
    return [_circle_sup_bound(row, d) for d, row in enumerate(fits, start=2)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b0, b1", _cf_oracle_pairs())
def test_cf_fits_match_the_full_fft_loop(b0, b1):
    # The half-spectrum step (rfft moments, one real product for the
    # residuals, Gauss-Jordan in reused buffers) against the full FFT
    # pair and _gauss_jordan it replaced: every degree's circle sup
    # bound within 1e-13 relative.
    np.testing.assert_allclose(
        _circle_bounds(_lawson_fits(b0, b1, 8, 512)),
        _circle_bounds(fft_lawson_fits(b0, b1, 8, 512)),
        rtol=1e-13,
        atol=0.0,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, top", [(16, 15), (17, 16), (32, 20)])
@pytest.mark.parametrize("b0, b1", [(0.3 - 0.2j, 0.5j), (0.45, 0.7), (0.9, 0.1)])
def test_cf_fits_at_and_above_half_the_grid(grid, top, b0, b1):
    # Degrees from grid / 2 up read moments F[j] with j > grid / 2, which
    # the half spectrum holds only as conj F[grid - j]; an odd grid has
    # no Nyquist moment.  Against one least-squares loop per degree.
    np.testing.assert_allclose(
        _circle_bounds(_lawson_fits(b0, b1, top, grid)),
        _circle_bounds(lstsq_lawson_fits(b0, b1, top, grid=grid)),
        rtol=1e-13,
        atol=0.0,
    )


def test_cf_fits_do_not_depend_on_the_other_degrees():
    # A degree's coefficients are the same bits whether it is fitted up
    # to itself or among higher degrees (identity padding).
    b0, b1 = 0.3 - 0.2j, 0.5j
    full = _lawson_fits(b0, b1, 8, 512)
    for top in range(2, 8):
        alone = _lawson_fits(b0, b1, top, 512)
        assert np.array_equal(alone, full[: top - 1, : top + 1])


def test_cf_fit_buffers_grow_as_the_cube_of_the_degree(monkeypatch):
    # The index, the augmented systems and the one product buffer the
    # pivots share take about 40 bytes per entry of an (n, n, n) array;
    # a product buffer per pivot took about 8 n^4 bytes, 126 MB at top 64.
    # The buffers are made once per call, so two steps show the peak.
    monkeypatch.setattr(poly3, "_LAWSON_STEPS", 2)
    top = 64
    n = top - 1
    tracemalloc.start()
    try:
        _lawson_fits(0.3 - 0.2j, 0.5j, top, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22 + 48 * n**3


def test_cf_empirical_rejects_degrees_at_grid():
    with pytest.raises(ValueError):
        cf_empirical_inf(0.3, 0.5, [16], grid=16)
    with pytest.raises(ValueError):
        cf_empirical_inf(0.3, 0.5, [-1])
