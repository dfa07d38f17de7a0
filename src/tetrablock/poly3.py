"""Polynomials in three commuting variables, plus one-variable
minimal-norm extension utilities.

A polynomial is held sparsely as ``{(m1, m2, m3): coefficient}``.
Scalar evaluation uses cumulative power tables over a batch of
points; operator evaluation substitutes a commuting matrix triple,
ordered as ``T1^m1 T2^m2 T3^m3``, with its monomials formed from one
power table of matrix powers.  Both sum the terms in ``coeffs`` order
for a whole stack of polynomials that share their exponent rows
(:func:`_layouts`) at once.
``diagonal_blocks`` and ``distinct_blocks`` find the block form of
square matrices: their block-diagonal partition and its distinct
blocks with where each occurs.
Operator evaluation does not re-verify commutation: callers that
need the defect should measure it once, not per evaluation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import _power_of_two_below, complex_from_json, complex_to_json, op_norm

__all__ = [
    "Poly3",
    "poly_to_json",
    "poly_from_json",
    "eval_scalar_many",
    "diagonal_blocks",
    "distinct_blocks",
    "eval_operator",
    "random_poly",
    "cf_matrix_norm",
    "cf_empirical_inf",
]


class Poly3:
    """Sparse polynomial in three commuting variables.

    Parameters
    ----------
    coeffs:
        Mapping from exponent triples to complex coefficients.  Zero
        coefficients are dropped; exponents must be nonnegative ints
        (Python or numpy integers, not bools).

    The terms are also packed once, in ``coeffs`` order, as a (t, 3)
    intp array ``exp_array`` and a (t,) complex array ``coef_array``,
    both read-only; scalar evaluation reads these, so ``coeffs`` is
    not to be changed after construction.
    """

    __slots__ = ("coeffs", "exp_array", "coef_array")

    def __init__(self, coeffs: dict):
        clean: dict[tuple[int, int, int], complex] = {}
        for exp, c in coeffs.items():
            exp = _exponent(exp)
            c = complex(c)
            if c != 0:
                clean[exp] = c
        self._pack(clean)

    @classmethod
    def _of_terms(cls, exps, coefs) -> Poly3:
        """The polynomial of distinct exponent triples of Python ints and
        their complex coefficients, taken as given: the exponents are
        not checked again.  Zero coefficients are dropped."""
        p = cls.__new__(cls)
        p._pack({exp: c for exp, c in zip(exps, coefs) if c != 0})
        return p

    def _pack(self, clean: dict) -> None:
        self.coeffs = clean
        self.exp_array = np.array(list(clean), dtype=np.intp).reshape(-1, 3)
        self.coef_array = np.array(list(clean.values()), dtype=np.complex128)
        self.exp_array.flags.writeable = False
        self.coef_array.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{exp}: {c}" for exp, c in sorted(self.coeffs.items())
        )
        return f"Poly3({{{terms}}})"


def _exponent(exp) -> tuple[int, int, int]:
    """``exp`` as three Python ints; ValueError naming it unless it is
    three nonnegative integers (Python or numpy ints, not bools)."""
    if len(exp) != 3:
        raise ValueError(f"exponent must have three entries, got {exp}")
    for m in exp:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"exponents must be integers, got {exp}")
    if min(exp) < 0:
        raise ValueError(f"negative exponent in {exp}")
    return (int(exp[0]), int(exp[1]), int(exp[2]))


def poly_to_json(p: Poly3) -> list:
    """Serialize to the interchange list form, sorted by exponent.

    Each term is ``{"exp": [m1, m2, m3], "coef": [re, im]}``.
    """
    return [
        {"exp": list(exp), "coef": complex_to_json(c)}
        for exp, c in sorted(p.coeffs.items())
    ]


def poly_from_json(obj) -> Poly3:
    """Inverse of :func:`poly_to_json`.

    Input of the wrong shape, a non-integer exponent or a coefficient
    that is not two finite numbers (a bool is not one) raises
    ValueError naming the bad term.
    """
    if not isinstance(obj, list):
        raise ValueError(f"polynomial must be a list of terms, got {obj!r}")
    coeffs: dict[tuple[int, int, int], complex] = {}
    for i, term in enumerate(obj):
        if not isinstance(term, dict):
            raise ValueError(f"term {i} must be an object, got {term!r}")
        try:
            key = _exponent(term["exp"])
            value = complex_from_json(term["coef"], "coefficient")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"term {i}: {exc!r}") from exc
        coeffs[key] = coeffs.get(key, 0.0) + value
    return Poly3(coeffs)


# Most entries (terms times points) of the one array in which
# eval_scalar_many forms every term at once.
_AT_ONCE_ENTRIES = 8192


def eval_scalar_many(p: Poly3, x1, x2, x3) -> np.ndarray:
    """Evaluate at arrays of points (broadcast together).

    The coordinates get one cumulative power table over the points
    (:func:`_power_table`), and the terms are multiplied as
    ((c * x1^m1) * x2^m2) * x3^m3, each factor a view of a table row,
    then summed in ``p.coeffs`` order.  A 1-d array of at least two
    points, with at most ``_AT_ONCE_ENTRIES`` terms times points, has
    every term formed in one (terms, points) array and summed by
    ``np.add.reduce`` over the terms, which adds in order when there is
    more than one point (at one point it would sum pairwise): a dozen
    numpy calls instead of three per term, which is what a search
    evaluating a few dozen points per step spends its time on.  Any
    other input goes term by term (:func:`_eval_stack`).  Both ways give
    every point the same bits, alone or in a longer array.
    """
    points = np.stack(
        np.broadcast_arrays(
            np.asarray(x1, dtype=np.complex128),
            np.asarray(x2, dtype=np.complex128),
            np.asarray(x3, dtype=np.complex128),
        )
    )
    exps = p.exp_array
    size = points.shape[-1] if points.ndim == 2 else 0
    if len(exps) and size >= 2 and len(exps) * size <= _AT_ONCE_ENTRIES:
        factors = _power_table(points, exps.max())[exps, _COORDS]
        terms = p.coef_array[:, None] * factors[:, 0]
        np.multiply(terms, factors[:, 1], out=terms)
        np.multiply(terms, factors[:, 2], out=terms)
        return np.add.reduce(terms, axis=0)
    return _eval_stack(exps, p.coef_array, points)


# Coordinate index of each column of an exponent row.
_COORDS = np.arange(3)


def _eval_stack(exps: np.ndarray, coefs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Polynomials that share the exponent rows ``exps``, term by term.

    ``points`` stacks the three coordinates on its first axis, and
    ``coefs[i]`` is term i's coefficient, a scalar per polynomial that
    broadcasts against the points, for example (t, g, 1) for g
    polynomials each at its own row of (3, g, n) points.  Each product
    is written into the other of two reused buffers: numpy rounds an
    in-place product of one-element arrays differently from its vector
    loop, and out of place a point gets the same bits alone as in a
    longer array, for every polynomial the bits
    :func:`eval_scalar_many` gives it.
    """
    shape = np.broadcast_shapes(points.shape[1:], np.shape(coefs)[1:])
    out = np.zeros(shape, dtype=np.complex128)
    if not len(exps):
        return out
    powers = _power_table(points, exps.max())
    term, head = np.empty_like(out), np.empty_like(out)
    for (m1, m2, m3), c in zip(exps.tolist(), coefs):
        np.multiply(c, powers[m1, 0], out=term)
        np.multiply(term, powers[m2, 1], out=head)
        np.multiply(head, powers[m3, 2], out=term)
        out += term
    return out


def _power_table(base: np.ndarray, degree: int, unit=1.0, times=np.multiply):
    """Cumulative powers base^0..base^degree, one row each.

    Row 0 is ``unit`` and row k is ``times(row k - 1, base)``, the same
    bits for each entry of the stacked ``base`` as for it alone: with
    the defaults, coordinates stacked over points; with the identity
    and ``np.matmul``, square matrices.
    """
    table = np.empty((degree + 1,) + base.shape, dtype=np.complex128)
    table[0] = unit
    for k in range(1, degree + 1):
        times(table[k - 1], base, out=table[k])
    return table


def _layouts(polys) -> list[tuple[np.ndarray, list[int], np.ndarray]]:
    """The polynomials grouped by exponent rows, in order of first occurrence.

    Each group is its ``exp_array``, the indices of its polynomials in
    order, and their coefficients as one (terms, members) array whose
    column j is polynomial ``members[j]``'s ``coef_array``.
    """
    groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for k, p in enumerate(polys):
        groups.setdefault(p.exp_array.tobytes(), (p.exp_array, []))[1].append(k)
    return [
        (exps, members, np.stack([polys[k].coef_array for k in members], axis=1))
        for exps, members in groups.values()
    ]


def diagonal_blocks(mats) -> list[np.ndarray]:
    """Finest common block-diagonal partition of same-size square matrices.

    The blocks are the connected components of the union of the
    matrices' exact nonzero patterns, with no tolerance, as index
    arrays ordered by first index, each sorted.  Every product of the
    matrices is block-diagonal under it.
    """
    pattern = mats[0] != 0
    for m in mats[1:]:
        pattern |= m != 0
    return _components(len(pattern), *np.nonzero(pattern))


def distinct_blocks(mats, blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group ``blocks`` by their restrictions of ``mats``.

    Two blocks are equal when their restrictions of every matrix are
    equal bit for bit.  Each distinct block comes, in order of first
    occurrence, as its stacked restrictions (one per matrix, in the
    order of ``mats``) paired with a (count, size) array whose rows are
    the index arrays of its occurrences.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for idx in blocks:
        by_size.setdefault(len(idx), []).append(idx)
    groups: dict[bytes, tuple[np.ndarray, list]] = {}
    for idxs in by_size.values():
        idx = np.array(idxs)
        rows, cols = idx[:, :, None], idx[:, None, :]
        subs = np.stack([m[rows, cols] for m in mats], axis=1)
        for sub, where in zip(subs, idx):
            groups.setdefault(sub.tobytes(), (sub, []))[1].append(where)
    ordered = sorted(groups.values(), key=lambda g: g[1][0][0])
    return [(sub, np.array(where)) for sub, where in ordered]


def _components(n: int, rows, cols) -> list[np.ndarray]:
    """Connected components of the graph on range(n) with edges rows[k]--cols[k].

    Minimum-label propagation with pointer jumping: every vertex points
    at a smaller or equal vertex, starting from itself; each round hooks
    the larger root of every edge whose ends have different roots onto
    the smaller one, then jumps pointers until each vertex points at
    its root.  A round is a few numpy passes over the edges, and the
    rounds are few, so the work is about linear in the number of
    nonzeros.  A root is the least vertex of its component; components
    are ordered by it, each sorted.
    """
    label = np.arange(n)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    while True:
        lr, lc = label[rows], label[cols]
        split = lr != lc
        if not split.any():
            break
        lr, lc = lr[split], lc[split]
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    return np.split(order, starts[1:])


def _monomials(t, layouts):
    """Each exponent array's monomials (T1^m1 T2^m2) T3^m3 of the triple t.

    One power table of T1, T2, T3 is built to the largest exponent, and
    each array of ``layouts`` gets its monomials formed term by term
    into one (terms, d, d) stack, exact zeros included, yielded in turn.
    """
    degree = max((int(exps.max(initial=0)) for exps in layouts), default=0)
    powers = _power_table(
        np.stack((t.t1, t.t2, t.t3)), degree, np.eye(t.dim), np.matmul
    )
    head = np.empty((t.dim, t.dim), dtype=np.complex128)
    for exps in layouts:
        stack = np.empty((len(exps), t.dim, t.dim), dtype=np.complex128)
        for mono, (m1, m2, m3) in zip(stack, exps.tolist()):
            np.matmul(powers[m1, 0], powers[m2, 1], out=head)
            np.matmul(head, powers[m3, 2], out=mono)
        yield stack


def _eval_operator_stack(monomials: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Polynomials that share the monomial stack, one matrix each.

    ``coefs`` is (terms, g), column j polynomial j's coefficients.  Each
    (g, d, d) value starts from zeros and gets c * monomial added term
    by term in row order, the bits of ``acc += c * mono`` for each
    polynomial alone.  The product takes the coefficients as (g, 1, 1)
    and the monomial as (1, d, d), so numpy multiplies one polynomial in
    the loop it uses for many; a (1, 1, 1) coefficient times a (1, 1)
    monomial takes another loop, which rounds differently.
    """
    out = np.zeros((coefs.shape[1],) + monomials.shape[1:], dtype=np.complex128)
    term = np.empty_like(out)
    for mono, c in zip(monomials, coefs):
        np.multiply(c[:, None, None], mono[None], out=term)
        out += term
    return out


def eval_operator(p: Poly3, t) -> np.ndarray:
    """Substitute the commuting triple ``t`` (a ``Triple``) into ``p``.

    The one-polynomial case of the falsifier's stacked evaluation:
    :func:`_monomials` to ``p``'s degree, then ``acc += c * T^m`` in
    ``p.coeffs`` order.  Commutation is the caller's responsibility
    and is not re-checked here.
    """
    [monomials] = _monomials(t, [p.exp_array])
    return _eval_operator_stack(monomials, p.coef_array[:, None])[0]


def random_poly(degree: int, *, seed=None) -> Poly3:
    """Random polynomial with all monomials of total degree <= degree.

    Coefficients are complex Gaussians with unit standard deviation per
    component, drawn in lexicographic exponent order so a fixed seed
    pins the polynomial exactly.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rng = np.random.default_rng(seed)
    exps = _exponents_up_to(degree)
    coefs = np.empty(len(exps), dtype=np.complex128)
    coefs.real = rng.standard_normal(len(exps))
    coefs.imag = rng.standard_normal(len(exps))
    return Poly3._of_terms(exps, coefs.tolist())


@functools.cache
def _exponents_up_to(degree: int) -> tuple:
    """Every exponent triple of total degree <= degree, in lexicographic order."""
    return tuple(
        (m1, m2, m3)
        for m1 in range(degree + 1)
        for m2 in range(degree + 1 - m1)
        for m3 in range(degree + 1 - m1 - m2)
    )


# ---------------------------------------------------------------------------
# Minimal-norm extension of two prescribed Taylor coefficients.
# ---------------------------------------------------------------------------


# Reweighted least-squares steps per degree in :func:`cf_empirical_inf`.
_LAWSON_STEPS = 300
# Roots of unity per unit of degree at which a fit's circle sup is read.
_SCORE_STEPS = 64
# Largest ratio of a circle sup to its maximum over those roots.
_SCORE_FACTOR = 1.0 / math.sqrt(1.0 - (math.pi / _SCORE_STEPS) ** 2 / 2.0)


def cf_matrix_norm(b0: complex, b1: complex) -> float:
    """Exact infimum of sup-norms over analytic extensions of b0 + b1*z.

    Equals the operator norm of the 2x2 lower-triangular Toeplitz
    matrix built from the two coefficients.
    """
    return op_norm([[b0, 0.0], [b1, b0]])


def _circle_sup_bound(row: np.ndarray, d: int) -> float:
    """Upper bound on sup |p| over the unit circle, for p of degree at
    most d >= 1 with coefficients ``row[: d + 1]``, lowest power first.

    f = |p|^2 is a real trigonometric polynomial of degree d.  At its
    maximiser f' = 0, and Bernstein's inequality applied twice gives
    |f''| <= d^2 ||f||, so the nearest of M = 64 d roots of unity, within
    pi/M, has f >= ||f|| (1 - (d pi/M)^2 / 2) = ||f|| (1 - (pi/64)^2 / 2).
    Hence the largest |p| over them, from one FFT, times _SCORE_FACTOR
    bounds the sup, with one factor for every degree.  The FFT's error,
    added first, is within log2(M) 16 eps sqrt(M) ||c||_1 (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm. 24.2, with
    ||c||_1 for ||c||_2, which over- or underflows at extreme scales).
    """
    m = _SCORE_STEPS * d
    coefs = row[: d + 1]
    peak = float(np.abs(np.fft.fft(coefs, n=m)).max())
    eta = 16.0 * math.ulp(1.0)
    rounding = math.log2(m) * eta * math.sqrt(m) * float(np.abs(coefs).sum())
    return (peak + rounding) * _SCORE_FACTOR


def _normal_equations_index(n: int, rows: int, grid: int, rhs: int) -> np.ndarray:
    """Where each entry of the batched augmented normal equations lives.

    Row r < n of the batch fits the coefficients of z^2..z^(r+2), one
    unknown per index l < n; rows from n on repeat row n - 1.  On the
    grid roots of unity the weighted normal equations are Toeplitz:
    entry (l, k) is the weights' Fourier moment F[l - k], and the
    right-hand side is entry l of -(b0 F[l + 2] + b1 F[l + 1]).  The
    returned (rows, n, n + 1) array indexes the flattened per-step
    table of :func:`_lawson_fits`, one row per fit: moments in the
    columns :func:`_moment_columns` gives, then the right-hand sides
    from column ``rhs``, then a 1 and a 0.  The unknowns a row does not
    use get identity rows and a zero right-hand side.
    """
    row = np.minimum(np.arange(rows), n - 1)[:, None, None]
    l = np.arange(n)[None, :, None]
    k = np.arange(n + 1)[None, None, :]
    entry = np.where(k < n, _moment_columns(l - k, grid), rhs + l)
    pad = np.where(l == k, rhs + n, rhs + n + 1)
    used = (l <= row) & ((k <= row) | (k == n))
    return np.arange(rows)[:, None, None] * (rhs + n + 2) + np.where(used, entry, pad)


def _moment_columns(j, grid: int) -> np.ndarray:
    """Columns of the moments F[j] in the table [R | conj R | ...].

    R = F[0..grid // 2] is the ``rfft`` of real weights, so F[j] is
    R[j mod grid] when that is at most grid // 2, and otherwise the
    conjugate of R[-j mod grid].  For -top < j <= top and a fit of
    degree top, that index is below top, so the table mirrors only
    R[:top].
    """
    m = np.asarray(j) % grid
    half = grid // 2 + 1
    return np.where(m < half, m, half + grid - m)


def _lawson_fits(b0: complex, b1: complex, top: int, grid: int) -> np.ndarray:
    """Lawson fits of degrees 2..top in lockstep; one coefficient row each.

    Row r holds b0, b1 and the fitted coefficients of z^2..z^(r+2),
    zero-padded to length top + 1.  One step:

    - takes every row's weight moments F[0..grid // 2] with one
      ``rfft`` (the weights are real, so F[-j] = conj F[j]) into a table
      that also holds their conjugates and the right-hand sides;
    - gathers the augmented Toeplitz normal equations of all rows from
      it and solves them by Gauss-Jordan elimination without pivoting,
      which the Hermitian positive-definite systems allow, in buffers
      and views made once per call.  It takes only elementwise numpy
      steps, so an identity-padded system gives its leading block's
      solution bit for bit; LAPACK's LU does not;
    - reads the residuals on the grid from one real matrix product of
      the coefficients, (re, im) interleaved, with a cos/sin table, so a
      lower degree's zero coefficients pad the sum at its end, and
      reweights by their magnitudes.

    So a degree's fit is the same bits at any ``top``, provided the
    BLAS ``dgemm`` behind ``matmul`` adds each residual's terms in order
    along the coefficients, as OpenBLAS does here; BLAS does not promise
    an order, and the pinned tests check it only on the machine they run
    on.  At least two rows are solved (a degree-2 call repeats its row),
    which keeps the product a matrix-matrix one.
    """
    n = top - 1
    rows = max(n, 2)
    half = grid // 2 + 1
    # The table: R = F[0..grid // 2], conj R[:top], rhs, 1, 0.
    rhs_at = half + min(top, half)
    index = _normal_equations_index(n, rows, grid, rhs_at)
    table = np.zeros((rows, rhs_at + n + 2), dtype=np.complex128)
    table[:, rhs_at + n] = 1.0
    spectrum, rhs = table[:, :half], table[:, rhs_at : rhs_at + n]
    mirrored, mirror = table[:, : rhs_at - half], table[:, half:rhs_at]
    moment_cols = _moment_columns(np.arange(1, top + 1), grid)
    moments = np.empty((rows, top), dtype=np.complex128)
    term = np.empty_like(rhs)
    aug = np.empty(index.shape, dtype=np.complex128)
    # Per pivot k: row k right of the pivot, the pivot, column k, and the
    # block right of column k.  Column k is not read again, and row k is
    # overwritten by the scaled pivot row, as in full elimination.  Every
    # pivot's scaled row and product are contiguous arrays at the start
    # of one buffer each, so the buffers are O(rows n^2).
    scaled_buffer = np.empty(rows * n, dtype=np.complex128)
    prod_buffer = np.empty(rows * n * n, dtype=np.complex128)
    pivots = []
    for k in range(n):
        scaled = scaled_buffer[: rows * (n - k)].reshape(rows, 1, n - k)
        pivots.append(
            (
                aug[:, k, k + 1 :],
                aug[:, k, k, None],
                scaled[:, 0],
                aug[:, :, k, None],
                scaled,
                prod_buffer[: rows * n * (n - k)].reshape(rows, n, n - k),
                aug[:, :, k + 1 :],
            )
        )
    coefs = np.zeros((rows, top + 1), dtype=np.complex128)
    coefs[:, 0] = b0
    coefs[:, 1] = b1
    # z^k at the grid points as a real map from (re, im) coefficient
    # pairs to (re, im) residual pairs.
    phase = 2.0 * np.pi * (np.outer(np.arange(top + 1), np.arange(grid)) % grid) / grid
    basis = np.empty((top + 1, 2, grid, 2))
    basis[:, 0, :, 0] = basis[:, 1, :, 1] = np.cos(phase)
    basis[:, 0, :, 1] = np.sin(phase)
    basis[:, 1, :, 0] = -basis[:, 0, :, 1]
    basis = basis.reshape(2 * (top + 1), 2 * grid)
    residual = np.empty((rows, grid), dtype=np.complex128)
    magnitude = np.empty((rows, grid))
    flat_coefs, flat_residual = coefs.view(np.float64), residual.view(np.float64)
    nb0, nb1 = -b0, -b1
    w = np.full((rows, grid), 1.0 / grid)
    # Every index is in range; mode="clip" lets take write into its out
    # array, where the default mode fills a temporary and copies it.
    for _ in range(_LAWSON_STEPS):
        np.fft.rfft(w, out=spectrum)
        np.conjugate(mirrored, out=mirror)
        table.take(moment_cols, axis=1, out=moments, mode="clip")
        np.multiply(nb0, moments[:, 1:], out=rhs)
        np.multiply(nb1, moments[:, :-1], out=term)
        rhs += term
        table.take(index, out=aug, mode="clip")
        for right, head, pivot, col, pivot_row, prod, block in pivots:
            np.divide(right, head, out=pivot)
            np.multiply(col, pivot_row, out=prod)
            np.subtract(block, prod, out=block)
            right[...] = pivot
        coefs[:, 2:] = aug[:, :, n]
        np.matmul(flat_coefs, basis, out=flat_residual)
        np.abs(residual, out=magnitude)
        w *= magnitude
        w /= w.sum(axis=1, keepdims=True)
    return coefs[:n]


def cf_empirical_inf(b0: complex, b1: complex, degrees, *, grid: int = 512) -> tuple:
    """Smallest circle sup found for a polynomial starting b0 + b1*z + ...

    For each degree d = 2..max(degrees), Lawson's iteration (Lawson
    1961) fits the free coefficients of degrees 2..d on the ``grid``
    roots of unity: weighted least squares from uniform weights, after
    each fit multiplying every weight by its residual magnitude and
    renormalising.  The problem is convex, and the reweighted fits
    approach its minimax solution.  Each least-squares fit solves the
    Toeplitz normal equations built from the weights' Fourier moments,
    and all degrees run their fixed 300 steps in lockstep, one batched
    solve per step.  Each fit is scored by :func:`_circle_sup_bound`,
    and the tuple of running minima over degrees, starting from
    |b0| + |b1|, at the requested degrees is returned.  A degree's fit
    and score depend only on b0, b1, the degree and ``grid``, so each
    value equals a separate call's with its degree alone, bit for bit
    (given a BLAS that sums in order, see :func:`_lawson_fits`), and is
    nonincreasing in the degree.  Each is an upper bound on the
    sup of an actual polynomial, hence at or above
    :func:`cf_matrix_norm` up to rounding.  Degrees must be below ``grid``.

    The fits run on the pair divided by the power of two at or below
    its larger modulus, and the values are multiplied back: both steps
    are exact and every fit and score is homogeneous, so 2^k times the
    pair gives 2^k times the values, bit for bit, and nothing overflows.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if max(degrees, default=0) >= grid:
        raise ValueError(f"degrees must be below grid ({grid})")
    big = max(abs(b0), abs(b1))
    scale = _power_of_two_below(big) if big else 1.0
    b0, b1 = b0 / scale, b1 / scale
    best = float(abs(b0) + abs(b1))
    # running[d] is the running minimum after fitting degrees 2..d.
    running = [best, best]
    # Zero is its own best extension, and zero residuals leave Lawson's
    # weights undefined, so the zero pair fits nothing.
    top = max(degrees, default=0) if best else 1
    if top >= 2:
        for r, row in enumerate(_lawson_fits(b0, b1, top, grid)):
            best = min(best, _circle_sup_bound(row, r + 2))
            running.append(best)
    return tuple(scale * running[min(d, top)] for d in degrees)
