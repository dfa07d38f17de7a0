"""Polynomials in three commuting variables, plus one-variable
minimal-norm extension utilities.

A polynomial is held sparsely as ``{(m1, m2, m3): coefficient}``.
Scalar evaluation uses cumulative power tables over a batch of
points; operator evaluation substitutes a commuting matrix triple,
ordered as ``T1^m1 T2^m2 T3^m3``.  The triple's monomials come from
a ``MonomialBasis``, which builds each power and monomial once and
keeps exactly zero ones as absent, so callers evaluating many
polynomials on one triple share its basis.
``diagonal_blocks`` and ``distinct_blocks`` find the block form of
square matrices: their block-diagonal partition and its distinct
blocks with where each occurs.
Operator evaluation does not re-verify commutation: callers that
need the defect should measure it once, not per evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import complex_from_json, complex_to_json, op_norm

__all__ = [
    "Poly3",
    "poly_to_json",
    "poly_from_json",
    "eval_scalar_many",
    "MonomialBasis",
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


def eval_scalar_many(p: Poly3, x1, x2, x3) -> np.ndarray:
    """Evaluate at arrays of points (broadcast together).

    Each variable gets a cumulative power table over the points, and
    the terms are multiplied as ((c * x1^m1) * x2^m2) * x3^m3, each
    factor a view of a table row and every product written into one
    reused buffer, then summed in ``p.coeffs`` order.
    """
    xs = np.broadcast_arrays(
        np.asarray(x1, dtype=np.complex128),
        np.asarray(x2, dtype=np.complex128),
        np.asarray(x3, dtype=np.complex128),
    )
    out = np.zeros(xs[0].shape, dtype=np.complex128)
    if not p.coeffs:
        return out
    tables = []
    for x, d in zip(xs, p.exp_array.max(axis=0)):
        tab = np.empty((d + 1,) + x.shape, dtype=np.complex128)
        tab[0] = 1.0
        for k in range(1, d + 1):
            # tab[k, ...] is an array view even for 0-d points.
            np.multiply(tab[k - 1], x, out=tab[k, ...])
        tables.append(tab)
    t1, t2, t3 = tables
    term = np.empty_like(out)
    for (m1, m2, m3), c in zip(p.exp_array.tolist(), p.coef_array):
        np.multiply(c, t1[m1], out=term)
        term *= t2[m2]
        term *= t3[m3]
        out += term
    return out


class MonomialBasis:
    """Memoized monomials ``T1^m1 T2^m2 T3^m3`` of one operator triple.

    Each variable's power table grows on demand by ``P[k] = P[k-1] @ T``
    from ``P[0] = I``, and each monomial is formed once as
    ``(P1[m1] @ P2[m2]) @ P3[m3]``, then reused by every later
    evaluation.  A power or monomial that comes out exactly zero is
    stored as ``None`` ("absent"); absent entries are never multiplied
    again, so a nilpotent triple keeps only its few nonzero monomials.
    ``monomials`` maps each exponent asked for so far to its matrix or
    ``None``.  The matrices are taken as given, already validated: a
    caller gets the basis of a triple as ``Triple.basis``.
    """

    __slots__ = ("mats", "dim", "monomials", "_powers")

    def __init__(self, t1: np.ndarray, t2: np.ndarray, t3: np.ndarray):
        self.mats = (t1, t2, t3)
        self.dim = t1.shape[0]
        self.monomials: dict[tuple[int, int, int], np.ndarray | None] = {}
        # Power tables start at P[0] = I, formed on first use.
        self._powers: tuple[list, list, list] = ([], [], [])

    def _power(self, i: int, k: int) -> np.ndarray | None:
        if not self._powers[0]:
            eye = np.eye(self.dim, dtype=np.complex128)
            for table in self._powers:
                table.append(eye)
        table = self._powers[i]
        base = self.mats[i]
        while len(table) <= k:
            prev = table[-1]
            table.append(None if prev is None else _drop_zero(prev @ base))
        return table[k]

    def monomial(self, exp: tuple[int, int, int]) -> np.ndarray | None:
        """The monomial for ``exp``, or ``None`` when it is exactly zero."""
        if exp in self.monomials:
            return self.monomials[exp]
        p1, p2, p3 = (self._power(i, m) for i, m in enumerate(exp))
        mono = None
        if p1 is not None and p2 is not None and p3 is not None:
            head = _drop_zero(p1 @ p2)
            if head is not None:
                mono = _drop_zero(head @ p3)
        self.monomials[exp] = mono
        return mono


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


def _drop_zero(m: np.ndarray) -> np.ndarray | None:
    # Stored matrices are shared by every caller, so they are read-only.
    if not m.any():
        return None
    m.flags.writeable = False
    return m


def eval_operator(p: Poly3, basis: MonomialBasis) -> np.ndarray:
    """Substitute a commuting operator triple into the polynomial.

    The triple comes as its :class:`MonomialBasis`, whose memoized
    monomials are shared across calls.  The sum
    ``acc += c * T^m`` runs in ``p.coeffs`` order and skips absent
    (exactly zero) monomials: adding ``c * 0`` would leave ``acc``
    unchanged, so the result is bit for bit that of multiplying every
    monomial out.  Monomials are ordered ``T1^m1 T2^m2 T3^m3``; for
    genuinely commuting triples the order is immaterial.  Commutation
    is the caller's responsibility and is not re-checked here.
    """
    acc = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for exp, c in p.coeffs.items():
        mono = basis.monomial(exp)
        if mono is not None:
            acc += c * mono
    return acc


def random_poly(degree: int, *, seed=None) -> Poly3:
    """Random polynomial with all monomials of total degree <= degree.

    Coefficients are complex Gaussians with unit standard deviation per
    component, drawn in lexicographic exponent order so a fixed seed
    pins the polynomial exactly.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rng = np.random.default_rng(seed)
    exps = [
        (m1, m2, m3)
        for m1 in range(degree + 1)
        for m2 in range(degree + 1 - m1)
        for m3 in range(degree + 1 - m1 - m2)
    ]
    exps.sort()
    re = rng.standard_normal(len(exps))
    im = rng.standard_normal(len(exps))
    return Poly3({exp: complex(a, b) for exp, (a, b) in zip(exps, zip(re, im))})


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


def _normal_equations_index(n: int, grid: int) -> np.ndarray:
    """Where each entry of the batched augmented normal equations lives.

    Row r of the batch fits the coefficients of z^2..z^(r+2), one
    unknown per index l < n.  On the grid roots of unity the weighted
    normal equations are Toeplitz: entry (l, k) is the weights' Fourier
    moment F[(l - k) mod grid], and the right-hand side is entry l of
    -(b0 F[l + 2] + b1 F[l + 1]).  The returned (n, n, n + 1) array
    indexes the flattened per-step table [F | rhs | 1 | 0], one row per
    degree; the unknowns a row does not use get identity rows and a
    zero right-hand side.
    """
    width = grid + n + 2
    row = np.arange(n)[:, None, None]
    l = np.arange(n)[None, :, None]
    k = np.arange(n + 1)[None, None, :]
    entry = np.where(k < n, (l - k) % grid, grid + l)
    pad = np.where(l == k, grid + n, grid + n + 1)
    used = (l <= row) & ((k <= row) | (k == n))
    return row * width + np.where(used, entry, pad)


def _gauss_jordan(aug: np.ndarray) -> np.ndarray:
    """Solve a batch of augmented systems [A | b] in place; the solutions.

    Gauss-Jordan elimination without pivoting, which the Hermitian
    positive-definite normal equations allow.  It takes only
    elementwise numpy steps, so an identity-padded system gives its
    leading block's solution bit for bit; LAPACK's LU does not.
    """
    n = aug.shape[1]
    for k in range(n):
        pivot = aug[:, k, k:] / aug[:, k, k, None]
        aug[:, :, k:] -= aug[:, :, k, None] * pivot[:, None, :]
        aug[:, k, k:] = pivot
    return aug[:, :, n]


def _lawson_fits(b0: complex, b1: complex, top: int, grid: int) -> np.ndarray:
    """Lawson fits of degrees 2..top in lockstep; one coefficient row each.

    Row r holds b0, b1 and the fitted coefficients of z^2..z^(r+2),
    zero-padded to length top + 1.  Each step takes every row's weight
    moments with one FFT, solves all rows' normal equations in one
    batched elimination, and reweights by the residual magnitudes on
    the grid from one inverse FFT.
    """
    n = top - 1
    index = _normal_equations_index(n, grid)
    unit = np.zeros((n, 2))
    unit[:, 0] = 1.0
    coefs = np.zeros((n, grid), dtype=np.complex128)
    coefs[:, 0] = b0
    coefs[:, 1] = b1
    w = np.full((n, grid), 1.0 / grid)
    for _ in range(_LAWSON_STEPS):
        moments = np.fft.fft(w)
        rhs = -(b0 * moments[:, 2 : top + 1] + b1 * moments[:, 1:top])
        table = np.concatenate([moments, rhs, unit], axis=1)
        coefs[:, 2 : top + 1] = _gauss_jordan(table.ravel()[index])
        w = w * np.abs(np.fft.ifft(coefs, norm="forward"))
        w /= w.sum(axis=1, keepdims=True)
    return coefs[:, : top + 1]


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
    value equals a separate call's with its degree alone, bit for bit,
    and is nonincreasing in the degree.  Each is an upper bound on the
    sup of an actual polynomial, hence at or above
    :func:`cf_matrix_norm` up to rounding.  Degrees must be below ``grid``.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if max(degrees, default=0) >= grid:
        raise ValueError(f"degrees must be below grid ({grid})")
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
    return tuple(running[min(d, top)] for d in degrees)
