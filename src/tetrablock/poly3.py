"""Polynomials in three commuting variables, plus one-variable
minimal-norm extension utilities.

A polynomial is held sparsely as ``{(m1, m2, m3): coefficient}``.
Scalar evaluation uses cumulative power tables and takes a batch of
points and of polynomials at once; operator evaluation substitutes a
commuting matrix triple, ordered as ``T1^m1 T2^m2 T3^m3``.  The
triple's monomials come from a ``MonomialBasis``, which builds each
power and monomial once and keeps exactly zero ones as absent, so
callers evaluating many polynomials on one triple share its basis.
``diagonal_blocks`` and ``distinct_blocks`` find the block form of
square matrices: their block-diagonal partition and its distinct
blocks with where each occurs.
Operator evaluation does not re-verify commutation: callers that
need the defect should measure it once, not per evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import op_norm

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
        coefficients are dropped; exponents must be nonnegative ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean: dict[tuple[int, int, int], complex] = {}
        for exp, c in coeffs.items():
            m1, m2, m3 = exp
            if m1 < 0 or m2 < 0 or m3 < 0:
                raise ValueError(f"negative exponent in {exp}")
            c = complex(c)
            if c != 0:
                clean[(int(m1), int(m2), int(m3))] = c
        self.coeffs = clean

    @property
    def total_degree(self) -> int:
        """Largest total degree, or -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(exp) for exp in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{exp}: {c}" for exp, c in sorted(self.coeffs.items())
        )
        return f"Poly3({{{terms}}})"


def poly_to_json(p: Poly3) -> list:
    """Serialize to the interchange list form, sorted by exponent.

    Each term is ``{"exp": [m1, m2, m3], "coef": [re, im]}``.
    """
    return [
        {"exp": list(exp), "coef": [float(c.real), float(c.imag)]}
        for exp, c in sorted(p.coeffs.items())
    ]


def poly_from_json(obj) -> Poly3:
    """Inverse of :func:`poly_to_json`."""
    coeffs: dict[tuple[int, int, int], complex] = {}
    for term in obj:
        exp = term["exp"]
        re, im = term["coef"]
        if len(exp) != 3:
            raise ValueError(f"exponent must have three entries, got {exp}")
        key = (int(exp[0]), int(exp[1]), int(exp[2]))
        coeffs[key] = coeffs.get(key, 0.0) + complex(re, im)
    return Poly3(coeffs)


def eval_scalar_many(p, x1, x2, x3) -> np.ndarray:
    """Evaluate at arrays of points (broadcast together).

    ``p`` is one polynomial or a sequence of B polynomials.  For a
    sequence the points carry a leading batch axis of length B, and
    polynomial b is evaluated at the points of row b; a single
    polynomial runs as a batch of one, without the batch axis.
    Cumulative power tables per variable cost one multiply per table
    row; each term is then one fused product per batch row.  Terms are
    multiplied and summed in each polynomial's ``coeffs`` order, and a
    polynomial with fewer terms than the longest in the batch is padded
    with zero terms, so every row is bit for bit its own evaluation.
    """
    single = isinstance(p, Poly3)
    polys = [p] if single else list(p)
    x1, x2, x3 = np.broadcast_arrays(
        np.asarray(x1, dtype=np.complex128),
        np.asarray(x2, dtype=np.complex128),
        np.asarray(x3, dtype=np.complex128),
    )
    if single:
        x1, x2, x3 = x1[None], x2[None], x3[None]
    batch = len(polys)
    if x1.shape[:1] != (batch,):
        raise ValueError(
            f"points need a leading batch axis of {batch}, got shape {x1.shape}"
        )
    terms = max((len(q.coeffs) for q in polys), default=0)
    exps = np.zeros((batch, terms, 3), dtype=np.intp)
    coefs = np.zeros((batch, terms), dtype=np.complex128)
    for b, q in enumerate(polys):
        if q.coeffs:
            exps[b, : len(q.coeffs)] = list(q.coeffs)
            coefs[b, : len(q.coeffs)] = list(q.coeffs.values())
    tables = []
    for i, x in enumerate((x1, x2, x3)):
        d = exps[..., i].max(initial=0)
        tab = np.empty((d + 1,) + x.shape, dtype=np.complex128)
        tab[0] = 1.0
        for k in range(1, d + 1):
            tab[k] = tab[k - 1] * x
        tables.append(tab)
    rows = np.arange(batch)
    coef_shape = (batch,) + (1,) * (x1.ndim - 1)
    out = np.zeros(x1.shape, dtype=np.complex128)
    for j in range(terms):
        m1, m2, m3 = exps[:, j].T
        out += (
            coefs[:, j].reshape(coef_shape)
            * tables[0][m1, rows]
            * tables[1][m2, rows]
            * tables[2][m3, rows]
        )
    return out[0] if single else out


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


def random_poly(degree: int, *, seed=None, scale: float = 1.0) -> Poly3:
    """Random polynomial with all monomials of total degree <= degree.

    Coefficients are complex Gaussians with standard deviation
    ``scale`` per component, drawn in lexicographic exponent order so
    a fixed seed pins the polynomial exactly.
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
    return Poly3({exp: scale * complex(a, b) for exp, (a, b) in zip(exps, zip(re, im))})


# ---------------------------------------------------------------------------
# Minimal-norm extension of two prescribed Taylor coefficients.
# ---------------------------------------------------------------------------


# Reweighted least-squares steps per degree in :func:`cf_empirical_inf`.
_LAWSON_STEPS = 300
# Golden-section ratio, and the local maxima each circle sup refines.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PEAKS = 8


def cf_matrix_norm(b0: complex, b1: complex) -> float:
    """Exact infimum of sup-norms over analytic extensions of b0 + b1*z.

    Equals the operator norm of the 2x2 lower-triangular Toeplitz
    matrix built from the two coefficients.
    """
    return op_norm([[b0, 0.0], [b1, b0]])


def _horner(coefs: np.ndarray, z) -> np.ndarray:
    """Polynomials with coefficients lowest power first along the last
    axis of ``coefs``, evaluated at ``z`` (broadcast against the rest)."""
    out = np.zeros(np.broadcast_shapes(coefs.shape[:-1], np.shape(z)), np.complex128)
    for j in range(coefs.shape[-1] - 1, -1, -1):
        out = out * z + coefs[..., j]
    return out


def _circle_sups(coefs: np.ndarray, grid: int) -> np.ndarray:
    """Sup of |p| on the unit circle for each coefficient row of ``coefs``.

    Rows hold coefficients lowest power first; zero padding at the top
    does not change a row's values.  Each row is scanned at ``grid``
    equispaced angles, and its strongest eight circular local maxima
    are refined by golden-section search on the bracket of their two
    neighbouring angles.  Every (row, maximum) lane runs in one
    vectorised search; a lane is frozen by a mask once its bracket is
    below 1e-13, exactly where its own search would stop, so each
    row's sup does not depend on the other rows.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.abs(_horner(coefs[:, None, :], np.exp(1j * thetas)))
    peak = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    strongest = np.argsort(np.where(peak, vals, -np.inf), axis=1)[:, -_PEAKS:]
    rows, slot = np.nonzero(np.take_along_axis(peak, strongest, axis=1))
    lanes = coefs[rows]

    def f(theta):
        return np.abs(_horner(lanes, np.exp(1j * theta)))

    step = 2.0 * np.pi / grid
    centre = thetas[strongest[rows, slot]]
    a, b = centre - step, centre + step
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    state = np.stack([a, b, c, d, f(c), f(d)])
    live = np.ones(len(rows), dtype=bool)
    for _ in range(60):
        a, b, c, d, fc, fd = state
        # Keep [a, d] when f(c) > f(d), else [c, b]; one new probe each.
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fp = f(probe)
        moved = np.stack(
            [
                a,
                b,
                np.where(left, probe, d),
                np.where(left, c, probe),
                np.where(left, fp, fd),
                np.where(left, fc, fp),
            ]
        )
        state = np.where(live, moved, state)
        live &= state[1] - state[0] >= 1e-13
        if not live.any():
            break
    best = vals.max(axis=1)
    np.maximum.at(best, rows, state[4:].max(axis=0))
    return best


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


def cf_empirical_inf(
    b0: complex,
    b1: complex,
    extra_degree,
    *,
    grid: int = 512,
):
    """Smallest circle sup found for a polynomial starting b0 + b1*z + ...

    For each degree d = 2..extra_degree, Lawson's iteration (Lawson
    1961) fits the free coefficients of degrees 2..d on the ``grid``
    roots of unity: weighted least squares from uniform weights, after
    each fit multiplying every weight by its residual magnitude and
    renormalising.  The problem is convex, and the reweighted fits
    approach its minimax solution.  Each least-squares fit solves the
    Toeplitz normal equations built from the weights' Fourier moments,
    and all degrees run their fixed 300 steps in lockstep, one batched
    solve per step.  Every degree's fit is then scored by one
    vectorised circle-sup search, and the running minimum over
    degrees, starting from |b0| + |b1|, is returned.  A degree's fit
    and score do not depend on ``extra_degree`` or on the other
    degrees, so the result is deterministic and nonincreasing in
    ``extra_degree``; it is the sup of an actual polynomial, hence
    essentially at or above :func:`cf_matrix_norm`.

    ``extra_degree`` may also be a sequence of degrees.  Each degree up
    to the largest is then fitted once, and the tuple of running minima
    at the requested degrees is returned, each equal to a separate call
    with that degree.  Degrees must be below ``grid``.
    """
    single = isinstance(extra_degree, (int, np.integer))
    degrees = [extra_degree] if single else [int(d) for d in extra_degree]
    if any(d < 0 for d in degrees):
        raise ValueError("extra_degree must be nonnegative")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if max(degrees, default=0) >= grid:
        raise ValueError(f"extra_degree must be below grid ({grid})")
    best = float(abs(b0) + abs(b1))
    # running[d] is the running minimum after fitting degrees 2..d.
    running = [best, best]
    # Zero is its own best extension, and zero residuals leave Lawson's
    # weights undefined, so the zero pair fits nothing.
    top = max(degrees, default=0) if best else 1
    if top >= 2:
        for sup in _circle_sups(_lawson_fits(b0, b1, top, grid), grid):
            best = min(best, float(sup))
            running.append(best)
    values = tuple(running[min(d, top)] for d in degrees)
    return values[0] if single else values
