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
from .rng import as_generator

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
    rng = as_generator(seed)
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


def cf_matrix_norm(b0: complex, b1: complex) -> float:
    """Exact infimum of sup-norms over analytic extensions of b0 + b1*z.

    Equals the operator norm of the 2x2 lower-triangular Toeplitz
    matrix built from the two coefficients.
    """
    return op_norm([[b0, 0.0], [b1, b0]])


def _circle_sup(coefs: np.ndarray, grid: int) -> float:
    """Sup of |poly(z)| on the unit circle, grid scan plus refinement.

    Scans ``grid`` equispaced angles, picks circular local maxima, and
    refines the strongest few with golden-section search.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.abs(np.polyval(coefs[::-1], np.exp(1j * thetas)))
    best = float(vals.max())
    if len(coefs) <= 1:
        return best
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    peaks = np.nonzero((vals >= left) & (vals >= right))[0]
    if peaks.size > 8:
        peaks = peaks[np.argsort(vals[peaks])[-8:]]
    step = 2.0 * np.pi / grid
    rev = coefs[::-1]

    def f(theta: float) -> float:
        return float(abs(np.polyval(rev, np.exp(1j * theta))))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for k in peaks:
        a = thetas[k] - step
        b = thetas[k] + step
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(60):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
            if b - a < 1e-13:
                break
        best = max(best, fc, fd)
    return best


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
    approach its minimax solution.  Each fit is scored by
    :func:`_circle_sup`, and the running minimum over degrees, starting
    from |b0| + |b1|, is returned.  A degree's fit does not depend on
    ``extra_degree``, so the result is deterministic and nonincreasing
    in ``extra_degree``; it is the sup of an actual polynomial, hence
    essentially at or above :func:`cf_matrix_norm`.

    ``extra_degree`` may also be a sequence of degrees.  Each degree up
    to the largest is then fitted once, and the tuple of running minima
    at the requested degrees is returned, each equal to a separate call
    with that degree.
    """
    single = isinstance(extra_degree, (int, np.integer))
    degrees = [extra_degree] if single else [int(d) for d in extra_degree]
    if any(d < 0 for d in degrees):
        raise ValueError("extra_degree must be nonnegative")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    best = float(abs(b0) + abs(b1))
    # running[d] is the running minimum after fitting degrees 2..d.
    running = [best, best]
    # Zero is its own best extension, and zero residuals leave Lawson's
    # weights undefined, so the zero pair fits nothing.
    top = max(degrees, default=0) if best else 1
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    target = b0 + b1 * z
    for degree in range(2, top + 1):
        basis = z[:, None] ** np.arange(2, degree + 1)
        w = np.full(grid, 1.0 / grid)
        for _ in range(_LAWSON_STEPS):
            sw = np.sqrt(w)
            c = np.linalg.lstsq(sw[:, None] * basis, -sw * target, rcond=None)[0]
            w = w * np.abs(target + basis @ c)
            w /= w.sum()
        best = min(best, _circle_sup(np.concatenate([[b0, b1], c]), grid))
        running.append(best)
    values = tuple(running[min(d, top)] for d in degrees)
    return values[0] if single else values
