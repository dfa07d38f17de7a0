"""Polynomials in three commuting variables, plus one-variable
minimal-norm extension utilities.

A polynomial is held sparsely as ``{(m1, m2, m3): coefficient}``.
Scalar evaluation is Horner-style, nested variable by variable;
vectorized evaluation uses cumulative power tables; operator
evaluation substitutes a commuting matrix triple, ordered as
``T1^m1 T2^m2 T3^m3``.  The triple's monomials come from a
``MonomialBasis``, which builds each power and monomial once and
keeps exactly zero ones as absent, so callers evaluating many
polynomials on one triple build the basis once and share it.
Operator evaluation does not re-verify commutation: callers that
need the defect should measure it once, not per evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_matrix, op_norm
from .rng import as_generator

__all__ = [
    "Poly3",
    "poly_to_json",
    "poly_from_json",
    "eval_scalar",
    "eval_scalar_many",
    "MonomialBasis",
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


def _horner_sparse(pairs, x):
    """Evaluate sum(c * x**e) by sparse Horner.

    ``pairs`` is an iterable of (exponent, value) with distinct
    exponents; values may themselves be complex numbers or arrays.
    """
    items = sorted(pairs, key=lambda t: t[0], reverse=True)
    acc = None
    prev = 0
    for e, c in items:
        if acc is None:
            acc = c
        else:
            acc = acc * x ** (prev - e) + c
        prev = e
    if acc is None:
        return 0.0 + 0.0j
    return acc * x**prev


def eval_scalar(p: Poly3, x1: complex, x2: complex, x3: complex) -> complex:
    """Evaluate at a scalar point, Horner-nested in x1, then x2, x3."""
    by_m1: dict[int, dict[int, dict[int, complex]]] = {}
    for (m1, m2, m3), c in p.coeffs.items():
        by_m1.setdefault(m1, {}).setdefault(m2, {})[m3] = c
    outer = []
    for m1, by_m2 in by_m1.items():
        middle = []
        for m2, by_m3 in by_m2.items():
            middle.append((m2, _horner_sparse(by_m3.items(), x3)))
        outer.append((m1, _horner_sparse(middle, x2)))
    return complex(_horner_sparse(outer, x1))


def eval_scalar_many(p: Poly3, x1, x2, x3) -> np.ndarray:
    """Evaluate at arrays of points (broadcast together).

    Builds cumulative power tables per variable, so the cost is one
    multiply per table row plus one fused gather per term.
    """
    x1, x2, x3 = np.broadcast_arrays(
        np.asarray(x1, dtype=np.complex128),
        np.asarray(x2, dtype=np.complex128),
        np.asarray(x3, dtype=np.complex128),
    )
    out = np.zeros(x1.shape, dtype=np.complex128)
    if not p.coeffs:
        return out
    d1 = max(exp[0] for exp in p.coeffs)
    d2 = max(exp[1] for exp in p.coeffs)
    d3 = max(exp[2] for exp in p.coeffs)
    tables = []
    for x, d in ((x1, d1), (x2, d2), (x3, d3)):
        tab = np.empty((d + 1,) + x.shape, dtype=np.complex128)
        tab[0] = 1.0
        for k in range(1, d + 1):
            tab[k] = tab[k - 1] * x
        tables.append(tab)
    for (m1, m2, m3), c in p.coeffs.items():
        out += c * tables[0][m1] * tables[1][m2] * tables[2][m3]
    return out


def _unpack_triple(t):
    """Accept a triple object with .t1/.t2/.t3 or a plain 3-sequence."""
    if hasattr(t, "t1") and hasattr(t, "t2") and hasattr(t, "t3"):
        mats = (t.t1, t.t2, t.t3)
    else:
        mats = tuple(t)
        if len(mats) != 3:
            raise ValueError("expected three operators")
    out = tuple(as_matrix(m, square=True, name=f"t{i + 1}") for i, m in enumerate(mats))
    if not (out[0].shape == out[1].shape == out[2].shape):
        raise DimensionMismatchError(
            f"operators must share a shape, got {[m.shape for m in out]}"
        )
    return out


class MonomialBasis:
    """Memoized monomials ``T1^m1 T2^m2 T3^m3`` of one operator triple.

    Each variable's power table grows on demand by ``P[k] = P[k-1] @ T``
    from ``P[0] = I``, and each monomial is formed once as
    ``(P1[m1] @ P2[m2]) @ P3[m3]``, then reused by every later
    evaluation.  A power or monomial that comes out exactly zero is
    stored as ``None`` ("absent"); absent entries are never multiplied
    again, so a nilpotent triple keeps only its few nonzero monomials.
    The basis keeps the triple as ``t1``/``t2``/``t3``, so it can stand
    in wherever a triple is read.  ``monomials`` maps each exponent asked for so far to its matrix or
    ``None``.
    """

    __slots__ = ("t1", "t2", "t3", "dim", "monomials", "_powers")

    def __init__(self, t):
        self.t1, self.t2, self.t3 = _unpack_triple(t)
        self.dim = self.t1.shape[0]
        eye = np.eye(self.dim, dtype=np.complex128)
        self.monomials: dict[tuple[int, int, int], np.ndarray | None] = {}
        self._powers = ([eye], [eye], [eye])

    def _power(self, i: int, k: int) -> np.ndarray | None:
        table = self._powers[i]
        base = (self.t1, self.t2, self.t3)[i]
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


def _drop_zero(m: np.ndarray) -> np.ndarray | None:
    # Stored matrices are shared by every caller, so they are read-only.
    if not m.any():
        return None
    m.flags.writeable = False
    return m


def eval_operator(p: Poly3, t) -> np.ndarray:
    """Substitute a commuting operator triple into the polynomial.

    ``t`` is a triple (an object with ``.t1/.t2/.t3`` or a 3-sequence),
    for which a throwaway :class:`MonomialBasis` is built, or a prebuilt
    basis, whose memoized monomials are shared across calls.  The sum
    ``acc += c * T^m`` runs in ``p.coeffs`` order and skips absent
    (exactly zero) monomials: adding ``c * 0`` would leave ``acc``
    unchanged, so the result is bit for bit that of multiplying every
    monomial out.  Monomials are ordered ``T1^m1 T2^m2 T3^m3``; for
    genuinely commuting triples the order is immaterial.  Commutation
    is the caller's responsibility and is not re-checked here.
    """
    basis = t if isinstance(t, MonomialBasis) else MonomialBasis(t)
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
    extra_degree: int,
    *,
    grid: int = 512,
    seed: int = 0,
) -> float:
    """Search for a low-sup-norm polynomial starting b0 + b1*z + ...

    Free coefficients of degrees 2..extra_degree are optimized by a
    staged compass pattern search: each stage appends one degree,
    warm-starts from the previous stage's best point (padded with a
    zero), and also tries two seeded random restarts, keeping whichever
    refined sup is lower.  Within each start the objective is annealed
    through grid L^p norms with escalating p before the true maximum;
    the minimax landscape has tied peaks at its optimum, where a plain
    max objective stalls coordinate descent.  Because the stage path
    for a smaller ``extra_degree`` is a prefix of the path for a larger
    one, the returned value is nonincreasing in ``extra_degree`` for a
    fixed seed, and is always within refinement error of a true sup,
    hence essentially at or above :func:`cf_matrix_norm`.
    """
    if extra_degree < 0:
        raise ValueError("extra_degree must be nonnegative")
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if extra_degree < 2:
        return abs(b0) + abs(b1)

    rng = as_generator(seed)
    best_vec = np.array([b0, b1], dtype=np.complex128)
    best_value = _circle_sup(best_vec, grid)
    angles = np.exp(2j * np.pi * np.arange(grid) / grid)

    for stage in range(2, extra_degree + 1):
        # Power table sized to this stage only, so a run with a larger
        # extra_degree replays smaller stages bit for bit.
        powers = angles[None, :] ** np.arange(stage + 1)[:, None]
        warm = np.concatenate([best_vec, np.zeros(stage + 1 - len(best_vec))])
        starts = [warm]
        # Each stage draws the same number of variates regardless of the
        # final extra_degree, so stage paths replay exactly.
        for spread in (0.25, 0.6):
            rand = warm.copy()
            rand[2:] += spread * (
                rng.standard_normal(stage - 1) + 1j * rng.standard_normal(stage - 1)
            )
            starts.append(rand)

        def smoothed(rows: np.ndarray, p: int | None) -> np.ndarray:
            mags = np.abs(rows @ powers)
            if p is None:
                return mags.max(axis=-1)
            peak = mags.max(axis=-1, keepdims=True)
            scaled = mags / np.maximum(peak, 1e-300)
            return peak[..., 0] * (scaled**p).mean(axis=-1) ** (1.0 / p)

        for start in starts:
            vec = start.copy()
            for p in (8, 32, 128, None):
                g_best = float(smoothed(vec[None, :], p)[0])
                step = 0.3
                for _ in range(800):
                    if step < 1e-8:
                        break
                    probes = np.tile(vec, (4 * (stage - 1), 1))
                    row = 0
                    for j in range(2, stage + 1):
                        for delta in (step, -step, 1j * step, -1j * step):
                            probes[row, j] += delta
                            row += 1
                    gvals = smoothed(probes, p)
                    k = int(np.argmin(gvals))
                    if gvals[k] < g_best:
                        g_best = float(gvals[k])
                        vec = probes[k]
                    else:
                        step *= 0.5
            val = _circle_sup(vec, grid)
            if val < best_value:
                best_value = val
                best_vec = vec.copy()
        if len(best_vec) < stage + 1:
            best_vec = np.concatenate([best_vec, np.zeros(stage + 1 - len(best_vec))])
    return best_value
