"""Dense complex linear algebra used throughout the package.

Everything here works on square complex matrices held as
``numpy.ndarray`` with dtype ``complex128``.  The Hermitian eigensolver
has two backends: the LAPACK path (``numpy.linalg.eigh``) used by
default, and a self-contained Jacobi iteration in the round-robin
(parallel) ordering, with no LAPACK call, that serves as an independent
cross-check in the test suite and criterion 9.  Both enforce the same gate:
the input must be Hermitian up to a stated tolerance, and is
symmetrized before factoring.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
)

__all__ = [
    "as_matrix",
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "op_norm",
    "HermEig",
    "herm_eig",
    "sqrt_psd",
    "numerical_radius",
]

#: Relative off-diagonal target for the Jacobi backend.
JACOBI_OFF_TOL = 1e-13

#: Sweep budget for the Jacobi backend before giving up.
JACOBI_MAX_SWEEPS = 100

# numerical_radius stops refining where |lambda'| <= _FLAT_SLOPE * n *
# |H| (zero to rounding) and lambda'' is not above _FLAT_CURVE * |H|.
_FLAT_SLOPE = 8.0 * np.finfo(float).eps
_FLAT_CURVE = math.sqrt(np.finfo(float).eps)

# numerical_radius solves every _SCAN_STRIDE-th half-circle angle first
# and then only the angles whose support-line bound reaches the best.
_SCAN_STRIDE = 12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def as_matrix(obj, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``obj`` to a 2-D complex128 array, copying if needed.

    Parameters
    ----------
    obj:
        Anything ``numpy.asarray`` accepts: nested lists, an ndarray,
        a scalar wrapped in ``[[...]]``.
    square:
        When True, reject rectangular input with NonSquareError.
    name:
        Label used in error messages.
    """
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def complex_to_json(value) -> list:
    """A number as the ``[re, im]`` pair of a JSON document."""
    value = complex(value)
    return [value.real, value.imag]


def complex_from_json(pair, what: str) -> complex:
    """A ``[re, im]`` pair of a JSON document as a complex number.

    Raises ValueError naming ``what`` unless ``pair`` is a list of two
    finite real numbers; a bool is not a number here.
    """
    if not (
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ValueError(f"{what} must be [re, im], two numbers, got {pair!r}")
    try:
        value = complex(pair[0], pair[1])
    except OverflowError:  # an int too large for a float
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValueError(f"{what} must be finite, got {pair!r}")
    return value


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the interchange dict form.

    The format is ``{"rows": m, "cols": n, "data": [[re, im], ...]}``
    with entries in row-major order.
    """
    a = as_matrix(a)
    m, n = a.shape
    data = [complex_to_json(z) for z in a.reshape(-1)]
    return {"rows": m, "cols": n, "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with shape validation.

    ``rows`` and ``cols`` must be nonnegative ints and each entry is
    read by :func:`complex_from_json`; ValueError names the bad item.
    """
    try:
        m, n, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc!r}") from exc
    for key, count in (("rows", m), ("cols", n)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"matrix {key} must be a nonnegative int, got {count!r}")
    if not isinstance(data, list):
        raise ValueError(f"matrix data must be a list, got {data!r}")
    if len(data) != m * n:
        raise DimensionMismatchError(
            f"expected {m * n} entries for a {m}x{n} matrix, got {len(data)}"
        )
    out = np.empty(m * n, dtype=np.complex128)
    for i, pair in enumerate(data):
        out[i] = complex_from_json(pair, f"matrix entry {i}")
    return out.reshape(m, n)


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value.

    An all-zero (or empty) matrix returns 0.0 without an SVD, the value
    the SVD would give.
    """
    a = as_matrix(a)
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending; ``vectors[:, k]`` is the unit
    eigenvector for ``values[k]``, so ``vectors @ diag(values) @
    vectors.conj().T`` reconstructs the symmetrized input.
    """

    values: np.ndarray
    vectors: np.ndarray


def _hermitian_gate(h, tol: float) -> np.ndarray:
    h = as_matrix(h, square=True, name="hermitian input")
    asym = np.linalg.norm(h - h.conj().T, 2) if h.size else 0.0
    if asym > tol:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (h + h.conj().T)


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep's rounds of disjoint pairs, by the circle method.

    Index 0 stays put while the others rotate one place per round; each
    round pairs the k-th index with the k-th from the end.  For odd n a
    phantom index n is added and whoever meets it sits out the round.
    Each of the n (n - 1) / 2 pairs (p, q), p < q, appears once.
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(
            (min(i, j), max(i, j))
            for i, j in zip(ring[: m // 2], ring[::-1])
            if max(i, j) < n
        )
        p, q = np.array(pairs).T
        rounds.append((p, q))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return rounds


def _power_of_two_below(x: float) -> float:
    """The largest power of two at most ``x``, a positive finite float.

    Dividing a matrix whose largest entry is ``x`` by it is exact and
    brings that entry into [1, 2).
    """
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin complex Jacobi iteration on a Hermitian matrix.

    Each rotation annihilates one off-diagonal pair exactly.  A sweep
    visits every pair once, in the round-robin (parallel) ordering of
    Brent & Luk (1985): rounds of disjoint pairs, n - 1 rounds for even
    n and n for odd n.  The rotations of a round touch disjoint rows
    and columns, and each reads only its own a[p, p], a[q, q] and
    a[p, q], which no other rotation of the round changes; so they
    commute, and a round is applied as one vectorized update, the same
    up to rounding as applying its rotations one at a time.  Sweeps
    repeat until the off-diagonal Frobenius mass falls below
    ``JACOBI_OFF_TOL`` relative to the input, or the sweep budget runs
    out.  No LAPACK routine is called.
    """
    n = h.shape[0]
    v = np.eye(n, dtype=np.complex128)
    big = float(np.abs(h).max()) if n else 0.0
    if big == 0.0 or n < 2:
        values = np.zeros(n) if big == 0.0 else h.diagonal().real.copy()
        return values, v
    # Scaling by a power of two is exact and leaves every rotation as
    # it was; it keeps the Frobenius norms from underflowing (entries
    # near 1e-200) or overflowing (near 1e200).
    scale = _power_of_two_below(big)
    a = h.astype(np.complex128) / scale
    fro = np.linalg.norm(a)

    def _off(m: np.ndarray) -> float:
        # Norm of the off-diagonal part, formed explicitly: the
        # difference of squared norms cancels catastrophically once
        # the mass is small.
        return float(np.linalg.norm(m - np.diag(m.diagonal())))

    target = JACOBI_OFF_TOL * fro
    rounds = _round_robin(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off(a) <= target:
            break
        for p, q in rounds:
            beta = a[p, q]
            b = np.abs(beta)
            keep = b > target / (n * n)
            if not keep.all():
                p, q, beta, b = p[keep], q[keep], beta[keep], b[keep]
                if not p.size:
                    continue
            phase = beta / b
            tau = (a[q, q].real - a[p, p].real) / (2.0 * b)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # Plane rotation J per pair: J[p,p]=c*phase, J[p,q]=s*phase,
            # J[q,p]=-s, J[q,q]=c, acting as a <- J* a J.
            cp, sp = c * phase, s * phase
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = cp * col_p - s * col_q
            a[:, q] = sp * col_p + c * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = np.conj(cp)[:, None] * row_p - s[:, None] * row_q
            a[q, :] = np.conj(sp)[:, None] * row_p + c[:, None] * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            col_p, col_q = v[:, p], v[:, q]
            v[:, p] = cp * col_p - s * col_q
            v[:, q] = sp * col_p + c * col_q
    else:
        if _off(a) > target:
            raise NoConvergenceError(
                f"Jacobi sweeps exhausted ({JACOBI_MAX_SWEEPS}) "
                f"above target {target:.3e}"
            )

    values = a.diagonal().real * scale
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def herm_eig(h, *, tol: float = 1e-9, backend: str = "lapack") -> HermEig:
    """Eigendecomposition of a Hermitian matrix with a symmetry gate.

    The input must satisfy ``|h - h*| <= tol`` in operator norm, else
    NotHermitianError; it is then symmetrized so both backends factor
    exactly the same matrix.

    Parameters
    ----------
    h:
        Square complex matrix, Hermitian up to ``tol``.
    tol:
        Asymmetry gate.
    backend:
        ``"lapack"`` (default) uses ``numpy.linalg.eigh``; ``"jacobi"``
        runs the self-contained round-robin Jacobi iteration, each
        round of disjoint rotations as one vectorized update.  Both
        return ascending eigenvalues.
    """
    hs = _hermitian_gate(h, tol)
    if backend == "lapack":
        try:
            values, vectors = np.linalg.eigh(hs)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigh failed to converge: {exc}") from exc
        return HermEig(values=np.asarray(values, dtype=float), vectors=vectors)
    if backend == "jacobi":
        values, vectors = _jacobi_eigh(hs)
        return HermEig(values=np.asarray(values, dtype=float), vectors=vectors)
    raise ValueError(f"unknown backend {backend!r}; expected 'lapack' or 'jacobi'")


def sqrt_psd(h, *, tol: float = 1e-9) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues below ``-tol`` raise NotPSDError; small negatives
    within the tolerance are clamped to zero before the square root.
    """
    eig = herm_eig(h, tol=tol)
    lo = float(eig.values[0]) if eig.values.size else 0.0
    if lo < -tol:
        raise NotPSDError(f"eigenvalue {lo:.3e} below -tol ({-tol:.3e})")
    vals = np.sqrt(np.clip(eig.values, 0.0, None))
    return (eig.vectors * vals) @ eig.vectors.conj().T


@functools.lru_cache(maxsize=8)
def _scan_geometry(grid: int):
    """Coarse scan indices and support-line weights of a scan grid.

    Returns ``(coarse, rest, left, right, w_left, w_right, reach)``:
    the coarse half-circle indices (every ``_SCAN_STRIDE``-th and the
    last); the other full-circle indices ``rest``, each with the coarse
    full-circle indices ``left < m < right`` next to it and the weights
    of the support-line bound between them; and ``reach = 2 (1 +
    w_left + w_right)``, the multiple of the rounding allowance that
    the bound needs.  The arrays are read-only, since the cache shares
    them.
    """
    taken = np.zeros(grid // 2, dtype=bool)
    taken[::_SCAN_STRIDE] = taken[-1] = True
    coarse = np.flatnonzero(taken)
    taken = np.concatenate([taken, taken])
    ring, rest = np.flatnonzero(taken), np.flatnonzero(~taken)
    # ring holds 0 and grid - 1, so every m in rest has a neighbour on
    # each side, and the gap between them is at most grid / 2 - 1 steps.
    pos = np.searchsorted(ring, rest)
    left, right = ring[pos - 1], ring[pos]
    step = 2.0 * np.pi / grid
    span = np.sin((right - left) * step)
    w_left = np.sin((right - rest) * step) / span
    w_right = np.sin((rest - left) * step) / span
    reach = 2.0 * (1.0 + w_left + w_right)
    out = (coarse, rest, left, right, w_left, w_right, reach)
    for arr in out:
        arr.setflags(write=False)
    return out


def numerical_radius(t, *, grid: int = 720, refine: int = 40) -> tuple[float, float]:
    """Numerical radius of a square matrix, with the maximizing angle.

    Uses the rotation formula: the numerical radius is the maximum over
    theta of lambda(theta), the top eigenvalue of

        H(theta) = (e^{i theta} T + e^{-i theta} T*) / 2
                 = cos(theta) A + sin(theta) B,

    with A = (T + T*) / 2 and B = i (T - T*) / 2.

    Scan: ``grid`` must be even.  The scan takes the maximum of lambda
    over the ``grid`` angles 2 pi m / grid.  Since H(theta + pi) =
    -H(theta), one ``eigvalsh`` at a half-circle angle theta gives
    lambda at theta and, as minus the smallest eigenvalue, at theta +
    pi.  Most angles need no solve at all:

    - Coarse pass: one batched ``eigvalsh`` over every
      ``_SCAN_STRIDE``-th half-circle angle and the last one.  The
      coarse angles and their opposites split the circle into gaps of
      at most ``_SCAN_STRIDE`` steps, each less than pi wide.
    - Bound: lambda(theta) is the support function of the numerical
      range W(T), a convex set, so for theta between two scanned
      angles lo < theta < hi with hi - lo < pi,

          lambda(theta) <= (lambda(lo) sin(hi - theta)
                            + lambda(hi) sin(theta - lo)) / sin(hi - lo),

      the vertex where the two support lines meet.  The weights
      w_lo, w_hi of this bound depend only on ``grid`` and are
      cached per grid.
    - Fine pass: a second batched ``eigvalsh`` over the half-circle
      angles where the bound at theta or at theta + pi, plus the
      rounding margin below, reaches the best coarse value.

    Rounding margin: let e bound the error of a computed lambda.  A
    backward-stable ``eigvalsh`` errs by a modest multiple of n eps
    |H|, and forming H from the rounded cos and sin adds a few eps |T|;
    |H| <= |T| <= sum |t_ij|.  So e <= E with the generous allowance
    E = 64 n (eps sum |t_ij| + tiny), where the ``tiny`` term (the
    smallest normal float) covers underflow.  A computed lambda at a
    skipped angle is then at most the exact bound from the computed
    neighbours plus (1 + w_lo + w_hi) E, and the computed bound is
    within (w_lo + w_hi) E / 8 of the exact one.  An angle is skipped
    only when its computed bound plus 2 (1 + w_lo + w_hi) E is below
    the best coarse value, so its lambda, had it been computed, would
    have lost to that value strictly.  An angle that could tie the
    best value is always solved: on a round range (a Jordan block)
    that is every angle, and ties go to the first index as in the full
    scan.

    Every solved angle's lambda has the bits the full scan gives it:
    each matrix of the batch is built from cos and sin of the whole
    angle array, indexed afterwards, and factored on its own.  The
    values go into a full array of ``grid`` values with -inf at the
    skipped angles, and the argmax of that array is the scan's best
    angle, so the first-index tie rule, the best value and everything
    after it are the full scan's, bit for bit.

    Refinement: at most ``refine`` steps of Newton's method on
    lambda'(theta) = v* H'(theta) v, from the best scan angle.  Each
    step does one ``eigh``; lambda'' = -lambda + 2 sum_k |v_k* H' v|^2
    / (lambda - lambda_k) comes from the full eigendecomposition.  The
    iterate stays inside [theta_0 - 2 pi / grid, theta_0 + 2 pi /
    grid], a bracket that the sign of lambda' shrinks; a Newton step
    that leaves it, or is taken where lambda'' >= 0, becomes a
    bisection.  The search stops at a Newton step below 1e-13 where
    lambda'' < 0, once the bracket is narrower than 1e-13, or where
    lambda' is zero to rounding and lambda'' is NaN (a multiple top
    eigenvalue) or not clearly positive: there lambda is flat or at a
    peak, and only a clear valley (lambda'' > 0) is worth leaving.

    The value is an evaluated lambda at the returned angle and never
    below the scan maximum, so it is a lower bound on the numerical
    radius: a local search can miss a higher peak between scan angles.

    Scaling: all of the above runs on T divided by the power of two at
    or below its largest entry modulus, and the value is multiplied
    back.  Dividing by a power of two is exact, so the result for 2^k T
    is 2^k times that for T, with the same angle; without it, the
    squared couplings in lambda'' overflow for entries near 1e200.  The
    zero matrix gives (0.0, 0.0).

    Returns
    -------
    (value, theta):
        The numerical radius and an angle in [0, 2 pi) attaining it.
    """
    t = as_matrix(t, square=True)
    if grid < 4 or grid % 2:
        raise ValueError(f"grid must be even and at least 4, got {grid}")
    n = t.shape[0]
    big = float(np.abs(t).max()) if n else 0.0
    if big == 0.0:
        return 0.0, 0.0
    scale = _power_of_two_below(big)
    t = t / scale
    a = 0.5 * (t + t.conj().T)
    b = 0.5j * (t - t.conj().T)
    half = grid // 2
    thetas = 2.0 * np.pi * np.arange(half) / grid
    cos, sin = np.cos(thetas), np.sin(thetas)
    tops = np.full(grid, -np.inf)

    def scan(idx):
        ends = np.linalg.eigvalsh(
            cos[idx][:, None, None] * a + sin[idx][:, None, None] * b
        )
        tops[idx] = ends[:, -1]
        tops[idx + half] = -ends[:, 0]

    coarse, rest, left, right, w_left, w_right, reach = _scan_geometry(grid)
    scan(coarse)
    allowance = 64.0 * n * (_EPS * float(np.abs(t).sum()) + _TINY)
    bound = w_left * tops[left] + w_right * tops[right] + reach * allowance
    need = np.zeros(half, dtype=bool)
    need[rest[~(bound < tops.max())] % half] = True
    if need.any():
        scan(np.flatnonzero(need))
    k = int(np.argmax(tops))
    best_val = float(tops[k])
    theta = best_theta = 2.0 * np.pi * k / grid

    lo = theta - 2.0 * np.pi / grid
    hi = theta + 2.0 * np.pi / grid
    for _ in range(refine):
        c, s = math.cos(theta), math.sin(theta)
        vals, vecs = np.linalg.eigh(c * a + s * b)
        lam = float(vals[-1])
        if lam > best_val:
            best_val, best_theta = lam, theta
        w = vecs.conj().T @ ((c * b - s * a) @ vecs[:, -1])
        slope = float(w[-1].real)
        if slope > 0.0:
            lo = theta
        else:
            hi = theta
        with np.errstate(divide="ignore", invalid="ignore"):
            coupling = np.abs(w[:-1]) ** 2 / (lam - vals[:-1])
        curve = -lam + 2.0 * float(np.sum(coupling))
        step = -slope / curve if curve < 0.0 else math.nan
        if abs(step) < 1e-13 or hi - lo < 1e-13:
            break
        # Flat or multiple top eigenvalue: lambda' is zero to rounding
        # and lambda'' is 0/0 or zero to rounding, so no step can gain.
        size = max(abs(lam), abs(float(vals[0])))
        flat = abs(slope) <= _FLAT_SLOPE * len(vals) * size
        if flat and not curve > _FLAT_CURVE * size:
            break
        theta = theta + step if lo < theta + step < hi else 0.5 * (lo + hi)
    best_theta %= 2.0 * np.pi
    if best_theta == 2.0 * np.pi:
        # A tiny negative angle wraps to 2 pi after rounding.
        best_theta = 0.0
    return best_val * scale, best_theta

