"""Geometry of a bounded domain in C^3 defined by a bilinear pencil.

The closed domain consists of the points (x1, x2, x3) admitting a
parameter pair (b1, b2) with |b1| + |b2| <= 1 such that

    x1 = b1 + conj(b2) * x3,      x2 = b2 + conj(b1) * x3,

together with |x3| <= 1.  For |x3| < 1 the pair is unique and solvable
in closed form, which gives a fast membership test; an independent
route takes the minimum of |1 - z*x1 - w*x2 + z*w*x3| over the closed
bidisk, also in closed form, and checks it for zero.  The distinguished
boundary is the set |x3| = 1, x1 = conj(x2) * x3, |x2| <= 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import complex_from_json, complex_to_json
from .poly3 import Poly3, eval_scalar_many

__all__ = [
    "MembershipReport",
    "classify_point",
    "point_to_json",
    "point_from_json",
    "sample_distinguished_boundary",
    "defining_abs_min",
    "sup_on_closure",
]


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the closed-form membership test.

    ``beta`` is the parameter pair when one exists and ``beta_sum`` is
    |b1| + |b2|; both are None when there is no pair.  ``residual`` is
    the reconstruction error of (x1, x2) from beta, which is zero up to
    rounding whenever the solve is well posed.
    """

    in_closure: bool
    distinguished: bool
    x3_abs: float
    beta: tuple[complex, complex] | None
    beta_sum: float | None
    residual: float


def point_to_json(x1: complex, x2: complex, x3: complex) -> dict:
    """Serialize a point to ``{"x1": [re, im], ...}``."""
    return {
        "x1": complex_to_json(x1),
        "x2": complex_to_json(x2),
        "x3": complex_to_json(x3),
    }


def point_from_json(obj: dict) -> tuple[complex, complex, complex]:
    """Inverse of :func:`point_to_json`.

    Each component must be a pair read by :func:`complex_from_json`;
    ValueError names the bad one.
    """
    return tuple(complex_from_json(obj[key], key) for key in ("x1", "x2", "x3"))


def classify_point(
    x1: complex, x2: complex, x3: complex, *, tol: float = 1e-9
) -> MembershipReport:
    """Membership test via the closed-form parameter pair.

    For |x3| < 1 the defining system has the unique solution

        b1 = (x1 - x3 * conj(x2)) / (1 - |x3|^2),
        b2 = (x2 - x3 * conj(x1)) / (1 - |x3|^2),

    and the point is in the closed domain iff |b1| + |b2| <= 1.  On the
    face |x3| = 1 membership forces x1 = conj(x2) * x3, and then holds
    iff |x2| <= 1, which is exactly the distinguished boundary.  A
    non-finite component raises ValueError.
    """
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    if not (cmath.isfinite(x1) and cmath.isfinite(x2) and cmath.isfinite(x3)):
        raise ValueError(f"point components must be finite, got {(x1, x2, x3)}")
    a3 = abs(x3)
    outside = MembershipReport(
        in_closure=False,
        distinguished=False,
        x3_abs=a3,
        beta=None,
        beta_sum=None,
        residual=0.0,
    )
    if a3 > 1.0 + tol:
        return outside
    if a3 < 1.0 - tol:
        denom = 1.0 - a3 * a3
        b1 = (x1 - x3 * np.conj(x2)) / denom
        b2 = (x2 - x3 * np.conj(x1)) / denom
        s = abs(b1) + abs(b2)
        residual = max(
            abs(x1 - (b1 + np.conj(b2) * x3)),
            abs(x2 - (b2 + np.conj(b1) * x3)),
        )
        return MembershipReport(
            in_closure=bool(s <= 1.0 + tol),
            distinguished=False,
            x3_abs=a3,
            beta=(complex(b1), complex(b2)),
            beta_sum=float(s),
            residual=float(residual),
        )
    # |x3| = 1 within tolerance: degenerate face.
    if abs(x1 - np.conj(x2) * x3) > tol or abs(x2) > 1.0 + tol:
        return outside
    return MembershipReport(
        in_closure=True,
        distinguished=True,
        x3_abs=a3,
        beta=(0.0 + 0.0j, complex(x2)),
        beta_sum=float(abs(x2)),
        residual=0.0,
    )


def sample_distinguished_boundary(
    n: int, *, seed=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n points on the distinguished boundary.

    Angles are uniform; the modulus of x2 is sqrt(uniform), which
    spreads samples evenly over the parameter disk.  The underlying
    draw is a single ``random((n, 3))`` call, so for a fixed seed the
    first n points of a larger sample reproduce a smaller one.
    """
    return _boundary_points(np.random.default_rng(seed).random((n, 3)))


# u * A'(t) / i from the coefficients of u * A, highest power first.
_DERIVATIVE = np.array([1.0, 0.0, -1.0])
# Fixed candidate angles, a safeguard against near-double roots.
_SAFEGUARD_ANGLES = 2.0 * np.pi * np.arange(24) / 24


def defining_abs_min(x1: complex, x2: complex, x3: complex) -> float:
    """Minimum of |1 - z*x1 - w*x2 + z*w*x3| over the closed bidisk.

    For fixed z the function is affine in w, so the inner minimum is
    max(gap(z), 0) with gap(z) = |1 - z*x1| - |x2 - z*x3|.  When
    |x1| >= 1 the zero z = 1/x1 of 1 - z*x1 lies in the disk, so the
    result is exactly 0.0.  Otherwise gap has no interior minimum below
    its minimum on |z| = 1, and with z = u = exp(it), A = |1 - u*x1|^2
    and B = |x2 - u*x3|^2, every critical point of gap = sqrt(A) -
    sqrt(B) on the circle is a root of u^3 (A'^2 B - B'^2 A), a
    polynomial of degree 6.  Its roots, projected onto the circle, the
    critical points of A and of B (which carry the cases where that
    polynomial vanishes identically) and 24 fixed angles (a safeguard
    against near-double roots) are the candidates; the result is the
    global minimum up to rounding.
    """
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    if abs(x1) >= 1.0:
        return 0.0
    # u * A and u * B, highest power first.
    a = np.array([-x1, 1.0 + abs(x1) ** 2, -x1.conjugate()])
    b = np.array(
        [-x2.conjugate() * x3, abs(x2) ** 2 + abs(x3) ** 2, -x2 * x3.conjugate()]
    )
    da, db = a * _DERIVATIVE, b * _DERIVATIVE
    poly = np.convolve(np.convolve(da, da), b) - np.convolve(np.convolve(db, db), a)
    # Where A' = 0 and where B' = 0: two antipodal pairs.
    crit = np.array([-np.angle(x1), np.angle(x2) - np.angle(x3)])
    angles = np.concatenate(
        [np.angle(np.roots(poly)), crit, crit + np.pi, _SAFEGUARD_ANGLES]
    )
    u = np.exp(1j * angles)
    gap = np.abs(1.0 - u * x1) - np.abs(x2 - u * x3)
    return max(float(gap.min()), 0.0)


# Compass search budget of sup_on_closure: rounds, and starts per
# polynomial.
_REFINE_ITERS = 60
_TOP_K = 5
# Compass probe directions in the (theta, phi, r^2) parameters; the
# order breaks ties between equally good probes.
_COMPASS = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)


def _boundary_points(params: np.ndarray):
    """Distinguished-boundary points from unit-cube parameters."""
    theta = 2.0 * np.pi * params[..., 0]
    phi = 2.0 * np.pi * params[..., 1]
    r = np.sqrt(params[..., 2])
    x3 = np.exp(1j * theta)
    x2 = r * np.exp(1j * phi)
    return np.conj(x2) * x3, x2, x3


# Rows of a sample draw drawn, mapped and scored at a time.  A
# multiple of every SIMD width, so each point takes the same vector
# lane as in one pass over the whole draw and gets the same bits.
_CHUNK = 1024


def _chunk_sizes(n: int) -> list[int]:
    """Row counts of an n-row draw taken ``_CHUNK`` rows at a time.

    A last chunk of one row is joined to the one before it: numpy runs
    an in-place product of one-element arrays down its scalar reduction
    loop, which can round differently from the vector loop that the
    same row takes in one pass over the whole draw.
    """
    full, rest = divmod(n, _CHUNK)
    if rest == 1 and full:
        return [_CHUNK] * (full - 1) + [_CHUNK + 1]
    return [_CHUNK] * full + [rest] * (rest > 0)


def _sample_scores(p: Poly3, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Unit-cube parameters of ``seed``'s n-point draw and |p| at each.

    The draw is the ``random((n, 3))`` of
    :func:`sample_distinguished_boundary`, taken ``_CHUNK`` rows at a
    time (the generator fills its output in order, so the rows are the
    same), and each chunk is mapped to the boundary and scored before
    the next is drawn: a pass keeps 32 bytes per point, the (n, 3)
    parameters and the n values, plus one chunk's temporaries.
    """
    rng = np.random.default_rng(seed)
    params = np.empty((n, 3))
    vals = np.empty(n)
    start = 0
    for size in _chunk_sizes(n):
        rows = slice(start, start + size)
        rng.random(out=params[rows])
        vals[rows] = np.abs(eval_scalar_many(p, *_boundary_points(params[rows])))
        start += size
    return params, vals


def sup_on_closure(p: Poly3, *, n_samples: int = 4096, seed=None) -> float:
    """Estimate sup |p| over the closed domain.

    The modulus of a polynomial attains its sup over the closure on
    the distinguished boundary, so sampling is restricted there: the
    samples are :func:`sample_distinguished_boundary`'s ``n_samples``
    points for ``seed`` (one ``random((n, 3))`` draw).  The raw sample
    maximum is then improved by at most ``_REFINE_ITERS`` rounds of a
    compass pattern search started from the ``_TOP_K`` best samples.
    The result never drops below the raw sample maximum, and so never
    below the largest |p| over any prefix of the draw, which is how a
    caller bounds the estimate from below without running it.
    ``n_samples`` must be positive (no samples would give no estimate).

    The draw is scored ``_CHUNK`` rows at a time (:func:`_sample_scores`),
    so the pass keeps about 40 bytes per sample (parameters, values and
    their sort order) plus one chunk's temporaries, not every sample's.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    u, vals = _sample_scores(p, n_samples, seed)
    k = min(_TOP_K, n_samples)
    refined = _compass_refine(p, u[np.argsort(vals)[n_samples - k :]], _REFINE_ITERS)
    return float(np.maximum(vals.max(), refined.max()))


def _compass_refine(p: Poly3, current: np.ndarray, iters: int) -> np.ndarray:
    """Compass ascent of |p| from each row of ``current``; final values.

    ``current`` has shape (starts, 3) and is updated in place.  Each
    start probes +-step along each parameter axis, moves to its best
    probe when that improves, and halves its step when not.  The search
    stops once every step is below 1e-9.
    """
    k = len(current)
    fcur = np.abs(eval_scalar_many(p, *_boundary_points(current)))
    steps = np.full(k, 0.1)
    for _ in range(iters):
        if np.all(steps < 1e-9):
            break
        probes = current[:, None, :] + steps[:, None, None] * _COMPASS
        probes[..., 0] %= 1.0
        probes[..., 1] %= 1.0
        probes[..., 2] = np.clip(probes[..., 2], 0.0, 1.0)
        fp = np.abs(
            eval_scalar_many(p, *_boundary_points(probes.reshape(-1, 3)))
        ).reshape(k, 6)
        bidx = np.argmax(fp, axis=1)
        bval = fp[np.arange(k), bidx]
        gain = bval > fcur
        current[gain] = probes[np.arange(k), bidx][gain]
        fcur[gain] = bval[gain]
        steps[~gain] *= 0.5
    return fcur
