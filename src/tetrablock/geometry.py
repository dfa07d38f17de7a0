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

from dataclasses import dataclass

import numpy as np

from .poly3 import Poly3, eval_scalar_many

__all__ = [
    "MembershipReport",
    "classify_point",
    "point_to_json",
    "point_from_json",
    "on_distinguished_boundary",
    "boundary_point",
    "sample_distinguished_boundary",
    "defining_abs_min",
    "sup_on_closure",
]


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the closed-form membership test.

    ``beta`` is the parameter pair when one exists (None otherwise);
    ``beta_sum`` is |b1| + |b2|; ``residual`` is the reconstruction
    error of (x1, x2) from beta, which is zero up to rounding whenever
    the solve is well posed.  ``consistency`` is only meaningful on the
    |x3| = 1 face, where membership requires x1 = conj(x2) * x3.
    """

    in_closure: bool
    distinguished: bool
    x3_abs: float
    beta: tuple[complex, complex] | None
    beta_sum: float
    residual: float
    consistency: float


def point_to_json(x1: complex, x2: complex, x3: complex) -> dict:
    """Serialize a point to ``{"x1": [re, im], ...}``."""
    return {
        "x1": [float(complex(x1).real), float(complex(x1).imag)],
        "x2": [float(complex(x2).real), float(complex(x2).imag)],
        "x3": [float(complex(x3).real), float(complex(x3).imag)],
    }


def point_from_json(obj: dict) -> tuple[complex, complex, complex]:
    """Inverse of :func:`point_to_json`."""
    out = []
    for key in ("x1", "x2", "x3"):
        re, im = obj[key]
        out.append(complex(re, im))
    return tuple(out)


def classify_point(
    x1: complex, x2: complex, x3: complex, *, tol: float = 1e-9
) -> MembershipReport:
    """Membership test via the closed-form parameter pair.

    For |x3| < 1 the defining system has the unique solution

        b1 = (x1 - x3 * conj(x2)) / (1 - |x3|^2),
        b2 = (x2 - x3 * conj(x1)) / (1 - |x3|^2),

    and the point is in the closed domain iff |b1| + |b2| <= 1.  On the
    face |x3| = 1 membership forces x1 = conj(x2) * x3, and then holds
    iff |x2| <= 1, which is exactly the distinguished boundary.
    """
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    a3 = abs(x3)
    if a3 > 1.0 + tol:
        return MembershipReport(
            in_closure=False,
            distinguished=False,
            x3_abs=a3,
            beta=None,
            beta_sum=float("inf"),
            residual=0.0,
            consistency=abs(x1 - np.conj(x2) * x3),
        )
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
            consistency=abs(x1 - np.conj(x2) * x3),
        )
    # |x3| = 1 within tolerance: degenerate face.
    consistency = abs(x1 - np.conj(x2) * x3)
    if consistency > tol:
        return MembershipReport(
            in_closure=False,
            distinguished=False,
            x3_abs=a3,
            beta=None,
            beta_sum=float("inf"),
            residual=0.0,
            consistency=float(consistency),
        )
    ok = abs(x2) <= 1.0 + tol
    beta = (0.0 + 0.0j, complex(x2)) if ok else None
    return MembershipReport(
        in_closure=bool(ok),
        distinguished=bool(ok),
        x3_abs=a3,
        beta=beta,
        beta_sum=float(abs(x2)) if ok else float("inf"),
        residual=0.0,
        consistency=float(consistency),
    )


def on_distinguished_boundary(
    x1: complex, x2: complex, x3: complex, *, tol: float = 1e-9
) -> bool:
    """True when the point satisfies the three boundary identities."""
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    return (
        abs(abs(x3) - 1.0) <= tol
        and abs(x1 - np.conj(x2) * x3) <= tol
        and abs(x2) <= 1.0 + tol
    )


def boundary_point(theta: float, phi: float, radius: float) -> tuple[complex, complex, complex]:
    """Distinguished-boundary point from angle/radius coordinates.

    ``x3 = exp(i theta)``, ``x2 = radius * exp(i phi)`` with
    0 <= radius <= 1, and ``x1 = conj(x2) * x3``.
    """
    if not 0.0 <= radius <= 1.0:
        raise ValueError("radius must lie in [0, 1]")
    x3 = complex(np.exp(1j * theta))
    x2 = complex(radius * np.exp(1j * phi))
    x1 = complex(np.conj(x2) * x3)
    return x1, x2, x3


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


def sup_on_closure(
    p,
    *,
    n_samples: int = 4096,
    seed=None,
    refine_iters: int = 60,
    top_k: int = 5,
):
    """Estimate sup |p| over the closed domain.

    The modulus of a polynomial attains its sup over the closure on
    the distinguished boundary, so sampling is restricted there.  The
    raw sample maximum (one ``random((n, 3))`` draw, hence monotone in
    ``n_samples`` for a fixed seed when ``refine_iters=0``) is then
    improved by a compass pattern search started from the ``top_k``
    best samples.  The result never drops below the raw sample maximum.
    ``n_samples`` must be positive: no samples would give no estimate.

    ``p`` is one polynomial, which returns a float, or a sequence of
    polynomials with ``seed`` a matching sequence, which returns an
    array of the same estimates.  A single polynomial runs as a batch
    of one.  Each polynomial's samples are drawn from its own seed and
    evaluated on their own, so memory does not grow with the batch;
    the refinement then runs once over all polynomials x ``top_k``
    starts.  A polynomial whose steps have all dropped below 1e-9 is
    frozen by a mask, exactly where its own search would stop, so each
    estimate is bit for bit the one its polynomial gets alone.
    """
    single = isinstance(p, Poly3)
    polys = [p] if single else list(p)
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(polys):
        raise ValueError(
            f"need one seed per polynomial, got {len(seeds)} for {len(polys)}"
        )
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if top_k < 1:
        raise ValueError("top_k must be positive")
    k = min(top_k, n_samples)
    raw = np.empty(len(polys))
    starts = np.empty((len(polys), k, 3))
    for b, (q, s) in enumerate(zip(polys, seeds)):
        u = np.random.default_rng(s).random((n_samples, 3))
        vals = np.abs(eval_scalar_many([q], *_boundary_points(u[None])))[0]
        raw[b] = vals.max()
        starts[b] = u[np.argsort(vals)[n_samples - k :]]
    sups = raw
    if refine_iters > 0:
        refined = _compass_refine(polys, starts, refine_iters)
        sups = np.maximum(raw, refined.max(axis=1))
    return float(sups[0]) if single else sups


def _compass_refine(polys, current: np.ndarray, iters: int) -> np.ndarray:
    """Batched compass ascent of |p_b| from ``current[b]``; final values.

    ``current`` has shape (polynomials, starts, 3) and is updated in
    place.  Each start probes +-step along each parameter axis, moves
    to its best probe when that improves, and halves its step when not.
    """
    batch, k, _ = current.shape
    fcur = np.abs(eval_scalar_many(polys, *_boundary_points(current)))
    steps = np.full((batch, k), 0.1)
    live = np.ones(batch, dtype=bool)
    for _ in range(iters):
        live &= ~np.all(steps < 1e-9, axis=1)
        if not live.any():
            break
        probes = current[:, :, None, :] + steps[:, :, None, None] * _COMPASS
        probes[..., 0] %= 1.0
        probes[..., 1] %= 1.0
        probes[..., 2] = np.clip(probes[..., 2], 0.0, 1.0)
        fp = np.abs(
            eval_scalar_many(polys, *_boundary_points(probes.reshape(batch, -1, 3)))
        ).reshape(batch, k, 6)
        bidx = np.argmax(fp, axis=2)
        bval = np.take_along_axis(fp, bidx[..., None], axis=2)[..., 0]
        gain = (bval > fcur) & live[:, None]
        best = np.take_along_axis(probes, bidx[..., None, None], axis=2)[:, :, 0]
        current[gain] = best[gain]
        fcur[gain] = bval[gain]
        steps[~gain & live[:, None]] *= 0.5
    return fcur
