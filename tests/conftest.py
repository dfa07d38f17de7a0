"""Shared fixtures and matrix generators for the test suite."""

import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / 2.0


def power_table_eval_operator(p, basis):
    # Reference operator evaluation: fresh power tables on every call and
    # every monomial multiplied out, exact zeros included.  Only the
    # basis's matrices are read, never its memo.
    t1, t2, t3 = basis.mats
    n = t1.shape[0]
    acc = np.zeros((n, n), dtype=np.complex128)
    if not p.coeffs:
        return acc
    d1 = max(exp[0] for exp in p.coeffs)
    d2 = max(exp[1] for exp in p.coeffs)
    d3 = max(exp[2] for exp in p.coeffs)
    eye = np.eye(n, dtype=np.complex128)

    def powers(m, d):
        out = [eye]
        for _ in range(d):
            out.append(out[-1] @ m)
        return out

    pow1 = powers(t1, d1)
    pow2 = powers(t2, d2)
    pow3 = powers(t3, d3)
    for (m1, m2, m3), c in p.coeffs.items():
        acc += c * (pow1[m1] @ pow2[m2] @ pow3[m3])
    return acc


def dense_witness(depth, tol=1e-9):
    # Reference witness: its three dim x dim matrices written out whole,
    # so that its parts are found by Triple.parts, not given.
    from tetrablock import Triple, witness_symbol

    cell = 2 * depth
    dim = 4 * cell
    t1 = np.zeros((dim, dim), dtype=np.complex128)
    t1[2 * cell : 2 * cell + 2, 2 * cell : 2 * cell + 2] = witness_symbol()
    t2 = np.zeros((dim, dim), dtype=np.complex128)
    t3 = np.zeros((dim, dim), dtype=np.complex128)
    t3[2 * cell : 3 * cell, cell : 2 * cell] = np.kron(
        np.eye(depth, k=-1), np.eye(2)
    )
    t3[3 * cell :, :cell] = np.eye(cell)
    return Triple(t1=t1, t2=t2, t3=t3, tol=tol)


def dense_built(t):
    # The same triple built from its dense matrices, so that its parts
    # are found by diagonal_blocks + distinct_blocks.
    from tetrablock import Triple

    return Triple(t1=t.t1, t2=t.t2, t3=t.t3, tol=t.tol)


def use_dense_witness(monkeypatch, build=lambda w: dense_built(w.triple)):
    # Make run_pipeline run on the witness's triple as ``build(w)``
    # gives it, in place of the direct sum build_witness states.
    import dataclasses

    from tetrablock import counterexample

    real = counterexample.build_witness

    def built(depth, *, tol=1e-9):
        w = real(depth, tol=tol)
        return dataclasses.replace(w, triple=build(w))

    monkeypatch.setattr(counterexample, "build_witness", built)


def frontier_components(adj):
    # Reference partitioner: per-component frontier scan over a dense
    # symmetric boolean adjacency matrix, O(n) numpy work per component.
    label = np.full(adj.shape[0], -1)
    blocks = []
    for start in range(adj.shape[0]):
        if label[start] >= 0:
            continue
        label[start] = len(blocks)
        frontier = np.array([start])
        while frontier.size:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(blocks)
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


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


def horner_eval_scalar(p, x1, x2, x3):
    # Reference scalar evaluation at one point: sparse Horner, nested in
    # x1, then x2, then x3.
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


def single_eval_scalar_many(p, x1, x2, x3):
    # Reference scalar evaluation of one polynomial, term by term in
    # p.coeffs order on cumulative power tables.
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


def per_trial_sup_on_closure(p, *, n_samples=4096, seed=None, refine_iters=60, top_k=5):
    # Reference sup estimate: one polynomial at a time, with its own
    # compass refinement loop that stops once every step is below 1e-9.
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, 3))

    def points(params):
        theta = 2.0 * np.pi * params[..., 0]
        phi = 2.0 * np.pi * params[..., 1]
        r = np.sqrt(params[..., 2])
        x3 = np.exp(1j * theta)
        x2 = r * np.exp(1j * phi)
        return np.conj(x2) * x3, x2, x3

    vals = np.abs(single_eval_scalar_many(p, *points(u)))
    raw = float(vals.max()) if n_samples else 0.0
    if refine_iters <= 0 or n_samples == 0:
        return raw

    k = min(top_k, n_samples)
    current = u[np.argsort(vals)[-k:]].copy()
    fcur = np.abs(single_eval_scalar_many(p, *points(current)))
    steps = np.full(k, 0.1)
    offsets = np.zeros((6, 3))
    for j in range(3):
        offsets[2 * j, j] = 1.0
        offsets[2 * j + 1, j] = -1.0

    for _ in range(refine_iters):
        if np.all(steps < 1e-9):
            break
        probes = current[:, None, :] + steps[:, None, None] * offsets[None, :, :]
        probes[..., 0] %= 1.0
        probes[..., 1] %= 1.0
        probes[..., 2] = np.clip(probes[..., 2], 0.0, 1.0)
        fp = np.abs(
            single_eval_scalar_many(p, *points(probes.reshape(-1, 3)))
        ).reshape(k, 6)
        bidx = np.argmax(fp, axis=1)
        bval = fp[np.arange(k), bidx]
        gain = bval > fcur
        current[gain] = probes[np.arange(k), bidx][gain]
        fcur[gain] = bval[gain]
        steps[~gain] *= 0.5
    return max(raw, float(fcur.max()))


def whole_case_inequality_check(n_samples, *, seed=None, tol=1e-12):
    # Reference case-inequality sampler: the whole draw at once, one
    # array of margins; returns the worst margin and the violations.
    from tetrablock.counterexample import _lower_norm

    a = 2.0 * np.random.default_rng(seed).random((n_samples, 3))
    a0, a1, a3 = a[:, 0], a[:, 1], a[:, 2]
    lhs_norm = _lower_norm(a0, a3, a0 + a1 / 4.0)
    rhs_norm = _lower_norm(a0, np.where(a0 <= a1, a1 + a3, a0 + a3), a0)
    margins = rhs_norm - lhs_norm
    return float(margins.min()), int((margins < -tol).sum())


def bracket_numerical_radius(t, *, grid=720, refine=40):
    # Reference numerical radius: a scan over all grid angles, then
    # rounds of 9-point bracket shrinking around the best angle.
    t = np.asarray(t, dtype=np.complex128)
    if t.shape[0] == 0:
        return 0.0, 0.0

    def tops(thetas):
        z = np.exp(1j * thetas)
        stack = 0.5 * (
            z[:, None, None] * t[None, :, :]
            + np.conj(z)[:, None, None] * t.conj().T[None, :, :]
        )
        return np.linalg.eigvalsh(stack)[:, -1]

    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = tops(thetas)
    k = int(np.argmax(vals))
    best_val = float(vals[k])
    best_theta = float(thetas[k])
    width = 2.0 * np.pi / grid
    center = best_theta
    for _ in range(refine):
        if width < 1e-13:
            break
        local = np.linspace(center - width, center + width, 9)
        vals = tops(local)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_theta = float(local[j]) % (2.0 * np.pi)
        center = float(local[j])
        width *= 0.25
    return best_val, best_theta


def full_scan_numerical_radius(t, *, grid=720, refine=40):
    # Reference numerical radius: one eigvalsh over all grid / 2
    # half-circle angles, then the library's Newton refinement, written
    # out unchanged, both on T scaled by a power of two as the library
    # scales it.  The pruned scan must give the same bits.
    from tetrablock.linalg import _FLAT_CURVE, _FLAT_SLOPE, as_matrix

    t = as_matrix(t, square=True)
    big = float(np.abs(t).max()) if t.shape[0] else 0.0
    if big == 0.0:
        return 0.0, 0.0
    scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
    t = t / scale
    a = 0.5 * (t + t.conj().T)
    b = 0.5j * (t - t.conj().T)
    thetas = 2.0 * np.pi * np.arange(grid // 2) / grid
    ends = np.linalg.eigvalsh(
        np.cos(thetas)[:, None, None] * a + np.sin(thetas)[:, None, None] * b
    )
    tops = np.concatenate([ends[:, -1], -ends[:, 0]])
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
        size = max(abs(lam), abs(float(vals[0])))
        flat = abs(slope) <= _FLAT_SLOPE * len(vals) * size
        if flat and not curve > _FLAT_CURVE * size:
            break
        theta = theta + step if lo < theta + step < hi else 0.5 * (lo + hi)
    best_theta %= 2.0 * np.pi
    if best_theta == 2.0 * np.pi:
        best_theta = 0.0
    return best_val * scale, best_theta


def cyclic_jacobi_eigh(h):
    # Reference Jacobi: the cyclic row-by-row ordering, one rotation at a
    # time, with the same rotation formula, threshold skip, stopping
    # test and sort as the round-robin solver.
    from tetrablock.errors import NoConvergenceError
    from tetrablock.linalg import JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL

    n = h.shape[0]
    a = np.array(h, dtype=np.complex128)
    v = np.eye(n, dtype=np.complex128)
    fro = np.linalg.norm(a)
    if fro == 0.0 or n < 2:
        values = np.zeros(n) if fro == 0.0 else a.diagonal().real.copy()
        return values, v

    def off(m):
        return float(np.linalg.norm(m - np.diag(m.diagonal())))

    target = JACOBI_OFF_TOL * fro
    for _ in range(JACOBI_MAX_SWEEPS):
        if off(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                b = abs(beta)
                if b <= target / (n * n):
                    continue
                phase = beta / b
                tau = (a[q, q].real - a[p, p].real) / (2.0 * b)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = c * phase * a[:, p] - s * a[:, q]
                col_q = s * phase * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = c * np.conj(phase) * a[p, :] - s * a[q, :]
                row_q = s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = c * phase * v[:, p] - s * v[:, q]
                vcol_q = s * phase * v[:, p] + c * v[:, q]
                v[:, p] = vcol_p
                v[:, q] = vcol_q
    else:
        if off(a) > target:
            raise NoConvergenceError("cyclic Jacobi sweeps exhausted")

    values = a.diagonal().real.copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def compass_defining_abs_min(x1, x2, x3, *, grid=24, refine_iters=60):
    # Reference defining-function minimum: polar grid scan, then a
    # 4-start compass search on numpy scalars with a copied probe array.
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    nr = max(2, grid // 4 + 1)
    radii = np.linspace(0.0, 1.0, nr)
    angles = 2.0 * np.pi * np.arange(grid) / grid
    disk = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()

    def gap(z):
        return np.abs(1.0 - z * x1) - np.abs(x2 - z * x3)

    vals = gap(disk)
    order = np.argsort(vals)
    best = float(vals[order[0]])
    for idx in order[:4]:
        z0 = disk[idx]
        p = np.array([abs(z0), (np.angle(z0) / (2.0 * np.pi)) % 1.0])
        cur = float(gap(z0))
        step = 0.25
        for _ in range(refine_iters):
            if step < 1e-9:
                break
            improved = False
            for j in range(2):
                for sign in (1.0, -1.0):
                    q = p.copy()
                    q[j] += sign * step
                    if j == 0:
                        q[j] = min(1.0, max(0.0, q[j]))
                    else:
                        q[j] %= 1.0
                    val = float(gap(q[0] * np.exp(2j * np.pi * q[1])))
                    if val < cur:
                        cur = val
                        p = q
                        improved = True
            if not improved:
                step *= 0.5
        best = min(best, cur)
        if best <= 0.0:
            break
    return max(best, 0.0)


def lstsq_lawson_fits(b0, b1, top, *, grid=512, steps=300):
    # Reference minimal-extension fits: for each degree 2..top on its
    # own, Lawson's iteration with one least-squares solve per step.
    # Returns the per-degree coefficient rows, lowest power first.
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    target = b0 + b1 * z
    fits = []
    for degree in range(2, top + 1):
        basis = z[:, None] ** np.arange(2, degree + 1)
        w = np.full(grid, 1.0 / grid)
        for _ in range(steps):
            sw = np.sqrt(w)
            c = np.linalg.lstsq(sw[:, None] * basis, -sw * target, rcond=None)[0]
            w = w * np.abs(target + basis @ c)
            w /= w.sum()
        fits.append(np.concatenate([[b0, b1], c]))
    return fits
