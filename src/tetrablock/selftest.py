"""Acceptance suite: nine numbered criteria, each a pass/fail check.

Every criterion is a standalone function returning a CriterionResult,
so the suite can run from the command line (``tetra selftest``), from
pytest, or interactively one criterion at a time.  Tolerances are
pinned here and nowhere else; the library itself never reads them.
All randomness is seeded inside each criterion, so a run is
reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from .contractions import falsify_spectral_set
from .counterexample import (
    build_witness,
    case_inequality_check,
    cf_convergence_study,
    witness_symbol,
)
from .geometry import (
    classify_point,
    defining_abs_min,
    sample_distinguished_boundary,
)
from .linalg import herm_eig, numerical_radius, op_norm
from .models import (
    build_circulant_model,
    build_hardy_model,
    interior_identity_report,
    random_symbol_pair,
    recover_fundamental,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "format_result"]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    key: str
    description: str
    passed: bool
    elapsed: float
    details: dict


def _finish(key, description, t0, checks, **extra) -> CriterionResult:
    details = dict(extra)
    details["checks"] = checks
    return CriterionResult(
        key=key,
        description=description,
        passed=all(checks.values()),
        elapsed=time.perf_counter() - t0,
        details=details,
    )


def criterion_1() -> CriterionResult:
    """Counterexample verdict through the command line at four blocks."""
    from .cli import main

    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["counterexample", "--blocks", "4"])
    doc = json.loads(buf.getvalue())
    elapsed = time.perf_counter() - t0
    checks = {
        "exit_code_1": code == 1,
        "a2_zero": doc["fundamental"]["a2_norm"] <= 1e-12,
        "c1_zero": doc["obstruction"]["c1"] <= 1e-12,
        "c2_dyadic": abs(doc["obstruction"]["c2"] - 0.0625) <= 1e-10,
        "hypotheses_pass": doc["hypotheses"]["passed"] is True,
        "verdict_obstructed": doc["verdict"] == "Obstructed",
        "under_5s": elapsed < 5.0,
    }
    return _finish(
        "1",
        "counterexample verdict at 4 blocks",
        t0,
        checks,
        c2=doc["obstruction"]["c2"],
        runtime=elapsed,
    )


def criterion_2() -> CriterionResult:
    """No sup-norm violation on the witness in 200 degree-3 trials."""
    t0 = time.perf_counter()
    w = build_witness(8)
    report = falsify_spectral_set(w.triple, trials=200, degree=3, seed=20250801)
    elapsed = time.perf_counter() - t0
    checks = {
        "no_violation": report.outcome == "NoViolationFound",
        "all_trials_ran": report.trials_run == 200,
        "under_60s": elapsed < 60.0,
    }
    return _finish(
        "2",
        "witness passes 200 random sup-norm trials at depth 8",
        t0,
        checks,
        worst_ratio=report.worst_ratio,
        runtime=elapsed,
    )


def criterion_3() -> CriterionResult:
    """Exact constants of the witness block and its products."""
    t0 = time.perf_counter()
    f1 = witness_symbol()
    w = build_witness(4)
    t = w.triple
    ops = {"1": t.t1, "2": t.t2, "3": t.t3}
    product_max = max(
        op_norm(ops[i] @ ops[j]) for i in ops for j in ops
    )
    omega, _ = numerical_radius(f1)
    checks = {
        "block_norm": abs(op_norm(t.t1) - 0.25) <= 1e-12,
        "cell_norm": abs(op_norm(f1) - 0.25) <= 1e-12,
        "cell_square_exact_zero": bool(np.all(f1 @ f1 == 0)),
        "cell_numerical_radius": abs(omega - 0.125) <= 1e-6,
        "products_exact_zero": product_max == 0.0,
    }
    return _finish(
        "3",
        "witness constants: norm 1/4, nilpotency, radius 1/8, zero products",
        t0,
        checks,
        numerical_radius=omega,
        product_max=product_max,
    )


def criterion_4() -> CriterionResult:
    """The two-case triangular norm comparisons, proved exactly."""
    t0 = time.perf_counter()
    report = case_inequality_check()
    return _finish(
        "4",
        "case inequalities: their identities hold exactly at 27 points",
        t0,
        {"passed": report.passed},
    )


def criterion_5() -> CriterionResult:
    """Empirical minimal completions converge onto the matrix norm.

    Runs :func:`cf_convergence_study` on 20 pairs from its calibrated
    distribution, one child of ``SeedSequence(1729)`` each, at degrees
    0, 2, 4 and 8.  The values are a running minimum over degrees, so
    they are monotone by construction; the floor and the 2% ratio are
    what this criterion measures.  Each value bounds a fitted
    polynomial's circle sup from above, so the 2% check holds for that
    polynomial; the floor holds in exact arithmetic and tests rounding.
    """
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_floor = np.inf
    all_monotone = True
    for child in np.random.SeedSequence(1729).spawn(20):
        rep = cf_convergence_study(seed=child)
        all_monotone &= rep.monotone
        worst_ratio = max(worst_ratio, rep.final_ratio)
        worst_floor = min(worst_floor, rep.values[-1] - rep.matrix_norm)
    checks = {
        "above_floor": worst_floor >= -1e-6,
        "within_2_percent": worst_ratio <= 1.02,
        "monotone": all_monotone,
    }
    return _finish(
        "5",
        "minimal completions within [norm - 1e-6, 1.02 norm], monotone",
        t0,
        checks,
        worst_ratio=worst_ratio,
        worst_floor=worst_floor,
    )


def _model_pairs(depth: int):
    """The 20 symbol pairs used by criteria 6 and 7: half diagonal."""
    children = np.random.SeedSequence(808).spawn(20)
    for i, child in enumerate(children):
        yield random_symbol_pair(depth, seed=child, diagonal=(i % 2 == 0))


def criterion_6() -> CriterionResult:
    """Model round trip for 20 validated symbol pairs at depth 8."""
    t0 = time.perf_counter()
    from .contractions import check_tetra_unitary

    worst_unitary = 0.0
    worst_interior = 0.0
    worst_recovery = 0.0
    for a1, a2 in _model_pairs(8):
        circ = build_circulant_model(a1, a2, 8)
        u = check_tetra_unitary(circ)
        worst_unitary = max(
            worst_unitary,
            u.commutation,
            u.unitary_defect,
            max(u.contraction_excess, 0.0),
            u.relation_1,
            u.relation_2,
            u.normality_1,
            u.normality_2,
        )
        hardy = build_hardy_model(a1, a2, 8)
        rep = interior_identity_report(hardy)
        worst_interior = max(
            worst_interior,
            rep.defect_isometry,
            rep.defect_relation_1,
            rep.defect_relation_2,
        )
        rec = recover_fundamental(hardy)
        worst_recovery = max(
            worst_recovery,
            op_norm(rec.g1 - a1),
            op_norm(rec.g2 - a2),
            rec.stray_1,
            rec.stray_2,
        )
    checks = {
        "cyclic_model_boundary_triple": worst_unitary <= 1e-9,
        "shift_model_interior_identities": worst_interior <= 1e-9,
        "symbols_recovered": worst_recovery <= 1e-10,
    }
    return _finish(
        "6",
        "model round trip for 20 symbol pairs at depth 8",
        t0,
        checks,
        worst_unitary=worst_unitary,
        worst_interior=worst_interior,
        worst_recovery=worst_recovery,
    )


def criterion_7() -> CriterionResult:
    """Pencil numerical radius at most one across sampled angles."""
    t0 = time.perf_counter()
    zs = [0.0 + 0.0j] + [
        complex(np.exp(2j * np.pi * k / 35)) for k in range(35)
    ]
    worst = 0.0
    pairs = list(_model_pairs(8))
    pairs.append((witness_symbol(), np.zeros((2, 2), dtype=np.complex128)))
    for a1, a2 in pairs:
        for z in zs:
            omega, _ = numerical_radius(a1 + z * a2, grid=360, refine=30)
            worst = max(worst, omega)
    checks = {"pencil_radius_bounded": worst <= 1.0 + 1e-6}
    return _finish(
        "7",
        "pencil numerical radius at most 1 + 1e-6 at 36 angles",
        t0,
        checks,
        worst_radius=worst,
    )


def criterion_8() -> CriterionResult:
    """Geometry oracles agree; boundary identities; slice membership."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(88))

    mismatches = 0
    strict_calls = 0
    produced = 0
    while produced < 1000:
        u = rng.random(5)
        s = 1.5 * rng.random()
        b1 = u[0] * np.exp(2j * np.pi * u[1])
        b2 = u[2] * np.exp(2j * np.pi * u[3])
        tot = abs(b1) + abs(b2)
        if tot < 1e-12:
            continue
        produced += 1
        b1, b2 = b1 * s / tot, b2 * s / tot
        x3 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * u[4])
        x1 = b1 + np.conj(b2) * x3
        x2 = b2 + np.conj(b1) * x3
        if abs(s - 1.0) < 0.02:
            continue
        strict_calls += 1
        inside = classify_point(x1, x2, x3).in_closure
        m = defining_abs_min(x1, x2, x3)
        # Measured floors of the closed-form minimum: strict insiders
        # stay above 3.4e-3 on this seed and above 2.2e-3 on the
        # certify-small benchmark's draws (workload seeds 1-10, 156k
        # points); strict outsiders return exactly zero.  So 1e-5
        # splits with wide slack.
        if inside != (s < 1.0) or (m > 1e-5) != inside:
            mismatches += 1

    bx1, bx2, bx3 = sample_distinguished_boundary(500, seed=880)
    boundary_defect = float(np.abs(bx1 - np.conj(bx2) * bx3).max())

    slice_ok = True
    for k in range(100):
        r = 1.0 if k % 2 == 0 else np.sqrt(rng.random())
        x = r * np.exp(2j * np.pi * rng.random())
        slice_ok &= classify_point(x, 1.0, x).in_closure

    checks = {
        "cross_oracle_agreement": mismatches == 0,
        "boundary_identity": boundary_defect <= 1e-12,
        "slice_in_closure": slice_ok,
    }
    return _finish(
        "8",
        "membership oracles agree; boundary and slice identities hold",
        t0,
        checks,
        strict_calls=strict_calls,
        boundary_defect=boundary_defect,
    )


def criterion_9() -> CriterionResult:
    """Eigensolver quality, radius sandwich, rotation positivity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(99))

    worst_recon = 0.0
    for n in (2, 4, 8, 16, 32, 64):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        for backend in ("lapack", "jacobi"):
            eig = herm_eig(h, backend=backend)
            recon = op_norm(
                eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T - h
            )
            worst_recon = max(worst_recon, recon)

    sandwich_ok = True
    worst_gap = 0.0
    for _ in range(100):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = float(np.abs(np.linalg.eigvals(g)).max())
        omega, _ = numerical_radius(g, grid=360, refine=30)
        norm = op_norm(g)
        gaps = (omega - r, norm - omega, 2.0 * omega - norm)
        worst_gap = min(worst_gap, *gaps)
        sandwich_ok &= all(gap >= -1e-8 for gap in gaps)

    rotation_ok = True
    # All 180 rotations of a matrix go through one batched eigvalsh call.
    angles = 2.0 * np.pi * np.arange(180) / 180
    z = np.exp(1j * angles)[:, None, None]
    for _ in range(100):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        omega, _ = numerical_radius(g)
        g = g / omega
        omega, theta = numerical_radius(g)
        # Scaled to radius one: every rotation of 2I - 2 Re is PSD.
        min_eig = float(
            np.linalg.eigvalsh(
                2.0 * np.eye(5) - z * g - np.conj(z) * g.conj().T
            )[:, 0].min()
        )
        rotation_ok &= min_eig >= -1e-8
        # Pushed two percent past radius one, PSD fails at the
        # extremal angle found by the radius computation.
        gg = 1.02 * g
        bad = float(
            np.linalg.eigvalsh(
                2.0 * np.eye(5)
                - np.exp(1j * theta) * gg
                - np.exp(-1j * theta) * gg.conj().T
            )[0]
        )
        rotation_ok &= bad <= -0.02

    checks = {
        "eigensolver_reconstruction": worst_recon <= 1e-10,
        "radius_sandwich": sandwich_ok,
        "rotation_positivity": rotation_ok,
    }
    return _finish(
        "9",
        "eigensolver, radius sandwich, rotation positivity",
        t0,
        checks,
        worst_reconstruction=worst_recon,
        worst_sandwich_gap=worst_gap,
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list[CriterionResult]:
    """Run all nine criteria in order."""
    return [fn() for fn in CRITERIA]


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (
        f"ACCEPTANCE {result.key}: {status} - "
        f"{result.description} ({result.elapsed:.2f}s)"
    )
