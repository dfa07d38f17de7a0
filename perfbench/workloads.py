"""The benchmark's workloads: inputs from a seed, one op, and its check.

One op is one user-visible verdict.  Every workload builds a pool of op
inputs from the workload seed during set-up, runs an op through the
package's public functions, and returns the op's verdict document as
bytes.  The correctness check reads only that document, so a doctored
document fails the check the same way a wrong computation would.

Library functions are looked up on their module at call time (for
example ``cli.main``), never bound at import,
so the tracer in ``tracer.py`` sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

# Op inputs are drawn for this many distinct ops and then reused in
# order; a run at the full size finishes fewer ops than this.
POOL = 16


def op_seeds(seed: int, n: int) -> list[int]:
    """Distinct, reproducible per-op seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# pipeline-d32: the `tetra counterexample` command.
# ---------------------------------------------------------------------------


def _pipeline_inputs(seed, tiny):
    trials = "2" if tiny else "50"
    return [
        ["counterexample", "--blocks", "32", "--trials", trials, "--seed", str(s)]
        for s in op_seeds(seed, POOL)
    ]


def _pipeline_run(argv) -> bytes:
    from tetrablock import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return _dumps({"exit_code": code, "stdout": buf.getvalue()})


def pipeline_problems(argv, out: bytes) -> list[str]:
    """Everything that is wrong with one counterexample verdict."""
    trials = int(argv[argv.index("--trials") + 1])
    try:
        wrapper = json.loads(out)
        doc = json.loads(wrapper["stdout"])
        checks = {
            "exit code 1": wrapper["exit_code"] == 1,
            "verdict Obstructed": doc["verdict"] == "Obstructed",
            "no failing stage": doc["failing_stage"] is None,
            "seed echoed": str(doc["seed"]) == argv[-1],
            "c1 == 0": doc["obstruction"]["c1"] == 0.0,
            "c2 == 1/16": doc["obstruction"]["c2"] == 0.0625,
            "products_max == 0": doc["products_max"] == 0.0,
            "a2_norm == 0": doc["fundamental"]["a2_norm"] == 0.0,
            "hypotheses passed": doc["hypotheses"]["passed"] is True,
            "falsify NoViolationFound": doc["falsify"]["outcome"]
            == "NoViolationFound",
            "falsify ran every trial": doc["falsify"]["trials_run"] == trials,
            "case inequalities passed": doc["case_inequalities"]["passed"]
            is True,
            "cf monotone": doc["cf_study"]["monotone"] is True,
            "cf above floor": doc["cf_study"]["above_floor"] is True,
            "cf final_ratio <= 1.02": doc["cf_study"]["final_ratio"] <= 1.02,
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed verdict document: {exc!r}"]
    return [name for name, ok in checks.items() if not ok]


def pipeline_quality(out: bytes) -> dict:
    doc = json.loads(json.loads(out)["stdout"])
    return {
        "cf_ratio": doc["cf_study"]["final_ratio"],
        "falsify_ratio": doc["falsify"]["worst_ratio"],
    }


# ---------------------------------------------------------------------------
# certify-small: the small-matrix checks of acceptance criteria 6-9.
# ---------------------------------------------------------------------------

CERTIFY_LIMITS = {
    "worst_unitary": 1e-9,
    "worst_interior": 1e-9,
    "worst_recovery": 1e-10,
    "worst_radius": 1.0 + 1e-6,
    "mismatches": 0,
    "worst_reconstruction": 1e-10,
}


@dataclass(frozen=True)
class CertifyInput:
    seed: int
    pairs: int
    points: int
    herm_sizes: tuple


def _certify_inputs(seed, pairs, points, herm_sizes):
    return [
        CertifyInput(seed=s, pairs=pairs, points=points, herm_sizes=herm_sizes)
        for s in op_seeds(seed, POOL)
    ]


def _model_checks(children) -> dict:
    from tetrablock import contractions, linalg, models

    worst = {"worst_unitary": 0.0, "worst_interior": 0.0, "worst_recovery": 0.0}
    worst_radius = 0.0
    zs = [0.0 + 0.0j] + [complex(np.exp(2j * np.pi * k / 35)) for k in range(35)]
    for i, child in enumerate(children):
        a1, a2 = models.random_symbol_pair(8, seed=child, diagonal=(i % 2 == 0))
        circ = models.build_circulant_model(a1, a2, 8)
        u = contractions.check_tetra_unitary(circ.as_triple())
        worst["worst_unitary"] = max(
            worst["worst_unitary"],
            u.commutation,
            u.unitary_defect,
            max(u.contraction_excess, 0.0),
            u.relation_1,
            u.relation_2,
            u.normality_1,
            u.normality_2,
        )
        hardy = models.build_hardy_model(a1, a2, 8)
        rep = models.interior_identity_report(hardy)
        worst["worst_interior"] = max(
            worst["worst_interior"],
            rep.defect_isometry,
            rep.defect_relation_1,
            rep.defect_relation_2,
        )
        rec = models.recover_fundamental(hardy)
        worst["worst_recovery"] = max(
            worst["worst_recovery"],
            linalg.op_norm(rec.g1 - a1),
            linalg.op_norm(rec.g2 - a2),
            rec.stray_1,
            rec.stray_2,
        )
        for z in zs:
            omega, _ = linalg.numerical_radius(a1 + z * a2, grid=360, refine=30)
            worst_radius = max(worst_radius, omega)
    worst["worst_radius"] = worst_radius
    return worst


def _membership_mismatches(rng, n_points) -> int:
    """Criterion 8's cross-oracle test on ``n_points`` drawn points."""
    from tetrablock import geometry

    mismatches = 0
    produced = 0
    while produced < n_points:
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
        inside = geometry.classify_point(x1, x2, x3).in_closure
        m = geometry.defining_abs_min(x1, x2, x3)
        if inside != (s < 1.0) or (m > 1e-5) != inside:
            mismatches += 1
    return mismatches


def _worst_reconstruction(rng, sizes) -> float:
    from tetrablock import linalg

    worst = 0.0
    for n in sizes:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        for backend in ("lapack", "jacobi"):
            eig = linalg.herm_eig(h, backend=backend)
            recon = linalg.op_norm(
                eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T - h
            )
            worst = max(worst, recon)
    return float(worst)


def _certify_run(inp: CertifyInput) -> bytes:
    models_ss, points_ss, herm_ss = np.random.SeedSequence(inp.seed).spawn(3)
    doc = _model_checks(models_ss.spawn(inp.pairs))
    doc["membership_points"] = inp.points
    doc["mismatches"] = _membership_mismatches(
        np.random.default_rng(points_ss), inp.points
    )
    doc["worst_reconstruction"] = _worst_reconstruction(
        np.random.default_rng(herm_ss), inp.herm_sizes
    )
    return _dumps(doc)


def certify_problems(inp: CertifyInput, out: bytes) -> list[str]:
    try:
        doc = json.loads(out)
        problems = [
            f"{key} {doc[key]!r} above {limit!r}"
            for key, limit in CERTIFY_LIMITS.items()
            if not doc[key] <= limit
        ]
        if doc["membership_points"] != inp.points:
            problems.append("wrong membership point count")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed verdict document: {exc!r}"]
    return problems


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One workload: how to draw inputs, run an op and judge its output.

    ``expected_calls`` names the traced functions every op of this
    workload reaches; the traced run fails if one of them is never
    called, which is how a function that stops being measured shows.
    """

    name: str
    why: str
    make_inputs: object
    run: object
    problems: object
    quality: object
    expected_calls: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-d32",
            why="counterexample at dim 256 with 50 trials; operator evaluation "
            "and its norms do the work",
            make_inputs=_pipeline_inputs,
            run=_pipeline_run,
            problems=pipeline_problems,
            quality=pipeline_quality,
            expected_calls=(
                "cli.main",
                "counterexample.run_pipeline",
                "counterexample.build_witness",
                "counterexample.case_inequality_check",
                "counterexample.cf_convergence_study",
                "counterexample.pipeline_report_to_json",
                "contractions.falsify_spectral_set",
                "contractions.violation_certificate",
                "contractions.extract_fundamental",
                "contractions.check_obstruction_hypotheses",
                "contractions.dilation_obstruction",
                "contractions.commutation_defect",
                "poly3.eval_operator",
                "poly3.eval_scalar_many",
                "poly3.random_poly",
                "poly3.cf_empirical_inf",
                "geometry.sup_on_closure",
                "linalg.op_norm",
                "linalg.herm_eig",
                "linalg.sqrt_psd",
            ),
        ),
        Workload(
            name="certify-small",
            why="small-matrix checks of criteria 6-9; numerical radius, "
            "membership oracles, eigensolvers and models never run in the "
            "pipeline",
            make_inputs=lambda seed, tiny: (
                _certify_inputs(seed, 2, 50, (2, 4, 8))
                if tiny
                else _certify_inputs(seed, 20, 1000, (2, 4, 8, 16, 32, 64))
            ),
            run=_certify_run,
            problems=certify_problems,
            quality=lambda out: {},
            expected_calls=(
                "models.random_symbol_pair",
                "models.build_hardy_model",
                "models.build_circulant_model",
                "models.interior_identity_report",
                "models.recover_fundamental",
                "contractions.check_tetra_unitary",
                "contractions.commutation_defect",
                "linalg.numerical_radius",
                "linalg.herm_eig",
                "linalg.op_norm",
                "geometry.classify_point",
                "geometry.defining_abs_min",
            ),
        ),
    )
}
