"""A finite triple whose fundamental pair defeats boundary dilation.

The construction lives on four copies of a depth-N block space: the
third operator shifts the second copy into the third and the first
copy into the fourth, the second operator is zero, and the first
operator carries a single nilpotent cell on the third copy.  Every
pairwise product of the three operators vanishes identically, the
structured equations for the fundamental pair are exactly solvable,
and the pair comes out as (nilpotent cell, 0).  The second commutator
invariant of that pair equals the self-commutator norm of the cell,
1/16, which is far above any rounding floor, so the obstruction
predicate fires while a randomized sweep confirms the scalar sup-norm
inequality itself holds on the same triple.

At any finite depth the kernel/range hypotheses hold relative to a
two-dimensional truncation boundary, the final cell of the shifted
copy; the builder returns its coordinates so the hypothesis check can
run in interior mode.  (In exact arithmetic no finite-dimensional
triple satisfies the strict hypotheses with a nonzero invariant: the
strict versions force the shift to a unitary pairing of the halves,
which makes the first operator normal and kills the invariant.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .contractions import (
    FalsifyReport,
    FundamentalPair,
    HypothesisReport,
    ObstructionReport,
    Triple,
    check_obstruction_hypotheses,
    dilation_obstruction,
    extract_fundamental,
    falsify_spectral_set,
    falsify_to_json,
    fundamental_to_json,
    report_to_json,
)
from .errors import TetrablockError
from .geometry import _chunk_sizes
from .linalg import op_norm, sqrt_psd
from .poly3 import cf_empirical_inf, cf_matrix_norm

__all__ = [
    "SCHEMA_ID",
    "VERDICT_SCHEMA",
    "verdict_document",
    "witness_symbol",
    "Witness",
    "build_witness",
    "CaseInequalityReport",
    "case_inequality_check",
    "CfStudyReport",
    "cf_convergence_study",
    "PipelineReport",
    "run_pipeline",
    "pipeline_report_to_json",
]

SCHEMA_ID = "tetrablock/verdict-v1"

#: Envelope schema every CLI verdict document conforms to.
VERDICT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "tool", "verdict"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "tool": {"type": "string"},
        "verdict": {"type": "string"},
        "seed": {"type": "integer"},
    },
}


def verdict_document(tool: str, verdict: str, **body) -> dict:
    """A verdict document: ``body``'s blocks in the envelope of ``tool``.

    This is the one writer of the ``schema``, ``tool`` and ``verdict``
    keys of :data:`VERDICT_SCHEMA`.
    """
    return {"schema": SCHEMA_ID, "tool": tool, **body, "verdict": verdict}


def witness_symbol() -> np.ndarray:
    """The 2x2 nilpotent cell with entry 1/4.

    Its operator norm is exactly 0.25, its square is exactly zero, and
    its self-commutator has norm exactly 1/16; all three are dyadic,
    so they are reproduced without rounding.
    """
    return np.array([[0.0, 0.25], [0.0, 0.0]], dtype=np.complex128)


@dataclass(frozen=True)
class Witness:
    """The built triple, its split and its truncation boundary's coordinates."""

    triple: Triple
    split: int
    boundary: np.ndarray
    depth: int


def build_witness(depth: int, *, tol: float = 1e-9) -> Witness:
    """Assemble the witness triple at the given depth.

    The space is four copies of C^(2N); the first two copies form the
    first half of the split, the last two the second half.  T3 maps
    the first copy onto the fourth, and the second copy, shifted by one
    2-dimensional cell, into the third; T1 is ``witness_symbol()`` on
    the first cell of the third copy; T2 is zero.  The returned
    boundary is the coordinates of the final cell of the second copy,
    which is exactly where the truncated shift fails to be surjective.

    The triple is built as a :meth:`Triple.direct_sum` of its three
    distinct blocks, in order of first coordinate: 4N - 2 copies of
    (0, 0, J), J the 2x2 lower shift, pairing coordinate i of the
    first copy with i of the fourth and of the second copy with i + 2
    of the third; the boundary's two 1x1 zero blocks; and one
    (f1, 0, 0).  These are the blocks, occurrences and bits that
    :func:`~tetrablock.poly3.distinct_blocks` finds on the dense
    matrices, so no dim x dim matrix is formed unless one is read.
    """
    if depth < 3:
        # Below three blocks the shift degenerates and the kernel/range
        # split no longer separates from the truncation boundary.
        raise ValueError(f"depth must be at least 3, got {depth}")
    cell = 2 * depth
    zero1, zero2 = np.zeros((1, 1)), np.zeros((2, 2))
    jordan = np.array([[0.0, 0.0], [1.0, 0.0]])
    # A shift block pairs coordinate i of the first copy with i + 3 cell
    # in the fourth, and i of the second copy, but for its final cell,
    # with i + cell + 2 in the third.
    first = np.arange(2 * cell - 2)
    second = first + np.where(first < cell, 3 * cell, cell + 2)
    boundary = np.arange(2 * cell - 2, 2 * cell)
    parts = [
        (Triple(zero2, zero2, jordan, tol=tol), np.stack([first, second], axis=1)),
        (Triple(zero1, zero1, zero1, tol=tol), boundary[:, None]),
        (
            Triple(witness_symbol(), zero2, zero2, tol=tol),
            np.arange(2 * cell, 2 * cell + 2)[None],
        ),
    ]
    return Witness(
        triple=Triple.direct_sum(parts, tol=tol),
        split=2 * cell,
        boundary=boundary,
        depth=depth,
    )


@dataclass(frozen=True)
class CaseInequalityReport:
    """Sampled verification of the two 2x2 norm comparisons."""

    n_samples: int
    violations: int
    worst_margin: float
    tol: float
    passed: bool


def _lower_norm(d0, c, d1):
    """The norm of [[d0, 0], [c, d1]] for d0, d1 >= 0, elementwise.

    Its singular values s1 >= s2 have s1^2 + s2^2 = d0^2 + c^2 + d1^2
    and s1 s2 = d0 d1, so they sum to hypot(d0 + d1, c) and differ by
    hypot(d0 - d1, c); s1 is the half-sum of the two.
    """
    return (np.hypot(d0 + d1, c) + np.hypot(d0 - d1, c)) / 2.0


def case_inequality_check(
    n_samples: int = 10_000,
    *,
    seed=None,
    tol: float = 1e-12,
) -> CaseInequalityReport:
    """Sample nonnegative (a0, a1, a3) and compare matrix norms.

    Checked claim: the norm of [[a0, 0], [a3, a0 + a1/4]] never
    exceeds the norm of [[a0, 0], [a1 + a3, a0]] when a0 <= a1, nor
    the norm of [[a0, 0], [a0 + a3, a0]] when a0 > a1.  Norms are
    computed in closed form by :func:`_lower_norm`.  The worst margin
    (right minus left) is reported along with the count below -tol.

    The samples are one ``random((n_samples, 3))`` draw, taken and
    compared in the sample chunks of
    :func:`~tetrablock.geometry.sup_on_closure`, with the worst margin
    and the count folded across them: the check keeps one chunk's
    temporaries whatever ``n_samples`` is.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    worst, violations = np.inf, 0
    for size in _chunk_sizes(n_samples):
        a = 2.0 * rng.random((size, 3))
        a0, a1, a3 = a[:, 0], a[:, 1], a[:, 2]
        lhs_norm = _lower_norm(a0, a3, a0 + a1 / 4.0)
        rhs_norm = _lower_norm(a0, np.where(a0 <= a1, a1 + a3, a0 + a3), a0)
        margins = rhs_norm - lhs_norm
        worst = min(worst, float(margins.min()))
        violations += int((margins < -tol).sum())
    return CaseInequalityReport(
        n_samples=n_samples,
        violations=violations,
        worst_margin=worst,
        tol=tol,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class CfStudyReport:
    """Convergence of the empirical minimal circle sup toward the matrix norm."""

    b0: complex
    b1: complex
    matrix_norm: float
    degrees: tuple
    values: tuple
    final_ratio: float
    monotone: bool
    above_floor: bool


def cf_convergence_study(
    *,
    seed=None,
    degrees: tuple = (0, 2, 4, 8),
    grid: int = 512,
) -> CfStudyReport:
    """Run the minimal-norm completion search over increasing degree.

    This is the one sampler of the study's coefficient pairs.  One
    pair is drawn with the second magnitude dominating the first, the
    regime where degree-8 completions land within a couple percent of
    the exact matrix norm: second magnitude uniform on [0.5, 1], first
    a uniform [0.3, 0.95] fraction of it, phases uniform.
    One :func:`cf_empirical_inf` call fits each degree up to the
    largest once and returns its running minimum at every requested
    degree, so the reported values are nonincreasing.
    """
    rng = np.random.default_rng(seed)
    m1 = rng.uniform(0.5, 1.0)
    m0 = m1 * rng.uniform(0.3, 0.95)
    ph = rng.uniform(0.0, 2.0 * np.pi, 2)
    b0 = complex(m0 * np.exp(1j * ph[0]))
    b1 = complex(m1 * np.exp(1j * ph[1]))
    mu = cf_matrix_norm(b0, b1)
    values = cf_empirical_inf(b0, b1, degrees, grid=grid)
    monotone = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
    return CfStudyReport(
        b0=b0,
        b1=b1,
        matrix_norm=mu,
        degrees=tuple(degrees),
        values=values,
        final_ratio=values[-1] / mu,
        monotone=monotone,
        above_floor=values[-1] >= mu - 1e-6,
    )


@dataclass(frozen=True)
class PipelineReport:
    """Everything the end-to-end run measured.

    A stage's results are None when an Inconclusive run never reached
    it; ``failure`` names the failing stage's exception, as
    ``"<ExceptionType>: <message>"``.
    """

    depth: int
    dim: int
    seed: int
    verdict: str
    failing_stage: str | None
    failure: str | None = None
    products: dict | None = None
    defect_projection_error: float | None = None
    # The pair of each distinct diagonal block with its number of copies.
    fundamental: list[tuple[FundamentalPair, int]] | None = None
    obstruction: ObstructionReport | None = None
    hypotheses: HypothesisReport | None = None
    falsify: FalsifyReport | None = None
    case_check: CaseInequalityReport | None = None
    cf_study: CfStudyReport | None = None


def run_pipeline(
    depth: int,
    *,
    config: ToolConfig = DEFAULT_CONFIG,
    trials: int | None = None,
    degree: int = 3,
    seed: int | None = None,
) -> PipelineReport:
    """Build the witness and run every check end to end.

    Stages, in order: product annihilation, defect-projection check,
    fundamental-pair extraction, obstruction invariants, subspace
    hypotheses in interior mode, a randomized sup-norm falsification
    sweep, the sampled case inequalities, and a minimal-completion
    convergence study.  The verdict is "Obstructed" when either
    commutator invariant clears the tolerance.  A stage raising a
    :class:`TetrablockError` or ``np.linalg.LinAlgError`` marks the
    verdict "Inconclusive" and records the failing stage; the partial
    report is still returned.  Any other exception propagates.

    The witness is stated as a direct sum of copies of three distinct
    blocks (:func:`build_witness`).  Every operator stage works on the
    distinct blocks (:attr:`Triple.parts`) and takes each norm and
    residual as the largest over them, and the fundamental pair's rank
    as the sum over every copy, so its cost does not grow with depth.
    So does the hypotheses check, whose projectors are coordinate
    masks.  No stage reads the dense T1, T2, T3, so no dim x dim matrix
    is formed: only the O(depth) occurrence arrays grow with depth.
    """
    seed = config.seed if seed is None else seed
    w = build_witness(depth, tol=config.tol_algebraic)
    t = w.triple

    # Each stage stores its results under their PipelineReport names.
    results: dict = {}
    failing_stage = failure = None

    def stage_products():
        norms = {}
        for part, _ in t.parts:
            ops = {"t1": part.t1, "t2": part.t2, "t3": part.t3}
            products = {
                f"{a} {b}": x @ y for a, x in ops.items() for b, y in ops.items()
            }
            products["t1* t3"] = part.t1.conj().T @ part.t3
            for name, product in products.items():
                norms[name] = max(norms.get(name, 0.0), op_norm(product))
        results["products"] = norms

    def stage_defect():
        worst = 0.0
        for part, _ in t.parts:
            gram = np.eye(part.dim) - part.t3.conj().T @ part.t3
            d = sqrt_psd(gram, tol=config.tol_algebraic)
            worst = max(worst, float(op_norm(d @ d - d)))
        results["defect_projection_error"] = worst

    def stage_fundamental():
        results["fundamental"] = [
            (
                extract_fundamental(
                    part, rank_tol=config.rank_tol, tol_solve=config.tol_solve
                ),
                len(where),
            )
            for part, where in t.parts
        ]

    def stage_obstruction():
        reports = [
            dilation_obstruction(p.a1, p.a2, tol=config.tol_algebraic)
            for p, _ in results["fundamental"]
        ]
        results["obstruction"] = ObstructionReport(
            c1=max(r.c1 for r in reports),
            c2=max(r.c2 for r in reports),
            tol=config.tol_algebraic,
            obstructed=any(r.obstructed for r in reports),
        )

    def stage_hypotheses():
        results["hypotheses"] = check_obstruction_hypotheses(
            t,
            w.split,
            boundary=w.boundary,
            tol=config.tol_algebraic,
            rank_tol=config.rank_tol,
        )

    def stage_falsify():
        results["falsify"] = falsify_spectral_set(
            t, trials=trials, degree=degree, seed=seed, config=config
        )

    def stage_cases():
        results["case_check"] = case_inequality_check(
            10_000, seed=np.random.SeedSequence([seed, 5]).generate_state(1)[0]
        )

    def stage_cf():
        results["cf_study"] = cf_convergence_study(
            seed=np.random.SeedSequence([seed, 6]).generate_state(1)[0],
            grid=config.cf_grid,
        )

    stages = [
        ("products", stage_products),
        ("defect_projection", stage_defect),
        ("fundamental", stage_fundamental),
        ("obstruction", stage_obstruction),
        ("hypotheses", stage_hypotheses),
        ("falsify", stage_falsify),
        ("case_inequalities", stage_cases),
        ("cf_study", stage_cf),
    ]
    for name, fn in stages:
        try:
            fn()
        except (TetrablockError, np.linalg.LinAlgError) as exc:
            failing_stage, failure = name, f"{type(exc).__name__}: {exc}"
            break

    if failing_stage is not None:
        verdict = "Inconclusive"
    else:
        verdict = (
            "Obstructed" if results["obstruction"].obstructed else "NotObstructed"
        )
    return PipelineReport(
        depth=depth,
        dim=t.dim,
        seed=seed,
        verdict=verdict,
        failing_stage=failing_stage,
        failure=failure,
        **results,
    )


def pipeline_report_to_json(report: PipelineReport) -> dict:
    """Serializable verdict document for the pipeline.

    The document holds no timing, so that a fixed seed and flags yield
    a byte-identical document.  Stages an Inconclusive run never
    reached serialize as null, and ``failure`` is written only when a
    stage failed.
    """

    def block(value, to_json):
        return None if value is None else to_json(value)

    products = report.products
    return verdict_document(
        "counterexample",
        report.verdict,
        seed=report.seed,
        depth=report.depth,
        dim=report.dim,
        products=block(products, lambda p: dict(sorted(p.items()))),
        products_max=block(products, lambda p: max(p.values())),
        defect_projection_error=report.defect_projection_error,
        fundamental=block(report.fundamental, fundamental_to_json),
        obstruction=block(report.obstruction, report_to_json),
        hypotheses=block(report.hypotheses, report_to_json),
        falsify=block(
            report.falsify, lambda f: {**falsify_to_json(f), "trials_run": f.trials_run}
        ),
        case_inequalities=block(report.case_check, report_to_json),
        cf_study=block(report.cf_study, report_to_json),
        failing_stage=report.failing_stage,
        **({} if report.failure is None else {"failure": report.failure}),
    )
