"""Commuting operator triples: structure checks, fundamental-operator
extraction, the dilation obstruction predicate, and a randomized
inequality falsifier.

A triple (T1, T2, T3) is held in a small dataclass along with the
tolerance its checks should use.  The key derived objects are the two
fundamental operators living on the defect space of T3, extracted by
diagonalizing the defect and solving the structured equations

    T1 - T2* T3 = D A1 D,      T2 - T1* T3 = D A2 D

on the range of D.  The obstruction predicate evaluates two commutator
invariants of the extracted pair; a nonzero value for either one rules
out a commuting normal boundary dilation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .errors import (
    BadSplitError,
    DimensionMismatchError,
    InconsistentEquationError,
    NotAContractionError,
    NotIsometricEmbeddingError,
)
from .geometry import sup_on_closure
from .linalg import as_matrix, herm_eig, matrix_from_json, matrix_to_json, op_norm
from .poly3 import MonomialBasis, Poly3, eval_operator, poly_to_json, random_poly

__all__ = [
    "Triple",
    "triple_to_json",
    "triple_from_json",
    "commutation_defect",
    "UnitaryReport",
    "check_tetra_unitary",
    "IsometryReport",
    "check_tetra_isometry",
    "purity_defect",
    "FundamentalPair",
    "extract_fundamental",
    "ObstructionReport",
    "dilation_obstruction",
    "HypothesisReport",
    "check_obstruction_hypotheses",
    "DilationReport",
    "verify_dilation",
    "Certificate",
    "violation_certificate",
    "FalsifyReport",
    "falsify_spectral_set",
    "varopoulos_example",
    "varopoulos_polynomial",
]


@dataclass(frozen=True)
class Triple:
    """A commuting triple of square matrices with a working tolerance.

    Construction validates shapes only; algebraic properties are
    checked by the dedicated report functions so that their defects
    stay observable instead of being swallowed by a constructor.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "t1", as_matrix(self.t1, square=True, name="t1"))
        object.__setattr__(self, "t2", as_matrix(self.t2, square=True, name="t2"))
        object.__setattr__(self, "t3", as_matrix(self.t3, square=True, name="t3"))
        if not (self.t1.shape == self.t2.shape == self.t3.shape):
            raise DimensionMismatchError(
                f"triple entries must share a shape, got "
                f"{self.t1.shape}, {self.t2.shape}, {self.t3.shape}"
            )

    @property
    def dim(self) -> int:
        return self.t1.shape[0]


def triple_to_json(t: Triple) -> dict:
    """Serialize a triple to the interchange dict form."""
    return {
        "t1": matrix_to_json(t.t1),
        "t2": matrix_to_json(t.t2),
        "t3": matrix_to_json(t.t3),
        "tol": float(t.tol),
    }


def triple_from_json(obj: dict) -> Triple:
    """Inverse of :func:`triple_to_json`."""
    return Triple(
        t1=matrix_from_json(obj["t1"]),
        t2=matrix_from_json(obj["t2"]),
        t3=matrix_from_json(obj["t3"]),
        tol=float(obj.get("tol", 1e-9)),
    )


def commutation_defect(t: Triple) -> float:
    """Largest pairwise commutator norm of the triple."""
    mats = (t.t1, t.t2, t.t3)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, op_norm(mats[i] @ mats[j] - mats[j] @ mats[i]))
    return worst


@dataclass(frozen=True)
class UnitaryReport:
    """Defects of the boundary-triple (joint normal) structure."""

    commutation: float
    unitary_defect: float
    contraction_excess: float
    relation_1: float
    relation_2: float
    normality_1: float
    normality_2: float
    passed: bool


def check_tetra_unitary(t: Triple, *, tol: float | None = None) -> UnitaryReport:
    """Check the defining conditions of a boundary triple.

    Requires T3 unitary, ||T2|| <= 1, T1 = T2* T3 (and symmetrically
    T2 = T1* T3), with T1 and T2 normal and everything commuting.
    """
    tol = t.tol if tol is None else tol
    eye = np.eye(t.dim)
    unitary_defect = max(
        op_norm(t.t3.conj().T @ t.t3 - eye),
        op_norm(t.t3 @ t.t3.conj().T - eye),
    )
    contraction_excess = max(0.0, op_norm(t.t2) - 1.0)
    relation_1 = op_norm(t.t1 - t.t2.conj().T @ t.t3)
    relation_2 = op_norm(t.t2 - t.t1.conj().T @ t.t3)
    normality_1 = op_norm(t.t1.conj().T @ t.t1 - t.t1 @ t.t1.conj().T)
    normality_2 = op_norm(t.t2.conj().T @ t.t2 - t.t2 @ t.t2.conj().T)
    comm = commutation_defect(t)
    defects = (
        comm,
        unitary_defect,
        contraction_excess,
        relation_1,
        relation_2,
        normality_1,
        normality_2,
    )
    return UnitaryReport(*defects, passed=bool(max(defects) <= tol))


@dataclass(frozen=True)
class IsometryReport:
    """Defects of the isometric-triple structure."""

    commutation: float
    isometry_defect: float
    contraction_excess: float
    relation_1: float
    relation_2: float
    passed: bool


def check_tetra_isometry(t: Triple, *, tol: float | None = None) -> IsometryReport:
    """Check the defining conditions of an isometric triple.

    Requires T3*T3 = I, ||T2|| <= 1, T1 = T2* T3 and T2 = T1* T3,
    with everything commuting.
    """
    tol = t.tol if tol is None else tol
    eye = np.eye(t.dim)
    isometry_defect = op_norm(t.t3.conj().T @ t.t3 - eye)
    contraction_excess = max(0.0, op_norm(t.t2) - 1.0)
    relation_1 = op_norm(t.t1 - t.t2.conj().T @ t.t3)
    relation_2 = op_norm(t.t2 - t.t1.conj().T @ t.t3)
    comm = commutation_defect(t)
    defects = (comm, isometry_defect, contraction_excess, relation_1, relation_2)
    return IsometryReport(*defects, passed=bool(max(defects) <= tol))


def purity_defect(t: Triple, *, power: int | None = None) -> float:
    """Norm of (T3*)^power; zero certifies purity at finite depth."""
    k = t.dim if power is None else int(power)
    if k < 0:
        raise ValueError("power must be nonnegative")
    return op_norm(np.linalg.matrix_power(t.t3.conj().T, k))


# ---------------------------------------------------------------------------
# Fundamental operators and the obstruction predicate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalPair:
    """Fundamental operators of a triple, on the defect range of T3.

    ``a1`` and ``a2`` are k-by-k matrices expressed in the orthonormal
    defect basis ``basis`` (columns; shape n-by-k); ``defect_values``
    are the eigenvalues of I - T3*T3 above the rank cutoff, ascending.
    Residuals measure how well D a_i D reproduces the structured
    right-hand sides over the whole space.
    """

    a1: np.ndarray
    a2: np.ndarray
    basis: np.ndarray
    defect_values: np.ndarray
    residual_1: float
    residual_2: float
    rank: int


def extract_fundamental(
    t: Triple,
    *,
    rank_tol: float = 1e-8,
    tol_solve: float = 1e-9,
) -> FundamentalPair:
    """Solve T1 - T2*T3 = D A1 D and T2 - T1*T3 = D A2 D on ran(D).

    D is the Hermitian square root of I - T3*T3, which must be
    positive semidefinite (T3 a contraction).  The equations are
    inverted on the spectral subspace with eigenvalues above
    ``rank_tol``; if the right-hand sides are not supported there the
    residual check fails with InconsistentEquationError.
    """
    eye = np.eye(t.dim)
    d2 = eye - t.t3.conj().T @ t.t3
    eig = herm_eig(d2, tol=max(tol_solve, 1e-9))
    if eig.values.size and float(eig.values[0]) < -rank_tol:
        raise NotAContractionError(
            f"I - T3*T3 has eigenvalue {float(eig.values[0]):.3e}; "
            "T3 is not a contraction"
        )
    keep = eig.values > rank_tol
    rank = int(np.count_nonzero(keep))
    basis = eig.vectors[:, keep]
    vals = eig.values[keep]
    sigma = np.sqrt(vals)
    d = (eig.vectors * np.sqrt(np.clip(eig.values, 0.0, None))) @ eig.vectors.conj().T

    rhs_1 = t.t1 - t.t2.conj().T @ t.t3
    rhs_2 = t.t2 - t.t1.conj().T @ t.t3
    out = []
    residuals = []
    for rhs in (rhs_1, rhs_2):
        core = basis.conj().T @ rhs @ basis
        a = core / np.outer(sigma, sigma)
        lifted = basis @ a @ basis.conj().T
        residuals.append(op_norm(d @ lifted @ d - rhs))
        out.append(a)
    if max(residuals) > tol_solve:
        raise InconsistentEquationError(
            f"structured equations unsolvable on the defect range: "
            f"residuals {residuals[0]:.3e}, {residuals[1]:.3e} exceed "
            f"{tol_solve:.3e}"
        )
    return FundamentalPair(
        a1=out[0],
        a2=out[1],
        basis=basis,
        defect_values=vals,
        residual_1=float(residuals[0]),
        residual_2=float(residuals[1]),
        rank=rank,
    )


@dataclass(frozen=True)
class ObstructionReport:
    """Commutator invariants of a fundamental pair.

    ``c1`` is the norm of [A1, A2]; ``c2`` is the norm of
    [A1*, A1] - [A2*, A2].  Either one exceeding the tolerance means
    no commuting normal boundary dilation exists.
    """

    c1: float
    c2: float
    tol: float
    obstructed: bool


def dilation_obstruction(a1, a2, *, tol: float = 1e-9) -> ObstructionReport:
    """Evaluate the two commutator invariants of a fundamental pair."""
    a1 = as_matrix(a1, square=True, name="a1")
    a2 = as_matrix(a2, square=True, name="a2")
    if a1.shape != a2.shape:
        raise DimensionMismatchError(
            f"fundamental pair must share a shape, got {a1.shape}, {a2.shape}"
        )
    c1 = op_norm(a1 @ a2 - a2 @ a1)
    c2 = op_norm(
        (a1.conj().T @ a1 - a1 @ a1.conj().T)
        - (a2.conj().T @ a2 - a2 @ a2.conj().T)
    )
    return ObstructionReport(
        c1=float(c1), c2=float(c2), tol=tol, obstructed=bool(max(c1, c2) > tol)
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Subspace hypotheses behind the obstruction argument.

    With the space split into two equal halves, the kernel of the T3
    defect should match the first half and its range the second, T3
    should kill the defect range, and T3 should map the kernel into
    the range.  At a finite truncation the first two can only hold
    after discounting a declared boundary subspace; ``mode`` records
    whether the comparison was strict or interior-restricted.
    """

    mode: str
    defect_kernel: float
    defect_range: float
    shift_kills_range: float
    shift_maps_kernel: float
    boundary_dim: int
    passed: bool


def check_obstruction_hypotheses(
    t: Triple,
    split: int,
    *,
    tol: float = 1e-9,
    rank_tol: float = 1e-8,
    boundary=None,
) -> HypothesisReport:
    """Check the subspace hypotheses for a triple split into halves.

    Parameters
    ----------
    t:
        The triple under test.
    split:
        Dimension of the first half; must be exactly half the space.
    boundary:
        Optional n-by-d matrix with orthonormal columns spanning the
        truncation boundary.  When given, the kernel/range comparisons
        are made relative to it: the kernel may lose the boundary and
        the range may gain it, which is exactly the finite-depth
        picture of an isometry truncated to a strict shift.
    """
    n = t.dim
    if split <= 0 or 2 * split != n:
        raise BadSplitError(
            f"split must be half the dimension, got split={split}, dim={n}"
        )
    eye = np.eye(n)
    d2 = eye - t.t3.conj().T @ t.t3
    eig = herm_eig(d2, tol=max(tol, 1e-9))
    kernel_vecs = eig.vectors[:, eig.values <= rank_tol]
    p_ker = kernel_vecs @ kernel_vecs.conj().T
    p_range = eye - p_ker
    p_first = np.zeros((n, n), dtype=np.complex128)
    p_first[:split, :split] = np.eye(split)
    p_second = np.zeros((n, n), dtype=np.complex128)
    p_second[split:, split:] = np.eye(split)

    if boundary is None:
        mode = "strict"
        boundary_dim = 0
        defect_kernel = op_norm(p_ker - p_first)
        defect_range = op_norm(p_range - p_second)
    else:
        s = as_matrix(boundary, name="boundary")
        if s.shape[0] != n:
            raise DimensionMismatchError(
                f"boundary must have {n} rows, got {s.shape[0]}"
            )
        gram_defect = op_norm(s.conj().T @ s - np.eye(s.shape[1]))
        if gram_defect > tol:
            raise NotIsometricEmbeddingError(
                f"boundary columns are not orthonormal (defect {gram_defect:.3e})"
            )
        mode = "interior"
        boundary_dim = s.shape[1]
        p_s = s @ s.conj().T
        defect_kernel = op_norm(p_ker - p_first + p_s)
        defect_range = op_norm(p_range - p_second - p_s)

    shift_kills_range = op_norm(t.t3 @ p_range)
    shift_maps_kernel = op_norm((eye - p_range) @ t.t3 @ p_ker)
    worst = max(defect_kernel, defect_range, shift_kills_range, shift_maps_kernel)
    return HypothesisReport(
        mode=mode,
        defect_kernel=float(defect_kernel),
        defect_range=float(defect_range),
        shift_kills_range=float(shift_kills_range),
        shift_maps_kernel=float(shift_maps_kernel),
        boundary_dim=boundary_dim,
        passed=bool(worst <= tol),
    )


# ---------------------------------------------------------------------------
# Dilation verification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationReport:
    """Compression defects of a candidate dilation.

    ``max_compression_defect`` is the worst monomial defect
    ||V* Q^m V - T^m|| over total degrees 1..max_degree; the
    ``extension_defects`` measure whether each big operator's adjoint
    leaves the embedded subspace invariant (zero for a genuine
    extension, not required for a plain power dilation).
    """

    max_compression_defect: float
    worst_monomial: tuple[int, int, int]
    extension_defects: tuple[float, float, float]
    max_degree: int
    passed: bool


def verify_dilation(
    small: Triple,
    big: Triple,
    embed,
    *,
    max_degree: int = 3,
    tol: float = 1e-9,
) -> DilationReport:
    """Check that ``big`` power-dilates ``small`` through ``embed``.

    ``embed`` is an isometry from the small space into the big one
    (columns orthonormal).  For every monomial in the three variables
    with total degree between 1 and ``max_degree``, the compression of
    the big monomial must match the small one.
    """
    v = as_matrix(embed, name="embed")
    if v.shape != (big.dim, small.dim):
        raise DimensionMismatchError(
            f"embed must be {big.dim}x{small.dim}, got {v.shape}"
        )
    gram_defect = op_norm(v.conj().T @ v - np.eye(small.dim))
    if gram_defect > tol:
        raise NotIsometricEmbeddingError(
            f"embedding is not isometric (defect {gram_defect:.3e})"
        )

    small_basis = MonomialBasis(small)
    big_basis = MonomialBasis(big)
    # Absent (exactly zero) monomials compress as zero matrices.
    small_zero = np.zeros((small.dim, small.dim), dtype=np.complex128)
    big_zero = np.zeros((big.dim, big.dim), dtype=np.complex128)

    worst = 0.0
    worst_mono = (0, 0, 0)
    for m1 in range(max_degree + 1):
        for m2 in range(max_degree + 1 - m1):
            for m3 in range(max_degree + 1 - m1 - m2):
                if m1 + m2 + m3 == 0:
                    continue
                exp = (m1, m2, m3)
                big_mono = big_basis.monomial(exp)
                if big_mono is None:
                    big_mono = big_zero
                small_mono = small_basis.monomial(exp)
                if small_mono is None:
                    small_mono = small_zero
                defect = op_norm(v.conj().T @ big_mono @ v - small_mono)
                if defect > worst:
                    worst = defect
                    worst_mono = (m1, m2, m3)

    proj = v @ v.conj().T
    comp = np.eye(big.dim) - proj
    ext = tuple(
        float(op_norm(comp @ q.conj().T @ proj))
        for q in (big.t1, big.t2, big.t3)
    )
    return DilationReport(
        max_compression_defect=float(worst),
        worst_monomial=worst_mono,
        extension_defects=ext,
        max_degree=max_degree,
        passed=bool(worst <= tol),
    )


# ---------------------------------------------------------------------------
# Randomized inequality falsifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """One polynomial's evidence in the sup-norm inequality test."""

    poly: Poly3
    lhs: float
    sup_first: float
    sup_refined: float
    margin: float
    violates: bool


def violation_certificate(
    t: Triple | MonomialBasis,
    p: Poly3,
    *,
    config: ToolConfig = DEFAULT_CONFIG,
    seed=0,
) -> Certificate:
    """Compare ||p(T)|| against an estimated sup of |p| on the domain.

    ``t`` is the triple or a :class:`MonomialBasis` of it shared across
    calls.  A violation is only reported after the sup estimate has
    been recomputed with ten times the sample budget and the gap still
    exceeds the configured margin.  The sampled sup can only undershoot
    the true sup, which inflates the gap, so a reported violation is
    not rigorous; the margin and the resampling only make a spurious
    one less likely.  Only the opposite outcome is rigorous, up to the
    margin: lhs <= sampled sup + margin <= true sup + margin.
    """
    lhs = op_norm(eval_operator(p, t))
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss = base.spawn(2)
    sup_first = sup_on_closure(p, n_samples=config.sup_samples, seed=ss[0])
    sup_refined = sup_first
    violates = lhs > sup_first + config.falsify_margin
    if violates:
        sup_refined = sup_on_closure(p, n_samples=10 * config.sup_samples, seed=ss[1])
        sup_refined = max(sup_first, sup_refined)
        violates = lhs > sup_refined + config.falsify_margin
    return Certificate(
        poly=p,
        lhs=float(lhs),
        sup_first=float(sup_first),
        sup_refined=float(sup_refined),
        margin=config.falsify_margin,
        violates=bool(violates),
    )


@dataclass(frozen=True)
class FalsifyReport:
    """Outcome of a randomized sup-norm inequality search."""

    outcome: str
    trials_run: int
    worst_ratio: float
    commutation_defect: float
    certificate: Certificate | None
    errors: str


def falsify_spectral_set(
    t: Triple,
    *,
    trials: int | None = None,
    degree: int = 3,
    seed: int | None = None,
    config: ToolConfig = DEFAULT_CONFIG,
    polys=None,
) -> FalsifyReport:
    """Try to beat sup |p| with ||p(T)|| over random polynomials.

    Each trial draws a polynomial of total degree up to ``degree``
    from its own child seed, so trial k is reproducible regardless of
    the trial count.  All trials evaluate against one
    :class:`MonomialBasis` of the triple, so each power and monomial
    is multiplied out once per call.  The triple's commutation defect
    is reported, not enforced; operator evaluation assumes commutation.

    Returns outcome "Violation" with a certificate on the first
    confirmed exceedance, else "NoViolationFound".
    """
    trials = config.falsify_trials if trials is None else trials
    seed = config.seed if seed is None else seed
    comm = commutation_defect(t)
    basis = MonomialBasis(t)
    worst_ratio = 0.0
    certificate = None
    outcome = "NoViolationFound"
    ran = 0

    if polys is not None:
        items = [(p, seed + i) for i, p in enumerate(polys)]
    else:
        children = np.random.SeedSequence(seed).spawn(trials)
        items = []
        for i, child in enumerate(children):
            grand = child.spawn(2)
            items.append((random_poly(degree, seed=grand[0]), grand[1]))

    for p, sup_seed in items:
        cert = violation_certificate(basis, p, config=config, seed=sup_seed)
        ran += 1
        ratio = cert.lhs / max(cert.sup_refined, 1e-300)
        if ratio > worst_ratio:
            worst_ratio = ratio
            if certificate is None or not certificate.violates:
                certificate = cert
        if cert.violates:
            certificate = cert
            outcome = "Violation"
            break
    return FalsifyReport(
        outcome=outcome,
        trials_run=ran,
        worst_ratio=float(worst_ratio),
        commutation_defect=float(comm),
        certificate=certificate,
        errors="none",
    )


def varopoulos_polynomial() -> Poly3:
    """The classical cubic-free quadratic used against three contractions.

    p = x1^2 + x2^2 + x3^2 - 2 x1 x2 - 2 x1 x3 - 2 x2 x3.
    """
    return Poly3(
        {
            (2, 0, 0): 1.0,
            (0, 2, 0): 1.0,
            (0, 0, 2): 1.0,
            (1, 1, 0): -2.0,
            (1, 0, 1): -2.0,
            (0, 1, 1): -2.0,
        }
    )


def varopoulos_example(*, tol: float = 1e-9) -> tuple[Triple, Poly3]:
    """Commuting contractions on C^5 beating the sup of a quadratic.

    This is the classical five-dimensional construction: three exact
    commuting contractions for which ||p(T)|| = 3*sqrt(3) while
    |p| <= 5 on the closed tridisk, hence also on any subset of it.
    Useful as a positive control for the falsifier's certificate path.
    """
    c = np.array(
        [
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    ) / np.sqrt(3.0)
    mats = []
    for k in range(3):
        m = np.zeros((5, 5), dtype=np.complex128)
        m[k + 1, 0] = 1.0
        for j in range(3):
            m[4, j + 1] = c[k, j]
        mats.append(m)
    return Triple(t1=mats[0], t2=mats[1], t3=mats[2], tol=tol), varopoulos_polynomial()
