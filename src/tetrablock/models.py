"""Finite functional models generated by a symbol pair.

A symbol pair (A1, A2) acting on a block space C^k is admissible when

  (1) A1 and A2 commute,
  (2) the self-commutators of A1 and A2 agree,
  (3) the pencil A1* + z A2 is a contraction for every |z| = 1.

From an admissible pair two depth-N models are built by inflating the
pair against a shift on N blocks:

* the truncated-shift ("hardy") model, T1 = I (x) A1* + L (x) A2,
  T2 = I (x) A2* + L (x) A1, T3 = L (x) I with L the one-step shift
  that drops off the last block; here the isometric-triple identities
  hold exactly on the interior blocks 0..N-2 and the triple is pure
  (T3 is nilpotent of order N);

* the cyclic ("circulant") model, with the cyclic shift in place of L;
  here the boundary-triple identities hold exactly on the whole space,
  since the cyclic shift is unitary.

Because the truncated shift is the top-left corner of the cyclic one,
the original pair can be read back off the hardy model exactly, from
the corner block of T1* - T2 T3*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractions import Triple, dilation_obstruction
from .errors import (
    DimensionMismatchError,
    InconsistentEquationError,
    TruncationTooSmallError,
    ValidationRequiredError,
)
from .linalg import as_matrix, op_norm

__all__ = [
    "SymbolReport",
    "validate_symbol_pair",
    "random_symbol_pair",
    "ModelTriple",
    "build_hardy_model",
    "build_circulant_model",
    "InteriorReport",
    "interior_identity_report",
    "RecoveryReport",
    "recover_fundamental",
]


@dataclass(frozen=True)
class SymbolReport:
    """Admissibility defects of a symbol pair."""

    commutator: float
    balance: float
    max_pencil_norm: float
    z_samples: int
    valid: bool


def validate_symbol_pair(
    a1, a2, *, tol: float = 1e-9, z_samples: int = 64
) -> SymbolReport:
    """Measure the three admissibility conditions of a symbol pair.

    The pencil condition is sampled at ``z_samples`` roots of unity,
    all pencils' singular values coming from one stacked SVD; for the
    commuting-normal pairs this package builds models from, the pencil
    norm is a trigonometric polynomial of low degree in the angle, so
    a modest sample count pins the sup tightly.
    """
    a1 = as_matrix(a1, square=True, name="a1")
    a2 = as_matrix(a2, square=True, name="a2")
    if a1.shape != a2.shape:
        raise DimensionMismatchError(
            f"symbol pair must share a shape, got {a1.shape}, {a2.shape}"
        )
    if z_samples < 1:
        raise ValueError("z_samples must be positive")
    # Commutation and balanced self-commutators are the two invariants
    # of the obstruction predicate.
    invariants = dilation_obstruction(a1, a2, tol=tol)
    roots = np.exp(2j * np.pi * np.arange(z_samples) / z_samples)
    pencils = a1.conj().T + roots[:, None, None] * a2
    max_pencil = float(np.linalg.svd(pencils, compute_uv=False).max(initial=0.0))
    c1, c2 = invariants.c1, invariants.c2
    return SymbolReport(
        commutator=c1,
        balance=c2,
        max_pencil_norm=max_pencil,
        z_samples=z_samples,
        valid=c1 <= tol and c2 <= tol and max_pencil <= 1.0 + tol,
    )


def random_symbol_pair(
    block_dim: int, *, seed=None, diagonal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an admissible commuting-normal symbol pair.

    Joint eigenvalues are split as (s*u, s*(1-u)) with independent
    phases and s at most 0.95, so the pencil sup stays strictly below
    one with slack.  With ``diagonal=False`` both matrices are
    conjugated by one random unitary, which keeps them commuting and
    normal but makes the pair dense.
    """
    if block_dim < 1:
        raise ValueError("block_dim must be positive")
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 0.95, block_dim)
    u = rng.random(block_dim)
    ph = np.exp(2j * np.pi * rng.random((2, block_dim)))
    d1 = s * u * ph[0]
    d2 = s * (1.0 - u) * ph[1]
    a1 = np.diag(d1)
    a2 = np.diag(d2)
    if not diagonal:
        g = rng.standard_normal((block_dim, block_dim)) + 1j * rng.standard_normal(
            (block_dim, block_dim)
        )
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a1 = q @ a1 @ q.conj().T
        a2 = q @ a2 @ q.conj().T
    return a1, a2


@dataclass(frozen=True, kw_only=True)
class ModelTriple(Triple):
    """A model triple plus its construction metadata."""

    flavor: str
    depth: int
    block_dim: int
    a1: np.ndarray
    a2: np.ndarray

    def as_triple(self) -> Triple:
        """The plain :class:`Triple`, without the metadata."""
        return Triple(t1=self.t1, t2=self.t2, t3=self.t3, tol=self.tol)


def _build_model(a1, a2, depth, shift, flavor, tol, z_samples, validate):
    a1 = as_matrix(a1, square=True, name="a1")
    a2 = as_matrix(a2, square=True, name="a2")
    if depth < 1:
        raise TruncationTooSmallError(f"depth must be at least 1, got {depth}")
    if validate:
        report = validate_symbol_pair(a1, a2, tol=tol, z_samples=z_samples)
        if not report.valid:
            raise ValidationRequiredError(
                "symbol pair fails admissibility: "
                f"commutator {report.commutator:.3e}, "
                f"balance {report.balance:.3e}, "
                f"max pencil norm {report.max_pencil_norm:.6f}"
            )
    k = a1.shape[0]
    eye_n = np.eye(depth)
    eye_k = np.eye(k)
    t1 = np.kron(eye_n, a1.conj().T) + np.kron(shift, a2)
    t2 = np.kron(eye_n, a2.conj().T) + np.kron(shift, a1)
    t3 = np.kron(shift, eye_k)
    return ModelTriple(
        t1=t1,
        t2=t2,
        t3=t3,
        tol=tol,
        flavor=flavor,
        depth=depth,
        block_dim=k,
        a1=a1,
        a2=a2,
    )


def build_hardy_model(
    a1, a2, depth: int, *, tol: float = 1e-9, z_samples: int = 64,
    validate: bool = True,
) -> ModelTriple:
    """Depth-N truncated-shift model of an admissible symbol pair.

    Inadmissible pairs raise ValidationRequiredError; pass
    ``validate=False`` only when the defects are being studied on
    purpose.
    """
    shift = np.zeros((depth, depth))
    for i in range(depth - 1):
        shift[i + 1, i] = 1.0
    return _build_model(a1, a2, depth, shift, "hardy", tol, z_samples, validate)


def build_circulant_model(
    a1, a2, depth: int, *, tol: float = 1e-9, z_samples: int = 64,
    validate: bool = True,
) -> ModelTriple:
    """Depth-N cyclic-shift model of an admissible symbol pair.

    The cyclic shift is unitary, so the result is a boundary-style
    triple: T3 unitary and the pencil relations exact on the whole
    space.
    """
    shift = np.zeros((depth, depth))
    for i in range(depth):
        shift[(i + 1) % depth, i] = 1.0
    return _build_model(a1, a2, depth, shift, "circulant", tol, z_samples, validate)


@dataclass(frozen=True)
class InteriorReport:
    """Model identities restricted to the interior blocks.

    For the truncated-shift flavor the three defining identities hold
    exactly on blocks 0..N-2 (the subspace named by ``interior_dim``),
    and ``shift_power_norm`` is ||T3^N||, zero exactly by nilpotency.
    For the cyclic flavor the identities hold globally and the shift
    power is the identity.
    """

    interior_dim: int
    defect_isometry: float
    defect_relation_1: float
    defect_relation_2: float
    shift_power_norm: float
    passed: bool


def interior_identity_report(
    model: ModelTriple, *, tol: float | None = None
) -> InteriorReport:
    """Measure the defining identities on the interior block subspace."""
    tol = model.tol if tol is None else tol
    n = model.dim
    k = model.block_dim
    interior = (model.depth - 1) * k
    t1, t2, t3 = model.t1, model.t2, model.t3
    # Each identity is measured on the interior columns only.
    shifted = t3[:, :interior]
    d_iso = op_norm(t3.conj().T @ shifted - np.eye(n)[:, :interior])
    d_rel1 = op_norm(t1[:, :interior] - t2.conj().T @ shifted)
    d_rel2 = op_norm(t2[:, :interior] - t1.conj().T @ shifted)
    power = op_norm(np.linalg.matrix_power(t3, model.depth))
    worst = max(d_iso, d_rel1, d_rel2)
    return InteriorReport(
        interior_dim=interior,
        defect_isometry=float(d_iso),
        defect_relation_1=float(d_rel1),
        defect_relation_2=float(d_rel2),
        shift_power_norm=float(power),
        passed=bool(worst <= tol),
    )


@dataclass(frozen=True)
class RecoveryReport:
    """Symbol pair read back from a truncated-shift model.

    ``g1`` and ``g2`` are the corner blocks of T1* - T2 T3* and
    T2* - T1 T3*; the strays measure whatever those differences carry
    outside the corner block, which is zero in exact arithmetic.
    """

    g1: np.ndarray
    g2: np.ndarray
    stray_1: float
    stray_2: float


def recover_fundamental(
    model: ModelTriple, *, tol: float = 1e-9
) -> RecoveryReport:
    """Recover the symbol pair from a truncated-shift model exactly.

    In the hardy flavor, T1* - T2 T3* collapses to A1 supported on the
    leading block (and T2* - T1 T3* to A2), because the shift defect
    I - L L* is the projection onto block zero.  Requires depth >= 3
    so the corner block is flanked by genuine interior blocks; smaller
    depths raise TruncationTooSmallError, and the cyclic flavor has no
    corner to read (its shift defect vanishes).
    """
    if model.flavor != "hardy":
        raise ValueError("recovery needs the truncated-shift flavor")
    if model.depth < 3:
        raise TruncationTooSmallError(
            f"recovery needs depth >= 3, got {model.depth}"
        )
    k = model.block_dim
    diff_1 = model.t1.conj().T - model.t2 @ model.t3.conj().T
    diff_2 = model.t2.conj().T - model.t1 @ model.t3.conj().T
    g1 = diff_1[:k, :k].copy()
    g2 = diff_2[:k, :k].copy()
    strays = []
    for diff, g in ((diff_1, g1), (diff_2, g2)):
        embedded = np.zeros_like(diff)
        embedded[:k, :k] = g
        strays.append(op_norm(diff - embedded))
    if max(strays) > tol:
        raise InconsistentEquationError(
            f"recovered blocks leak outside the corner: strays "
            f"{strays[0]:.3e}, {strays[1]:.3e}"
        )
    return RecoveryReport(
        g1=g1, g2=g2, stray_1=float(strays[0]), stray_2=float(strays[1])
    )
