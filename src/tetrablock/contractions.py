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

import heapq
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import DEFAULT_CONFIG, ToolConfig
from .errors import (
    BadSplitError,
    DimensionMismatchError,
    InconsistentEquationError,
    NotAContractionError,
    NotIsometricEmbeddingError,
)
from .geometry import _prefix_maxima, _sample_scores, sup_on_closure
from .linalg import (
    as_matrix,
    complex_to_json,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)
from .poly3 import (
    Poly3,
    _eval_operator_stack,
    _layouts,
    _monomials,
    diagonal_blocks,
    distinct_blocks,
    eval_operator,
    poly_to_json,
    random_poly,
)

__all__ = [
    "Triple",
    "triple_to_json",
    "triple_from_json",
    "commutation_defect",
    "relation_defects",
    "UnitaryReport",
    "check_tetra_unitary",
    "FundamentalPair",
    "extract_fundamental",
    "ObstructionReport",
    "dilation_obstruction",
    "HypothesisReport",
    "check_obstruction_hypotheses",
    "report_to_json",
    "fundamental_to_json",
    "Certificate",
    "violation_certificate",
    "FalsifyReport",
    "falsify_spectral_set",
    "falsify_to_json",
    "varopoulos_example",
    "varopoulos_polynomial",
]


@dataclass(frozen=True, eq=False, repr=False)
class Triple:
    """A commuting triple of square matrices with a working tolerance.

    Construction validates shapes only; algebraic properties are
    checked by the dedicated report functions so that their defects
    stay observable instead of being swallowed by a constructor.

    One derived object is computed once, on first use, and kept on the
    triple: its block form :attr:`parts`.

    A triple is built either from its matrices or, with
    :meth:`direct_sum`, from its distinct blocks and where they occur.
    A direct sum's block form is given, and its dense T1, T2, T3 are
    scattered from the blocks only when something reads them: a direct
    sum of many small blocks is worked on without ever forming a
    dim x dim matrix.

    The repr reads no matrix, only the dimension, the tolerance and, for
    a direct sum, each block's size and number of copies; two triples
    are equal only when they are the same object.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    tol: float = 1e-9

    # Set on a direct sum, whose parts are given and matrices scattered.
    _given_parts = False

    def __post_init__(self):
        object.__setattr__(self, "t1", as_matrix(self.t1, square=True, name="t1"))
        object.__setattr__(self, "t2", as_matrix(self.t2, square=True, name="t2"))
        object.__setattr__(self, "t3", as_matrix(self.t3, square=True, name="t3"))
        if not (self.t1.shape == self.t2.shape == self.t3.shape):
            raise DimensionMismatchError(
                f"triple entries must share a shape, got "
                f"{self.t1.shape}, {self.t2.shape}, {self.t3.shape}"
            )

    @staticmethod
    def direct_sum(parts, *, tol: float = 1e-9) -> Triple:
        """The direct sum of blocks placed at given coordinates.

        ``parts`` lists ``(block, where)`` pairs: a block :class:`Triple`
        and a (count, size) integer array whose rows are the coordinates
        of its copies, size being the block's dimension.  Together the
        rows must cover ``range(dim)`` exactly once.  The result's
        :attr:`parts` is ``parts`` as given (each ``where`` as an
        array), and its dimension is the number of coordinates.  A
        block mismatching its rows raises DimensionMismatchError, and
        coordinates that do not tile ``range(dim)`` raise ValueError.
        """
        parts = [(part, np.asarray(where)) for part, where in parts]
        if not parts:
            raise ValueError("a direct sum needs at least one block")
        for part, where in parts:
            if where.ndim != 2 or where.shape[1] != part.dim:
                raise DimensionMismatchError(
                    f"a {part.dim}x{part.dim} block needs (count, {part.dim}) "
                    f"occurrences, got shape {where.shape}"
                )
            if where.dtype.kind not in "iu":
                raise ValueError(f"occurrences must be integers, got {where.dtype}")
        coords = np.concatenate([where.ravel() for _, where in parts]).astype(np.intp)
        dim = len(coords)
        if not (
            dim
            and coords.min() >= 0
            and coords.max() < dim
            and np.bincount(coords, minlength=dim).max() == 1
        ):
            raise ValueError(f"occurrences must tile range({dim}) exactly once")
        self = object.__new__(Triple)
        object.__setattr__(self, "tol", tol)
        # Prefilled cached properties; t1, t2, t3 wait for __getattr__.
        self.__dict__.update(dim=dim, parts=parts, _given_parts=True)
        return self

    def __getattr__(self, name):
        # Only a direct sum lacks its matrices: scatter all three from
        # the blocks on the first read of any of them.
        if name not in ("t1", "t2", "t3") or not self._given_parts:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        for key in ("t1", "t2", "t3"):
            m = np.zeros((self.dim, self.dim), dtype=np.complex128)
            for part, where in self.parts:
                m[where[:, :, None], where[:, None, :]] = getattr(part, key)
            object.__setattr__(self, key, m)
        return self.__dict__[name]

    def __repr__(self) -> str:
        text = f"{type(self).__name__}(dim={self.dim}, tol={self.tol!r}"
        if self._given_parts:
            blocks = ", ".join(
                f"{part.dim}x{part.dim}*{len(where)}" for part, where in self.parts
            )
            text += f", blocks=[{blocks}]"
        return text + ")"

    @cached_property
    def dim(self) -> int:
        return self.t1.shape[0]

    @cached_property
    def parts(self) -> list[tuple[Triple, np.ndarray]]:
        """The triple's distinct diagonal blocks, each with where it occurs.

        These are the :func:`distinct_blocks` of T1, T2, T3 under their
        :func:`diagonal_blocks`: each distinct block as a triple of its
        own, paired with its (count, size) occurrence array.  Every
        polynomial in the triple is block-diagonal under them (a product
        of block-diagonal matrices has exact zeros off the blocks), so
        any norm of one is the largest over the parts, and a direct sum
        of many copies of a few blocks is worked on copy by copy only
        once.  A one-block triple is its own single part.  On a
        :meth:`direct_sum` they are given, not found.
        """
        mats = (self.t1, self.t2, self.t3)
        blocks = diagonal_blocks(mats)
        if len(blocks) == 1:
            return [(self, blocks[0][None])]
        return [
            (Triple(*sub, tol=self.tol), where)
            for sub, where in distinct_blocks(mats, blocks)
        ]


def triple_to_json(t: Triple) -> dict:
    """Serialize a triple to the interchange dict form."""
    return {
        "t1": matrix_to_json(t.t1),
        "t2": matrix_to_json(t.t2),
        "t3": matrix_to_json(t.t3),
        "tol": float(t.tol),
    }


def triple_from_json(obj: dict) -> Triple:
    """Inverse of :func:`triple_to_json`.

    Raises ValueError naming the triple unless ``obj`` is a dict, and
    naming ``tol`` unless it is a finite positive real number; a bool
    is not a number here.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"triple must be a JSON object, got {obj!r}")
    tol = obj.get("tol", 1e-9)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not 0.0 < tol <= sys.float_info.max:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return Triple(
        t1=matrix_from_json(obj["t1"]),
        t2=matrix_from_json(obj["t2"]),
        t3=matrix_from_json(obj["t3"]),
        tol=float(tol),
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


def relation_defects(t: Triple, cols=slice(None)) -> tuple[float, float, float]:
    """Defects of T3*T3 = I, T1 = T2*T3 and T2 = T1*T3 on columns ``cols``.

    Each is the operator norm of the identity's two sides restricted to
    the given columns; the default takes the whole space.
    """
    shifted = t.t3[:, cols]
    isometry = op_norm(t.t3.conj().T @ shifted - np.eye(t.dim)[:, cols])
    relation_1 = op_norm(t.t1[:, cols] - t.t2.conj().T @ shifted)
    relation_2 = op_norm(t.t2[:, cols] - t.t1.conj().T @ shifted)
    return isometry, relation_1, relation_2


def check_tetra_unitary(t: Triple) -> UnitaryReport:
    """Check the defining conditions of a boundary triple.

    Requires T3 unitary, ||T2|| <= 1, T1 = T2* T3 (and symmetrically
    T2 = T1* T3), with T1 and T2 normal and everything commuting, each
    within ``t.tol``.
    """
    isometry, relation_1, relation_2 = relation_defects(t)
    unitary_defect = max(isometry, op_norm(t.t3 @ t.t3.conj().T - np.eye(t.dim)))
    contraction_excess = max(0.0, op_norm(t.t2) - 1.0)
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
    return UnitaryReport(*defects, passed=bool(max(defects) <= t.tol))


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
    residual check fails with InconsistentEquationError.  ``t`` is
    solved whole; a direct sum is solved block by block by calling
    this on each of its :attr:`Triple.parts`.
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


def _first_distinct(rows: np.ndarray) -> np.ndarray:
    """Where each distinct row of a 2-D boolean array first occurs, in order.

    The rows are packed to bytes and put in order by a stable
    ``np.lexsort``, so each run of equal rows starts at its first
    occurrence.  (np.unique would import numpy.ma, a megabyte, into
    every pipeline run.)
    """
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    ordered = packed[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[starts])


def _hypothesis_defects(t3, first, boundary, *, tol, rank_tol) -> tuple:
    # The four defects of T3, or of one block of it, given the 0/1
    # masks of its first-half and boundary coordinates.  Strict mode is
    # an empty boundary.
    eye = np.eye(t3.shape[0])
    p_first, p_s = np.diag(first * 1.0), np.diag(boundary * 1.0)
    d2 = eye - t3.conj().T @ t3
    eig = herm_eig(d2, tol=max(tol, 1e-9))
    kernel_vecs = eig.vectors[:, eig.values <= rank_tol]
    p_ker = kernel_vecs @ kernel_vecs.conj().T
    p_range = eye - p_ker
    defect_kernel = op_norm(p_ker - p_first + p_s)
    defect_range = op_norm(p_range - (eye - p_first) - p_s)
    shift_kills_range = op_norm(t3 @ p_range)
    shift_maps_kernel = op_norm((eye - p_range) @ t3 @ p_ker)
    return defect_kernel, defect_range, shift_kills_range, shift_maps_kernel


def check_obstruction_hypotheses(
    t: Triple,
    split: int | None,
    *,
    tol: float = 1e-9,
    rank_tol: float = 1e-8,
    boundary=(),
) -> HypothesisReport:
    """Check the subspace hypotheses for a triple split into halves.

    The projectors onto the first half and onto the boundary are
    diagonal, so they join no two blocks of the triple: the check runs
    on its :attr:`Triple.parts`, once per distinct part and pair of
    first-half and boundary masks, and each defect is the largest over
    those pieces.

    Parameters
    ----------
    t:
        The triple under test.
    split:
        Dimension of the first half; must be exactly half the space.
    boundary:
        Distinct integer coordinates spanning the truncation boundary;
        empty (the default) for the strict check.  When given, the
        kernel/range comparisons are made relative to it: the kernel
        may lose the boundary and the range may gain it, which is
        exactly the finite-depth picture of an isometry truncated to a
        strict shift.
    """
    if split is None or split <= 0 or 2 * split != t.dim:
        raise BadSplitError(
            f"split must be half the dimension, got split={split}, dim={t.dim}"
        )
    # Only a 1-D integer array is read as coordinates (an empty one may
    # have any dtype): a matrix or a 0/1 mask is refused, not misread.
    coords = np.asarray(boundary)
    if coords.ndim != 1 or (coords.size and coords.dtype.kind not in "iu"):
        raise ValueError(
            f"boundary must be 1-D integer coordinates, got {coords.dtype} "
            f"of shape {coords.shape}"
        )
    if coords.size and not (0 <= coords.min() and coords.max() < t.dim):
        raise DimensionMismatchError(f"boundary coordinates must lie in [0, {t.dim})")
    if len(set(coords.tolist())) < len(coords):
        raise NotIsometricEmbeddingError(
            "a boundary coordinate repeats, so its columns are not orthonormal"
        )
    # One piece per distinct pair of masks on each part.
    defects = []
    for part, where in t.parts:
        masks = np.stack([where < split, np.isin(where, coords)], axis=1)
        for first, inside in masks[_first_distinct(masks.reshape(len(masks), -1))]:
            defects.append(
                _hypothesis_defects(part.t3, first, inside, tol=tol, rank_tol=rank_tol)
            )
    defects = [max(column) for column in zip(*defects)]
    defect_kernel, defect_range, shift_kills_range, shift_maps_kernel = defects
    return HypothesisReport(
        mode="interior" if len(coords) else "strict",
        defect_kernel=float(defect_kernel),
        defect_range=float(defect_range),
        shift_kills_range=float(shift_kills_range),
        shift_maps_kernel=float(shift_maps_kernel),
        boundary_dim=len(coords),
        passed=bool(max(defects) <= tol),
    )


def report_to_json(rep) -> dict:
    """A report's fields, in order, as a block of a verdict document.

    A complex value becomes ``[re, im]`` and a tuple becomes a list;
    every other value is kept as it is.
    """
    doc = {}
    for field in fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, complex):
            value = complex_to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[field.name] = value
    return doc


def fundamental_to_json(pairs) -> dict:
    """The fundamental block of a verdict document.

    ``pairs`` holds one ``(FundamentalPair, count)`` entry per distinct
    block of a direct sum, ``count`` being its number of copies: the
    rank is summed over every copy, and the residuals and the norms of
    A1 and A2 are the largest over the blocks.
    """
    return {
        "rank": sum(count * p.rank for p, count in pairs),
        "residual_1": max(p.residual_1 for p, _ in pairs),
        "residual_2": max(p.residual_2 for p, _ in pairs),
        "a1_norm": max(float(op_norm(p.a1)) for p, _ in pairs),
        "a2_norm": max(float(op_norm(p.a2)) for p, _ in pairs),
    }


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
    t: Triple,
    p: Poly3,
    *,
    config: ToolConfig = DEFAULT_CONFIG,
    seed=0,
) -> Certificate:
    """Compare ||p(T)|| against an estimated sup of |p| on the domain.

    The norm is the largest :func:`op_norm` of :func:`eval_operator`
    over the triple's distinct blocks, the bits :func:`_poly_norms`
    gives.  ``sup_first`` is :func:`sup_on_closure` at
    ``config.sup_samples`` samples drawn from the first of the two
    :func:`_child_seed` children of ``seed``; it is at least the largest
    |p| over any prefix of that draw, which is what lets
    :func:`falsify_spectral_set` skip certificates that cannot matter.
    A violation is only reported after the sup estimate has been
    recomputed with ten times the sample budget, from the second child,
    and the gap still exceeds the configured margin; ``sup_refined`` is
    the larger of the two estimates, or ``sup_first`` when there was no
    recompute.  The sampled sup can only undershoot the true sup, which
    inflates the gap, so a reported violation is not rigorous; the
    margin and the resampling only make a spurious one less likely.
    Only the opposite outcome is rigorous, up to the margin: lhs <=
    sampled sup + margin <= true sup + margin.
    """
    lhs = max(op_norm(eval_operator(p, part)) for part, _ in t.parts)
    sup_first = sup_on_closure(
        p, n_samples=config.sup_samples, seed=_child_seed(seed, 0)
    )
    sup_refined = sup_first
    violates = lhs > sup_first + config.falsify_margin
    if violates:
        sup_refined = sup_on_closure(
            p, n_samples=10 * config.sup_samples, seed=_child_seed(seed, 1)
        )
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


# Matrix entries per stacked SVD in _poly_norms: all the trials at
# once on small blocks, one matrix at a time from 256x256 up.
_STACK_ENTRIES = 1 << 16


def _poly_norms(t: Triple, polys) -> np.ndarray:
    """||p(T)|| for each polynomial, the largest over the distinct blocks.

    On every distinct block (:attr:`Triple.parts`) each exponent layout
    (:func:`poly3._layouts`) gets one stack of monomials, all from one
    power table (:func:`poly3._monomials`), and its polynomials are
    evaluated on it together, at most ``_STACK_ENTRIES`` matrix entries
    at a time, each the bits :func:`eval_operator` gives it.  Every norm
    is its matrix's largest singular value from one stacked SVD, as
    :func:`op_norm` gives it, with the same ValueError on non-finite
    entries.
    """
    norms = np.zeros(len(polys))
    layouts = _layouts(polys)
    for part, _ in t.parts:
        step = max(1, _STACK_ENTRIES // part.dim**2)
        stacks = _monomials(part, [exps for exps, _, _ in layouts])
        for (_, members, coefs), monomials in zip(layouts, stacks):
            for lo in range(0, len(members), step):
                chunk = members[lo : lo + step]
                stack = _eval_operator_stack(monomials, coefs[:, lo : lo + step])
                if not np.isfinite(stack).all():
                    raise ValueError("matrix contains non-finite entries")
                sigma = np.linalg.svd(stack, compute_uv=False)
                norms[chunk] = np.maximum(norms[chunk], sigma.max(axis=-1))
    return norms


def _child_seed(seed, *path: int) -> np.random.SeedSequence:
    """The descendant of ``seed`` (an int or a ``SeedSequence``) that
    spawning along ``path`` would give: ``_child_seed(s, k, 1)`` is
    ``SeedSequence(s).spawn(k + 1)[k].spawn(2)[1]``.

    It is derived without spawning from ``seed``, so the same seed
    always gives the same child.  A certificate's sup seeds are the
    children 0 (the first pass) and 1 (the resample) of its seed.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + path, pool_size=seed.pool_size
    )


# Sample points per trial in the falsifier's first bound.
_SCREEN_SAMPLES = 256


def _sample_max(p: Poly3, seed, n: int) -> float:
    """Largest |p| over the first ``n`` boundary samples of ``seed``'s draw.

    These are the first n points of the draw that
    ``sup_on_closure(p, seed=seed)`` samples, scored by the same
    chunked pass, so each |p| is bit for bit what that estimate sees
    there and the result is at most the estimate for any sample count
    of at least n.
    """
    return float(_sample_scores(p, n, seed)[1].max())


@dataclass(frozen=True)
class FalsifyReport:
    """Outcome of a randomized sup-norm inequality search."""

    outcome: str
    trials_run: int
    worst_ratio: float
    commutation_defect: float
    certificate: Certificate | None


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
    the trial count.  Every trial's norm ||p(T)|| is the largest over
    the triple's distinct diagonal blocks (:attr:`Triple.parts`), each
    of which multiplies out every monomial once for all trials.  The
    triple's commutation defect, the largest over its distinct blocks,
    is reported, not enforced; operator evaluation assumes commutation.

    The outcome is that of certifying every trial with
    :func:`violation_certificate`, in trial order, but only the trials
    that can still decide it are certified.  A certificate's sup
    estimate is never below the largest |p| over any prefix of its
    sample draw, so the largest |p| over the first ``_SCREEN_SAMPLES``
    points bounds the trial's sup from below and its ratio ||p(T)|| /
    sup from above.  A trial whose bound might still matter is first
    tightened to the largest |p| over its whole draw, and certified
    only if it still might:

    - Violation pass, in trial order: a trial is certified when
      ||p(T)|| exceeds its sample maximum by the margin, and the first
      certificate that violates ends the search.
    - Worst pass, over the trials run, best first: the trial with the
      largest bound is tightened, or certified once its bound is the
      whole draw's, and goes back with its new bound, until a certified
      ratio comes out on top.  That ratio is at least every other
      trial's bound, so it is the largest, and equal bounds come out in
      trial order, so ties still go to the first trial.  The report's
      certificate is the one computed here.

    Each trial is certified at most once, and every reported number is
    bit for bit that of certifying every trial in order.

    Returns outcome "Violation" with its certificate on the first
    confirmed exceedance, with ``trials_run`` counting the trials up to
    it.  Otherwise the outcome is "NoViolationFound" and the
    certificate is that of the first trial with the largest ratio
    ||p(T)|| / sup, or ``None`` when every ratio is 0.
    """
    trials = config.falsify_trials if trials is None else trials
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    seed = config.seed if seed is None else seed
    comm = max(commutation_defect(part) for part, _ in t.parts)

    # Trial k's sup seed is seed + k for given polynomials; for random
    # ones, its polynomial and sup seeds are the children 0 and 1 of
    # child k of the seed.  Each trial's draw is its sup seed's child 0.
    if polys is not None:
        polys = list(polys)
        sup_path = [(seed + k,) for k in range(len(polys))]
    else:
        root = np.random.SeedSequence(seed)
        polys = [random_poly(degree, seed=_child_seed(root, k, 0)) for k in range(trials)]
        sup_path = [(root, k, 1) for k in range(trials)]

    lhs = _poly_norms(t, polys)
    draws = [_child_seed(*path, 0) for path in sup_path]
    n = config.sup_samples
    # below[k] bounds trial k's certified sup from below: first the
    # largest |p| over a prefix of its draw, then over the whole draw,
    # then, once certified, the certificate's own sup.
    prefix = min(_SCREEN_SAMPLES, n)
    below = _prefix_maxima(polys, draws, prefix)
    whole = np.full(len(polys), prefix == n)
    certs = {}

    def tighten(k):
        if not whole[k]:
            below[k] = _sample_max(polys[k], draws[k], n)
            whole[k] = True
        else:
            certs[k] = violation_certificate(
                t, polys[k], config=config, seed=_child_seed(*sup_path[k])
            )
            below[k] = certs[k].sup_refined

    violation = None
    for k in range(len(polys)):
        while k not in certs and lhs[k] > below[k] + config.falsify_margin:
            tighten(k)
        if k in certs and certs[k].violates:
            violation = k
            break
    run = len(polys) if violation is None else violation + 1

    # Best first: take the trial with the largest ratio bound and tighten
    # it.  A certified ratio that comes out on top is at least every
    # other trial's bound, and equal bounds come out in trial order.
    ratios = (lhs[:run] / np.maximum(below[:run], 1e-300)).tolist()
    heap = [(-r, k) for k, r in enumerate(ratios) if r > 0.0]
    heapq.heapify(heap)
    worst_ratio, worst = 0.0, None
    while heap:
        neg, k = heapq.heappop(heap)
        if k in certs:
            worst_ratio, worst = -neg, k
            break
        tighten(k)
        ratio = float(lhs[k] / max(below[k], 1e-300))
        if ratio > 0.0:
            heapq.heappush(heap, (-ratio, k))

    return FalsifyReport(
        outcome="NoViolationFound" if violation is None else "Violation",
        trials_run=run,
        worst_ratio=float(worst_ratio),
        commutation_defect=float(comm),
        certificate=certs.get(worst if violation is None else violation),
    )


def falsify_to_json(rep: FalsifyReport) -> dict:
    """The falsify block of a verdict document.

    The certificate is written only when it violates.
    """
    doc = {
        "outcome": rep.outcome,
        "worst_ratio": rep.worst_ratio,
        "commutation_defect": rep.commutation_defect,
    }
    cert = rep.certificate
    if cert is not None and cert.violates:
        doc["certificate"] = {
            "poly": poly_to_json(cert.poly),
            "lhs": cert.lhs,
            "sup_first": cert.sup_first,
            "sup_refined": cert.sup_refined,
            "margin": cert.margin,
        }
    return doc


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
