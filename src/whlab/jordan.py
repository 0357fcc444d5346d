"""Special Euclidean Jordan algebras of Hermitian matrices.

A Jordan algebra here is a real subspace V of the Hermitian matrices that
contains the identity and is closed under the anticommutator product
a o b = (ab + ba)/2.  The module stores an orthonormal basis with respect to
the trace inner product <A, B> = Re tr(AB) as one stacked frame, whose real
row view turns inner products into dot products; it tests membership by
projection distance and classifies elements against the positive cone
Q = {a in V : a >= 0}.  Closure rounds multiply only the elements the
previous round added, with block Gram-Schmidt (CGS2) against the frame.
Membership, the rank of a closure, the cone classes and the order relations
are all judged at DEFAULT_TOL.  ``project``, ``distance``, ``classify`` and
``order_compare`` also take a (T, d, d) stack and answer matrix by matrix
(``classify`` and ``order_compare`` with a list); ``classify`` runs no
eigensolve on a matrix off the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import spectra
from .spectra import _frobenius, _hermitian_part
from .errors import InputValidationError

DEFAULT_TOL = 1e-9


class ConeClass(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE_CONE = "outside_cone"
    OUTSIDE_ALGEBRA = "outside_algebra"


class OrderRelation(str, Enum):
    LT = "lt"
    LEQ = "leq"
    INCOMPARABLE_OR_GT = "incomparable-or-gt"


# classify's answer for lambda_min above DEFAULT_TOL, within it of 0 and below -DEFAULT_TOL, then off the algebra
_CLASSES = (ConeClass.INTERIOR, ConeClass.BOUNDARY, ConeClass.OUTSIDE_CONE, ConeClass.OUTSIDE_ALGEBRA)
# order_compare's answer for lambda_min(B - A) above DEFAULT_TOL, within it of 0, and below -DEFAULT_TOL or NaN
_RELATIONS = (OrderRelation.LT, OrderRelation.LEQ, OrderRelation.INCOMPARABLE_OR_GT)


def _rows(stack: np.ndarray) -> np.ndarray:
    """(..., d, d) complex stack -> (n, 2d^2) real rows: Re tr(A*B) is a row dot product."""
    return np.ascontiguousarray(stack).reshape(-1, stack.shape[-1] ** 2).view(np.float64)


@dataclass
class JordanAlgebra:
    """Orthonormal basis of a Jordan-closed real subspace of Hermitians: a (rank, dim, dim) stack and its rows."""

    dim: int
    basis: np.ndarray
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1 or any(np.shape(b) != (self.dim, self.dim) for b in self.basis):
            raise InputValidationError(f"an algebra needs dim >= 1 and dim x dim basis elements (dim = {self.dim})")
        self.basis = np.array(self.basis, dtype=np.complex128).reshape(-1, self.dim, self.dim)
        self.rows = _rows(self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def project(self, m) -> np.ndarray:
        """Orthogonal projection of m, or of each matrix of a (..., dim, dim)
        stack, onto span(basis) in the trace inner product."""
        a = np.asarray(m, dtype=np.complex128)
        if a.ndim < 2 or a.shape[-2:] != (self.dim, self.dim):
            raise InputValidationError("dimension mismatch with the algebra")
        return np.tensordot(_rows(a) @ self.rows.T, self.basis, axes=1).reshape(a.shape)

    def distance(self, m):
        """Frobenius distance to the algebra; an array of them for a stack."""
        a = np.asarray(m, dtype=np.complex128)
        gap = _frobenius(self.project(a) - a)
        return float(gap) if a.ndim == 2 else gap

    def contains(self, m) -> bool:
        return self.distance(m) <= DEFAULT_TOL


def _orthonormalize(candidates: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Orthonormal rows extending the orthonormal frame rows to span the
    candidates: two block projections on the frame (CGS2), then each survivor
    in order, projected twice on the rows added so far.  A residual of norm
    <= DEFAULT_TOL is dropped."""
    for _ in range(2):
        candidates = candidates - (candidates @ frame.T) @ frame
    added = np.empty((0, frame.shape[1]))
    for v in candidates[np.linalg.norm(candidates, axis=1) > DEFAULT_TOL]:
        for _ in range(2):
            v = v - (added @ v) @ added
        norm = np.linalg.norm(v)
        if norm > DEFAULT_TOL:
            added = np.vstack([added, v / norm])
    return added


def generate_algebra(generators, dim: int | None = None) -> JordanAlgebra:
    """Smallest Jordan algebra containing the identity and the generators.

    Each round multiplies the elements the previous round added with every
    basis element (old x old products are already in the span) until a round
    adds nothing, for at most dim^2 rounds: the real dimension of the Hermitians.
    """
    generators = [spectra.assert_hermitian(g, tol=DEFAULT_TOL) for g in generators]
    if dim is None:
        if not generators:
            raise InputValidationError("dimension required when no generators are given")
        dim = generators[0].shape[-1]
    if dim < 1 or any(g.shape != (dim, dim) for g in generators):
        raise InputValidationError("the algebra dimension must be positive and shared by the generators")

    seeds = np.array([np.eye(dim)] + generators, dtype=np.complex128)
    frame = new = _orthonormalize(_rows(seeds), np.empty((0, 2 * dim * dim)))
    for _ in range(dim * dim):
        mats = frame.view(np.complex128).reshape(-1, dim, dim)
        i, j = np.triu_indices(len(mats))
        pick = j >= len(mats) - len(new)  # each unordered pair with a new element, once
        # for a, b Hermitian the Jordan product a o b = (ab + ba)/2 is the Hermitian part of ab
        new = _orthonormalize(_rows(_hermitian_part(mats[i[pick]] @ mats[j[pick]])), frame)
        if not len(new):
            break
        frame = np.vstack([frame, new])
    # the span is Hermitian; strip the rounding skew Gram-Schmidt accumulates
    basis = frame.view(np.complex128).reshape(-1, dim, dim)
    return JordanAlgebra(dim=dim, basis=_hermitian_part(basis))


def hermitian_algebra(dim: int) -> JordanAlgebra:
    """The full algebra of dim x dim Hermitians: E_ii, E_ij + E_ji and i(E_ji - E_ij), i < j."""
    eye = np.eye(dim, dtype=np.complex128)
    i, j = np.triu_indices(dim, 1)
    e_ij = eye[i, :, None] * eye[j, None, :]
    e_ji = e_ij.swapaxes(1, 2)
    gens = np.concatenate([eye[:, :, None] * eye[:, None, :], e_ij + e_ji, 1j * (e_ji - e_ij)])
    return generate_algebra(gens, dim=dim)


def classify(algebra: JordanAlgebra, m):
    """Position of a Hermitian matrix relative to the algebra and its cone;
    for a (T, d, d) stack, a list of the T classes.  A matrix outside the
    algebra gets no eigensolve."""
    a = spectra.as_matrix(m)
    if a.ndim > 3:
        raise InputValidationError("dimension mismatch: classify takes a matrix or a stack of them")
    stack = a.reshape(-1, *a.shape[-2:])
    inside = algebra.distance(stack) <= DEFAULT_TOL
    kinds = np.full(len(stack), _CLASSES.index(ConeClass.OUTSIDE_ALGEBRA))
    if inside.any():
        lam = spectra.lambda_min(stack[inside], tol=DEFAULT_TOL)
        kinds[inside] = np.where(lam > DEFAULT_TOL, 0, np.where(lam >= -DEFAULT_TOL, 1, 2))
    classes = [_CLASSES[k] for k in kinds.tolist()]
    return classes if a.ndim == 3 else classes[0]


def order_compare(a, b):
    """Compare Hermitians in the positive-cone order via lambda_min(B - A); for
    two (T, d, d) stacks, a list of the T relations of matching matrices."""
    ma = spectra.as_matrix(a)
    mb = spectra.as_matrix(b)
    if ma.shape != mb.shape or ma.ndim > 3:
        raise InputValidationError("dimension mismatch: order_compare takes two matrices or two stacks of one shape")
    lam = np.atleast_1d(spectra.lambda_min(mb - ma, tol=DEFAULT_TOL))
    kinds = np.where(lam > DEFAULT_TOL, 0, np.where(lam >= -DEFAULT_TOL, 1, 2)).tolist()
    relations = [_RELATIONS[k] for k in kinds]
    return relations if ma.ndim == 3 else relations[0]
