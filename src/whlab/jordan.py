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
are all judged at DEFAULT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import spectra
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


# order_compare's answer for lambda_min(B - A) above DEFAULT_TOL, within it of 0, and below -DEFAULT_TOL or NaN
_RELATIONS = (OrderRelation.LT, OrderRelation.LEQ, OrderRelation.INCOMPARABLE_OR_GT)


def _rows(stack: np.ndarray) -> np.ndarray:
    """(n, d, d) complex stack -> (n, 2d^2) real rows: Re tr(A*B) is a row dot product."""
    return np.ascontiguousarray(stack).reshape(-1, stack.shape[1] ** 2).view(np.float64)


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(X + X*)/2 of each X in the stack; for X = ab with a, b Hermitian, a o b = (ab + ba)/2."""
    return 0.5 * (stack + stack.conj().swapaxes(1, 2))


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
        """Orthogonal projection of m onto span(basis) in the trace inner product."""
        a = np.asarray(m, dtype=np.complex128)
        if a.shape != (self.dim, self.dim):
            raise InputValidationError("dimension mismatch with the algebra")
        return np.tensordot(self.rows @ _rows(a[None])[0], self.basis, axes=1)

    def distance(self, m) -> float:
        return float(np.linalg.norm(self.project(m) - np.asarray(m, dtype=np.complex128)))

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


def classify(algebra: JordanAlgebra, m) -> ConeClass:
    """Position of a Hermitian matrix relative to the algebra and its cone."""
    a = spectra.as_matrix(m)
    if algebra.distance(a) > DEFAULT_TOL:
        return ConeClass.OUTSIDE_ALGEBRA
    lam = spectra.lambda_min(a, tol=DEFAULT_TOL)
    if lam > DEFAULT_TOL:
        return ConeClass.INTERIOR
    if lam >= -DEFAULT_TOL:
        return ConeClass.BOUNDARY
    return ConeClass.OUTSIDE_CONE


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
