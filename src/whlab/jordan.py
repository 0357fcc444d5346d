"""Special Euclidean Jordan algebras of Hermitian matrices.

A Jordan algebra here is a real subspace V of the Hermitian matrices that
contains the identity and is closed under the anticommutator product
a o b = (ab + ba)/2.  The module stores an orthonormal basis with respect to
the trace inner product <A, B> = Re tr(AB), tests membership by projection
distance, and classifies elements against the positive cone
Q = {a in V : a >= 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(A*B); real-bilinear on the Hermitians, where it equals Re tr(AB)."""
    return float(np.real(np.vdot(a, b)))


def _frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


@dataclass
class JordanAlgebra:
    """Orthonormal basis of a Jordan-closed real subspace of Hermitians."""

    dim: int
    basis: list
    tol: float = DEFAULT_TOL

    @property
    def rank(self) -> int:
        return len(self.basis)

    def project(self, m: np.ndarray) -> np.ndarray:
        """Orthogonal projection of m onto span(basis) in the trace inner product."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for b in self.basis:
            out += trace_inner(b, m) * b
        return out

    def distance(self, m: np.ndarray) -> float:
        return _frobenius(m - self.project(m))

    def contains(self, m: np.ndarray) -> bool:
        return self.distance(m) <= self.tol


def _orthonormalize(candidates, seed_basis, dim, tol):
    """Modified Gram-Schmidt of candidates against seed_basis, two passes."""
    basis = list(seed_basis)
    for cand in candidates:
        v = cand.astype(np.complex128)
        for _ in range(2):
            for b in basis:
                v = v - trace_inner(b, v) * b
        norm = _frobenius(v)
        if norm > max(tol, 1e-12):
            basis.append(v / norm)
    return basis


def generate_algebra(generators, dim: int | None = None, tol: float = DEFAULT_TOL) -> JordanAlgebra:
    """Smallest Jordan algebra containing the identity and the generators.

    Iterates span-closure under pairwise anticommutators until the dimension
    stabilizes; the round count is capped at dim^2, the real dimension bound
    for a subspace of Hermitians.
    """
    generators = [spectra.assert_hermitian(g, tol=tol) for g in generators]
    if dim is None:
        if not generators:
            raise InputValidationError("dimension required when no generators are given")
        dim = generators[0].shape[0]
    for g in generators:
        if g.shape[0] != dim:
            raise InputValidationError("generator dimensions disagree")

    basis = _orthonormalize([np.eye(dim, dtype=np.complex128)] + generators, [], dim, tol)
    for _ in range(dim * dim):
        products = []
        for a in basis:
            for b in basis:
                products.append(0.5 * (a @ b + b @ a))
        new_basis = _orthonormalize(products, basis, dim, tol)
        if len(new_basis) == len(basis):
            break
        basis = new_basis
    # keep the basis Hermitian: Gram-Schmidt of Hermitians stays Hermitian,
    # this just strips accumulated rounding skew
    basis = [0.5 * (b + b.conj().T) for b in basis]
    return JordanAlgebra(dim=dim, basis=basis, tol=tol)


def hermitian_algebra(dim: int, tol: float = DEFAULT_TOL) -> JordanAlgebra:
    """The full algebra of dim x dim Hermitian matrices."""
    gens = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=np.complex128)
        e[i, i] = 1.0
        gens.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=np.complex128)
            e[i, j] = e[j, i] = 1.0
            gens.append(e)
            f = np.zeros((dim, dim), dtype=np.complex128)
            f[i, j] = -1j
            f[j, i] = 1j
            gens.append(f)
    return generate_algebra(gens, dim=dim, tol=tol)


def classify(algebra: JordanAlgebra, m, tol: float | None = None) -> ConeClass:
    """Position of a Hermitian matrix relative to the algebra and its cone."""
    a = spectra.as_matrix(m)
    if a.shape[0] != algebra.dim:
        raise InputValidationError("dimension mismatch with the algebra")
    if tol is None:
        tol = algebra.tol
    if algebra.distance(a) > tol:
        return ConeClass.OUTSIDE_ALGEBRA
    lam = spectra.lambda_min(a, tol=max(tol, spectra.DEFAULT_TOL))
    if lam > tol:
        return ConeClass.INTERIOR
    if lam >= -tol:
        return ConeClass.BOUNDARY
    return ConeClass.OUTSIDE_CONE


def order_compare(a, b, tol: float = DEFAULT_TOL) -> OrderRelation:
    """Compare Hermitians in the positive-cone order via lambda_min(B - A)."""
    ma = spectra.as_matrix(a)
    mb = spectra.as_matrix(b)
    if ma.shape != mb.shape:
        raise InputValidationError("dimension mismatch")
    lam = spectra.lambda_min(mb - ma, tol=max(tol, spectra.DEFAULT_TOL))
    if lam > tol:
        return OrderRelation.LT
    if lam >= -tol:
        return OrderRelation.LEQ
    return OrderRelation.INCOMPARABLE_OR_GT
