"""Moebius action of Hermitian matrices on the unitary group.

The additive action of the Hermitians on themselves extends through the
Cayley transform to the fractional-linear right action

    U [+] B = ((2i + B)U - B)(BU + 2i - B)^{-1}

on the unitary group.  On top of it sit the geometry of the upper-half-circle
set Z = {U unitary : spectrum in the closed upper half circle}, the chart
psi(A) = (-A+i)(A+i)^{-1} of its -1-free part, the contraction map
A -> A(BA+1)^{-1} with its explicit inverse, the (E, A) pair encoding of a
Z point by its eigenvalue-1 projection and the inverse Cayley transform of
the complement compression, and the half-space membership sets
Q_{(E,A)} = {B : A + (1-E)B(1-E) >= 0} together with a probing scheme that
separates distinct pairs by such a membership witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spectra
from .errors import (
    DomainError,
    InputValidationError,
    NumericalError,
    WitnessNotFoundError,
)
from .jordan import JordanAlgebra
from .sampling import random_hermitian, random_positive
from .spectra import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    SpectralDecomposition,
    as_matrix,
    assert_hermitian,
    assert_unitary,
    operator_norm,
)


class ZClass(str, Enum):
    INTERIOR_ORBIT = "interior_orbit"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass
class ZPoint:
    """A unitary with spectrum in the closed upper half circle, plus its cached
    spectral decomposition."""

    u: np.ndarray
    dec: SpectralDecomposition
    tol: float = DEFAULT_TOL

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def zpoint(u, tol: float = DEFAULT_TOL, seed: int = 0) -> ZPoint:
    """Validate Z membership and cache the spectral decomposition.

    The Im >= 0 test carries sqrt(tol) slack: pair encodings are validated at
    that resolution and their Cayley images can dip the same amount below the
    equator of the circle.
    """
    m = as_matrix(u)
    # unitary_eig runs the unitary guard on m at the same 100 * tol
    dec = spectra.unitary_eig(m, tol=100 * tol, seed=seed)
    worst = min(float(np.imag(lam)) for lam in dec.eigenvalues)
    if worst < -np.sqrt(tol):
        raise DomainError(f"spectrum leaves the upper half circle: Im = {worst:.3e}")
    return ZPoint(u=m, dec=dec, tol=tol)


@dataclass
class PairRep:
    """Encoding (E, A) of a Z point: E the eigenvalue-1 projection, A the
    inverse Cayley transform of the compression to range(1-E).

    Invariants within tol: E is an orthogonal projection, A is positive, and
    (1-E) A (1-E) = A.
    """

    e: np.ndarray
    a: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        tol = max(self.tol, DEFAULT_TOL)
        check = np.sqrt(tol)
        self.e = assert_hermitian(self.e, tol=check)
        self.a = as_matrix(self.a)
        if np.linalg.norm(self.e @ self.e - self.e) > check:
            raise InputValidationError("E is not an orthogonal projection")
        comp = np.eye(self.dim) - self.e
        if np.linalg.norm(comp @ self.a @ comp - self.a) > check:
            raise InputValidationError("(1-E) A (1-E) != A beyond tolerance")
        if spectra.lambda_min(self.a, tol=check) < -check:
            raise InputValidationError("A is not positive")

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    def close_to(self, other: "PairRep", tol: float) -> bool:
        return (
            operator_norm(self.e - other.e) <= tol
            and operator_norm(self.a - other.a) <= tol
        )


def boxplus(u, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moebius action U [+] B = ((2i+B)U - B)(BU + 2i - B)^{-1}.

    The denominator is invertible for every unitary U and Hermitian B; a
    near-singular solve therefore flags corrupted input.  The linear system
    is solved column-wise, never forming an explicit inverse.
    """
    mu = as_matrix(u)
    mb = as_matrix(b)
    if mu.shape != mb.shape:
        raise InputValidationError("dimension mismatch")
    eye = np.eye(mu.shape[0])
    numer = (2j * eye + mb) @ mu - mb
    denom = mb @ mu + 2j * eye - mb
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < tol:
        raise NumericalError(f"BU + 2i - B nearly singular (sigma_min = {smin:.3e})")
    return np.linalg.solve(denom.T, numer.T).T


def classify_zpoint(u, tol: float = DEFAULT_TOL, cluster: float = CLUSTER_TOL, seed: int = 0) -> ZClass:
    """Locate a unitary relative to Z: outside, on the -1 boundary, or in the
    dense -1-free part."""
    dec = spectra.unitary_eig(u, tol=100 * tol, seed=seed)
    eigs = dec.eigenvalues
    if min(float(np.imag(lam)) for lam in eigs) < -np.sqrt(tol):
        return ZClass.OUTSIDE
    if min(abs(lam + 1.0) for lam in eigs) <= cluster:
        return ZClass.BOUNDARY
    return ZClass.INTERIOR_ORBIT


def psi(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """psi(A) = (-A + i)(A + i)^{-1}, mapping the positive cone into Z."""
    m = assert_hermitian(a, tol=tol)
    eye = np.eye(m.shape[0])
    return np.linalg.solve((m + 1j * eye).T, (-m + 1j * eye).T).T


def psi_inv(u, tol: float = DEFAULT_TOL, cluster: float = CLUSTER_TOL) -> np.ndarray:
    """Inverse chart psi^{-1}(U) = i(1 - U)(1 + U)^{-1}; needs -1 off the spectrum."""
    m = assert_unitary(u, tol=100 * tol)
    eye = np.eye(m.shape[0])
    denom = eye + m
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < cluster:
        raise DomainError(f"not in the -1-free part: spectrum within {smin:.3e} of -1")
    h = np.linalg.solve(denom.T, (1j * (eye - m)).T).T
    return 0.5 * (h + h.conj().T)


def moebius_contraction(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The chart-side form A(BA + 1)^{-1} of the Moebius translate psi(A)[+]B."""
    ma = assert_hermitian(a, tol=np.sqrt(tol))
    mb = assert_hermitian(b, tol=np.sqrt(tol))
    eye = np.eye(ma.shape[0])
    denom = mb @ ma + eye
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < tol:
        raise NumericalError(f"BA + 1 nearly singular (sigma_min = {smin:.3e})")
    out = np.linalg.solve(denom.T, ma.T).T
    return 0.5 * (out + out.conj().T)


def contraction_inverse(c, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of A -> A(BA+1)^{-1} on its range {C in Q : C < B^{-1}}.

    Returns (1 - CB)^{-1} C.  The strict order precondition C < B^{-1} is
    enforced; outside the range the formula leaves the cone.
    """
    entry = np.sqrt(tol)
    mc = assert_hermitian(c, tol=entry)
    mb = assert_hermitian(b, tol=entry)
    eye = np.eye(mc.shape[0])
    if spectra.lambda_min(mb, tol=entry) <= tol:
        raise DomainError("B is not interior (not positive definite)")
    b_inv = np.linalg.inv(mb)
    if spectra.lambda_min(0.5 * (b_inv + b_inv.conj().T) - mc, tol=entry) <= tol:
        raise DomainError("C not strictly below B^{-1}")
    denom = eye - mc @ mb
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < tol:
        raise NumericalError(f"1 - CB nearly singular (sigma_min = {smin:.3e})")
    out = np.linalg.solve(denom, mc)
    return 0.5 * (out + out.conj().T)


def pair_encode(z: ZPoint, cluster: float = CLUSTER_TOL) -> PairRep:
    """Collapse a Z point to (E, A): E sums the spectral projections of
    eigenvalues clustered at 1, A carries the inverse Cayley transform of the
    rest on range(1-E)."""
    dim = z.dim
    e = np.zeros((dim, dim), dtype=np.complex128)
    a = np.zeros((dim, dim), dtype=np.complex128)
    for lam, proj in zip(z.dec.eigenvalues, z.dec.projections):
        if abs(lam - 1.0) <= cluster:
            e += proj
        else:
            a += np.real(spectra.scalar_inverse_cayley(lam)) * proj
    a = 0.5 * (a + a.conj().T)
    return PairRep(e=e, a=a, tol=z.tol)


def pair_decode(p: PairRep, tol: float = DEFAULT_TOL, seed: int = 0) -> ZPoint:
    """Rebuild the unitary E + (1-E) cayley(A) (1-E) from its pair encoding."""
    comp = np.eye(p.dim) - p.e
    u = p.e + comp @ spectra.cayley(0.5 * (p.a + p.a.conj().T), tol=np.sqrt(tol)) @ comp
    return zpoint(u, tol=tol, seed=seed)


def qset_contains(p: PairRep, b, algebra: JordanAlgebra | None = None, tol: float = DEFAULT_TOL) -> bool:
    """Membership of B in Q_{(E,A)} = {B : A + (1-E) B (1-E) >= 0}."""
    mb = assert_hermitian(b, tol=np.sqrt(tol))
    if mb.shape[0] != p.dim or (algebra is not None and algebra.dim != p.dim):
        raise InputValidationError("dimension mismatch")
    if algebra is not None and not algebra.contains(mb):
        raise DomainError("B lies outside the ambient Jordan algebra")
    comp = np.eye(p.dim) - p.e
    probe = p.a + comp @ mb @ comp
    # Hermitian by construction: read the eigenvalue without a second guard
    return float(np.linalg.eigvalsh(0.5 * (probe + probe.conj().T))[0]) >= -tol


PROBE_EXPONENTS = range(-8, 9)


def separate_points(
    p1: PairRep,
    p2: PairRep,
    algebra: JordanAlgebra | None = None,
    tol: float = DEFAULT_TOL,
):
    """Find a Hermitian witness whose Q-set membership differs between two
    pair encodings, or None when the pairs agree within tolerance.

    Probes scaled projections alpha*E over a geometric two-sided grid, then
    the -A probes.  The probe grid has no completeness guarantee, so an
    exhausted sweep on genuinely distinct pairs raises WitnessNotFoundError
    instead of guessing.
    """
    if p1.dim != p2.dim:
        raise InputValidationError("dimension mismatch")
    if p1.close_to(p2, tol=max(tol, 1e-12) * 10):
        return None

    probes = []
    for k in PROBE_EXPONENTS:
        for sign in (1.0, -1.0):
            alpha = sign * 2.0 ** k
            probes.append(alpha * p1.e)
            probes.append(alpha * p2.e)
    probes.append(-p1.a)
    probes.append(-p2.a)

    for b in probes:
        if operator_norm(b) == 0.0:
            continue
        bh = 0.5 * (b + b.conj().T)
        if qset_contains(p1, bh, algebra, tol=tol) != qset_contains(p2, bh, algebra, tol=tol):
            return bh
    raise WitnessNotFoundError("probe sweep exhausted without a separating witness")


def random_zpoint(
    rng: np.random.Generator,
    dim: int,
    tol: float = DEFAULT_TOL,
    allow_projection: bool = True,
    force_boundary: bool = False,
) -> ZPoint:
    """Random Z point sampled through the (E, A) parameterization.

    E is a random sum of spectral projections of a random Hermitian, A a
    random positive matrix compressed to range(1-E).  With force_boundary the
    compression is given a kernel vector inside range(1-E), which plants the
    eigenvalue -1.
    """
    dec = spectra.hermitian_eig(random_hermitian(rng, dim))
    e = np.zeros((dim, dim), dtype=np.complex128)
    if allow_projection:
        for proj in dec.projections:
            if rng.uniform() < 0.3:
                e += proj
    comp = np.eye(dim) - e
    a = comp @ random_positive(rng, dim) @ comp
    a = 0.5 * (a + a.conj().T)
    if force_boundary:
        comp_dec = spectra.hermitian_eig(0.5 * (comp + comp.conj().T))
        vecs = None
        for lam, proj in zip(comp_dec.eigenvalues, comp_dec.projections):
            if abs(lam - 1.0) <= 0.5:
                vecs = proj
        if vecs is None:
            # E is the whole space; fall back to a plain boundary-free point
            return pair_decode(PairRep(e=e, a=a, tol=tol), tol=tol)
        v = vecs @ rng.standard_normal(dim)
        if np.linalg.norm(v) < 1e-9:
            v = vecs[:, int(np.argmax(np.linalg.norm(vecs, axis=0)))]
        v = v / np.linalg.norm(v)
        kill = comp - np.outer(v, v.conj())
        a = kill @ a @ kill
        a = 0.5 * (a + a.conj().T)
    return pair_decode(PairRep(e=e, a=a, tol=tol), tol=tol)
