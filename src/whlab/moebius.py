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

Stacks: ``boxplus``, ``psi``, ``psi_inv``, ``moebius_contraction``,
``contraction_inverse``, ``qset_contains``, ``zpoint``, ``pair_encode``,
``pair_decode`` and ``classify_zpoint`` take stacks ``(T, d, d)`` as well as
single matrices, as ``spectra`` does: a 2-D input is a stack of one and gets
back what it always did, a stack gets an array or a list.  A ``ZPoint`` or
``PairRep`` may hold a stack; ``PairRep`` indexes like one.  Everything read
off a spectrum is array code on the cached frame V and its per-column
values: Z membership and class test the values, and ``pair_encode`` and
``build_pairs`` form E and A as V diag(w) V* with one weight per column.
Operands of one call share d, and their stacks share a length, except that a single matrix
goes with any stack; anything else is a dimension mismatch, never a
broadcast.  Every guard and check judges each matrix of a stack.
``random_zpoint(..., size=T)`` draws each random quantity of its T trials as
one block and builds, validates and decodes the T points as one stack
(``build_pairs``).
``separate_points`` drops its zero probes by an exact test and judges the
others as one stack per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import spectra
from .errors import (
    DomainError,
    InputValidationError,
    NumericalError,
    WitnessNotFoundError,
)
from .sampling import gram, random_complex, random_hermitian
from .spectra import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    SpectralDecomposition,
    _frobenius,
    _H,
    _require,
    _right_solve,
    _smin,
    _unstack,
    as_matrix,
    assert_hermitian,
    assert_unitary,
    operator_norm,
)

UNITARY_TOL = 100 * DEFAULT_TOL  # the unitary guard of Z points and of psi_inv (Frobenius)
ENTRY_TOL = np.sqrt(DEFAULT_TOL)  # the Hermitian guard of the chart-side maps and of pairs


class ZClass(str, Enum):
    INTERIOR_ORBIT = "interior_orbit"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _shared_shape(*mats: np.ndarray) -> tuple:
    """The shape of the result of a call on these matrices and stacks: one d
    for all, one stack length for the stacks, which a single matrix joins."""
    shape = max((m.shape for m in mats), key=len)
    if any(m.shape != shape and (m.ndim > 2 or m.shape[-1] != shape[-1]) for m in mats):
        raise InputValidationError("dimension mismatch")
    return shape


@dataclass
class ZPoint:
    """A unitary with spectrum in the closed upper half circle, plus its cached
    spectral decomposition; or a stack of them with the stack's decomposition."""

    u: np.ndarray
    dec: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.u.shape[-1]


def _in_z(values: np.ndarray) -> np.ndarray:
    """Whether a spectrum ``(..., d)`` lies in the closed upper half circle as
    pair_encode reads it, one bool per matrix.  Below the equator, the -1
    side (Re < 0) gets ENTRY_TOL of slack: pair encodings are validated at that resolution, so their Cayley
    images dip that far, and the inverse Cayley value there is about Im / 2.
    The +1 side gets only CLUSTER_TOL, the radius that pair_encode folds into
    E; beyond it the inverse Cayley value is about 2 / Im, large and
    negative, so no positive A encodes it."""
    below = np.where(values.real < 0, values.imag >= -ENTRY_TOL, np.abs(values - 1.0) <= CLUSTER_TOL)
    return ((values.imag >= 0) | below).all(axis=-1)


def zpoint(u) -> ZPoint:
    """Validate Z membership (see _in_z) and cache the spectral decomposition."""
    m = as_matrix(u)
    # unitary_eig runs the unitary guard on m
    dec = spectra.unitary_eig(m, tol=UNITARY_TOL)
    worst = dec.values.imag.min(axis=-1)
    _require(_in_z(dec.values), worst, DomainError, "spectrum leaves the upper half circle: Im = {:.3e}")
    return ZPoint(u=m, dec=dec)


@dataclass
class PairRep:
    """Encoding (E, A) of a Z point: E the eigenvalue-1 projection, A the
    inverse Cayley transform of the compression to range(1-E); or a stack of
    them, which indexes like an array of pairs.

    Invariants within ENTRY_TOL: E is an orthogonal projection, A is
    positive, and (1-E) A (1-E) = A.
    """

    e: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.e = assert_hermitian(self.e, tol=ENTRY_TOL)
        self.a = as_matrix(self.a)
        if self.e.shape != self.a.shape:
            raise InputValidationError("dimension mismatch")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN, which fails
            defect = _frobenius(self.e @ self.e - self.e)
        _require(defect <= ENTRY_TOL, defect, InputValidationError, "E is not an orthogonal projection")
        comp = np.eye(self.dim) - self.e
        defect = _frobenius(comp @ self.a @ comp - self.a)
        _require(defect <= ENTRY_TOL, defect, InputValidationError, "(1-E) A (1-E) != A beyond tolerance")
        lam = spectra.lambda_min(self.a, tol=ENTRY_TOL)
        _require(np.asarray(lam) >= -ENTRY_TOL, lam, InputValidationError, "A is not positive")

    @property
    def dim(self) -> int:
        return self.e.shape[-1]

    def __getitem__(self, index) -> "PairRep":
        """The pairs of a stack at ``index``; the stack's checks cover them."""
        pair = object.__new__(PairRep)
        pair.e, pair.a = self.e[index], self.a[index]
        if pair.e.ndim < 2:
            raise IndexError("a pair index selects matrices of the stack, not entries")
        return pair

    def close_to(self, other: "PairRep", tol: float):
        return _unstack(
            (np.asarray(operator_norm(self.e - other.e)) <= tol) & (np.asarray(operator_norm(self.a - other.a)) <= tol)
        )


def boxplus(u, b) -> np.ndarray:
    """Moebius action U [+] B = ((2i+B)U - B)(BU + 2i - B)^{-1}.

    The denominator is invertible for every unitary U and Hermitian B; a
    near-singular solve therefore flags corrupted input.  The linear system
    is solved column-wise, never forming an explicit inverse.
    """
    mu = as_matrix(u)
    mb = as_matrix(b)
    _shared_shape(mu, mb)
    eye = np.eye(mu.shape[-1])
    numer = (2j * eye + mb) @ mu - mb
    denom = mb @ mu + 2j * eye - mb
    smin = _smin(denom)
    _require(smin >= DEFAULT_TOL, smin, NumericalError, "BU + 2i - B nearly singular (sigma_min = {:.3e})")
    return _right_solve(denom, numer)


def classify_zpoint(u):
    """Locate a unitary relative to Z: outside, on the -1 boundary (within
    CLUSTER_TOL of -1), or in the dense -1-free part; for a stack, a flat
    list of classes in C order."""
    values = spectra.unitary_eig(u, tol=UNITARY_TOL).values
    boundary = (np.abs(values + 1.0) <= CLUSTER_TOL).any(axis=-1)
    classes = np.array([ZClass.INTERIOR_ORBIT, ZClass.BOUNDARY, ZClass.OUTSIDE], dtype=object)
    classes = classes[np.where(_in_z(values), boundary, 2)]
    return classes.ravel().tolist() if values.ndim > 1 else classes


def psi(a) -> np.ndarray:
    """psi(A) = (-A + i)(A + i)^{-1}, mapping the positive cone into Z."""
    m = assert_hermitian(a)
    eye = np.eye(m.shape[-1])
    return _right_solve(m + 1j * eye, -m + 1j * eye)


def psi_inv(u) -> np.ndarray:
    """Inverse chart psi^{-1}(U) = i(1 - U)(1 + U)^{-1}; needs the spectrum
    farther than CLUSTER_TOL from -1."""
    m = assert_unitary(u, tol=UNITARY_TOL)
    eye = np.eye(m.shape[-1])
    denom = eye + m
    smin = _smin(denom)
    _require(smin >= CLUSTER_TOL, smin, DomainError, "not in the -1-free part: spectrum within {:.3e} of -1")
    h = _right_solve(denom, 1j * (eye - m))
    return 0.5 * (h + _H(h))


def moebius_contraction(a, b) -> np.ndarray:
    """The chart-side form A(BA + 1)^{-1} of the Moebius translate psi(A)[+]B."""
    ma = assert_hermitian(a, tol=ENTRY_TOL)
    mb = assert_hermitian(b, tol=ENTRY_TOL)
    _shared_shape(ma, mb)
    denom = mb @ ma + np.eye(ma.shape[-1])
    smin = _smin(denom)
    _require(smin >= DEFAULT_TOL, smin, NumericalError, "BA + 1 nearly singular (sigma_min = {:.3e})")
    out = _right_solve(denom, ma)
    return 0.5 * (out + _H(out))


def contraction_inverse(c, b) -> np.ndarray:
    """Inverse of A -> A(BA+1)^{-1} on its range {C in Q : C < B^{-1}}.

    Returns (1 - CB)^{-1} C.  The strict order precondition C < B^{-1} is
    enforced; outside the range the formula leaves the cone.
    """
    mc = assert_hermitian(c, tol=ENTRY_TOL)
    mb = assert_hermitian(b, tol=ENTRY_TOL)
    shape = _shared_shape(mc, mb)
    # both eigenvalue reads are of matrices guarded above or Hermitian by
    # construction, so they skip lambda_min's guard
    lam = np.linalg.eigvalsh(mb)[..., 0]
    _require(lam > DEFAULT_TOL, lam, DomainError, "B is not interior (not positive definite)")
    b_inv = np.linalg.inv(mb)
    lam = np.linalg.eigvalsh(0.5 * (b_inv + _H(b_inv)) - mc)[..., 0]
    _require(lam > DEFAULT_TOL, lam, DomainError, "C not strictly below B^{{-1}}")
    denom = np.eye(shape[-1]) - mc @ mb
    smin = _smin(denom)
    _require(smin >= DEFAULT_TOL, smin, NumericalError, "1 - CB nearly singular (sigma_min = {:.3e})")
    out = np.linalg.solve(denom, np.broadcast_to(mc, shape))
    return 0.5 * (out + _H(out))


def pair_encode(z: ZPoint) -> PairRep:
    """Collapse a Z point to (E, A): E sums the spectral projections of
    eigenvalues within CLUSTER_TOL of 1, A carries the inverse Cayley
    transform of the rest on range(1-E): each is a function of U through its
    frame, one weight per column."""
    values = z.dec.values
    one = np.abs(values - 1.0) <= CLUSTER_TOL
    # scalar_inverse_cayley(-1) = 0: the columns of E carry no A
    w = np.real(spectra.scalar_inverse_cayley(np.where(one, -1.0, values)))
    a = replace(z.dec, values=w).reconstruct()
    return PairRep(e=replace(z.dec, values=one).reconstruct(), a=0.5 * (a + _H(a)))


def pair_decode(p: PairRep) -> ZPoint:
    """Rebuild the unitary E + (1-E) cayley(A) (1-E) from its pair encoding."""
    comp = np.eye(p.dim) - p.e
    u = p.e + comp @ spectra.cayley(0.5 * (p.a + _H(p.a)), tol=ENTRY_TOL) @ comp
    return zpoint(u)


def qset_contains(p: PairRep, b, tol: float = DEFAULT_TOL):
    """Membership of B in Q_{(E,A)} = {B : A + (1-E) B (1-E) >= 0}; a bool
    array for a stack of pairs or of B's."""
    mb = assert_hermitian(b, tol=np.sqrt(tol))
    _shared_shape(p.e, mb)
    comp = np.eye(p.dim) - p.e
    probe = p.a + comp @ mb @ comp
    # Hermitian by construction: read the eigenvalue without a second guard
    return _unstack(np.linalg.eigvalsh(0.5 * (probe + _H(probe)))[..., 0] >= -tol)


PROBE_EXPONENTS = range(-8, 9)
PROBE_SCALES = np.array([sign * 2.0**k for k in PROBE_EXPONENTS for sign in (1.0, -1.0)])


def separate_points(p1: PairRep, p2: PairRep):
    """Find a Hermitian witness whose Q-set membership differs between two
    pair encodings, or None when the pairs agree within 10 DEFAULT_TOL.

    Probes scaled projections alpha*E over a geometric two-sided grid, then
    the -A probes, and returns the first nonzero one that separates.  Zero
    probes (every scaled E = 0) are dropped by an exact test before the
    nonzero ones are judged as one stack per pair.  The probe grid has no
    completeness guarantee, so an exhausted sweep on genuinely distinct pairs
    raises WitnessNotFoundError instead of guessing.
    """
    if p1.e.shape != p2.e.shape or p1.e.ndim != 2:
        raise InputValidationError("dimension mismatch: separate_points takes one pair on each side")
    if p1.close_to(p2, tol=DEFAULT_TOL * 10):
        return None

    dim = p1.dim
    scaled = PROBE_SCALES[:, None, None, None] * np.array([p1.e, p2.e])
    probes = np.concatenate([scaled.reshape(-1, dim, dim), [-p1.a, -p2.a]])
    probes = probes[probes.any(axis=(1, 2))]  # not empty: two pairs with E = A = 0 are close
    probes = 0.5 * (probes + _H(probes))
    separates = qset_contains(p1, probes) != qset_contains(p2, probes)
    if not separates.any():
        raise WitnessNotFoundError("probe sweep exhausted without a separating witness")
    return probes[np.argmax(separates)].copy()


def build_pairs(h: np.ndarray, chosen: np.ndarray, g: np.ndarray, planted, directions) -> PairRep:
    """The stack of (E, A) pairs of drawn arrays: Hermitians ``h`` and
    Gaussians ``g``, both ``(T, d, d)``, the choices ``chosen`` ``(T, d)``,
    and one direction ``(d,)`` for each trial index in ``planted``.

    E sums the chosen spectral projections of h: the columns of its frame
    whose run (cluster) r has ``chosen[t, r]``.  A is G*G compressed to
    range(1-E).  A planted boundary gives the compression a kernel vector
    inside range(1-E), along the direction, which plants the eigenvalue -1.
    """
    dec = spectra.hermitian_eig(h)
    # the run of each column: its merged values repeat within a run and rise between runs
    runs = np.zeros(dec.values.shape, dtype=np.int64)
    runs[:, 1:] = np.cumsum(np.diff(dec.values, axis=-1) != 0, axis=-1)
    e = replace(dec, values=np.take_along_axis(chosen, runs, axis=-1)).reconstruct()
    comp = np.eye(h.shape[-1]) - e
    a = comp @ gram(g) @ comp
    a = 0.5 * (a + _H(a))
    for t, direction in zip(planted, directions):
        a[t] = _plant_boundary(comp[t], a[t], direction)
    return PairRep(e=e, a=a)


def _plant_boundary(comp: np.ndarray, a: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Compress A off a unit vector of range(comp) along ``direction``; A as
    it is when range(comp) is empty.  comp = 1 - E is the projection onto
    the unchosen columns of a frame, so it projects onto its own range."""
    if np.trace(comp).real < 0.5:
        # E is the whole space; fall back to a plain boundary-free point
        return a
    v = comp @ direction
    if np.linalg.norm(v) < 1e-9:
        v = comp[:, int(np.argmax(np.linalg.norm(comp, axis=0)))]
    v = v / np.linalg.norm(v)
    kill = comp - np.outer(v, v.conj())
    a = kill @ a @ kill
    return 0.5 * (a + a.conj().T)


def random_zpoint(rng: np.random.Generator, dim: int, size: int | None = None, boundary=False) -> ZPoint:
    """Random Z point sampled through the (E, A) parameterization of
    ``build_pairs``; with ``size`` a stack of that many, decoded together.

    Each quantity of the trials is drawn as one block, in this order: the
    Hermitians, ``dim`` uniforms per trial (cluster r of the Hermitian enters
    E when the r-th is below 0.3), the Gaussians G, and one Gaussian direction
    for each trial where ``boundary`` (a bool, or one per trial) plants the
    eigenvalue -1.
    """
    count = 1 if size is None else size
    h = random_hermitian(rng, dim, size=count)
    chosen = rng.uniform(size=(count, dim)) < 0.3
    g = random_complex(rng, dim, size=count)
    planted = np.flatnonzero(np.broadcast_to(boundary, (count,)))
    directions = rng.standard_normal((len(planted), dim))
    pairs = build_pairs(h, chosen, g, planted, directions)
    return pair_decode(pairs if size is not None else pairs[0])
