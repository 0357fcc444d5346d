"""Dense complex spectral kernel.

Hermitian and unitary spectral decompositions with eigenvalue clustering,
and the Cayley transform A -> (A+i)(A-i)^{-1} and its inverse.  Everything
else in the package funnels its linear algebra through this module.

A decomposition is the eigh frame V with one merged eigenvalue per column:
f(M) = V f(values) V* is the functional calculus (Higham, Functions of
Matrices, SIAM 2008), and a cluster's spectral projection is V_c V_c* over
the columns that hold its value.

Unitary spectra are reduced to the Hermitian case: pick a phase theta, from a
fixed pseudo-random sequence, whose rotation e^{i theta}U keeps the spectrum
away from 1, pull back through the inverse Cayley transform, decompose the
resulting Hermitian matrix, and push the eigenvalues forward again.  This
avoids a general (non-normal) eigensolver entirely.

Runs of sorted eigenvalues whose consecutive gaps are at most
``CLUSTER_TOL`` merge into one cluster, and every column of the run holds the
run's mean; a unitary's values merge once, on the circle, by angular gap,
across angle 0 too.  A unitary whose spectrum comes within ``CLUSTER_TOL`` of
1 is outside the Cayley image.

Validation: a public function guards each matrix it receives once; no caller
repeats a guard its callee runs on the same matrix, though a matrix computed
and handed on (``unitary_eig`` to ``inverse_cayley``) meets the callee's
guard.  Guards measure Hermitian and unitary defects in the Frobenius norm,
which bounds the spectral norm, so they are no looser than a spectral test.
Postconditions on computed decompositions measure in Frobenius too: the
backward-error part of a bound is scaled by sqrt(dim), since
||X||_F <= sqrt(dim) ||X||_2, and a reconstruction check adds the exact
Frobenius shift that merging eigenvalues makes.  Report residuals stay
spectral norms; ``lambda_min`` is the smallest eigenvalue, not a cluster mean.

Stacks: ``as_matrix``, the guards, ``operator_norm``, ``lambda_min``,
``cayley``, ``inverse_cayley``, ``hermitian_eig`` and ``unitary_eig`` take a
stack ``(..., d, d)`` as well as one matrix and work on each matrix of it; a
2-D input is a stack of one and gets back a number where a stack gets an
array.  A decomposition holds the frames and values of the whole stack.
A guard or a check judges every matrix of a stack: one failing matrix fails
the call, and the message names its index.  A defect that is not ``<= tol``
fails, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InputValidationError,
    NumericalError,
)

DEFAULT_TOL = 1e-10
CLUSTER_TOL = 1e-8
PHASE_ATTEMPTS = 32  # phases unitary_eig tries before it gives up

__all__ = [
    "DEFAULT_TOL",
    "CLUSTER_TOL",
    "SpectralDecomposition",
    "as_matrix",
    "operator_norm",
    "lambda_min",
    "assert_hermitian",
    "assert_unitary",
    "hermitian_eig",
    "unitary_eig",
    "cayley",
    "inverse_cayley",
    "scalar_cayley",
    "scalar_inverse_cayley",
]


def _H(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of each matrix of a stack."""
    return 0.5 * (a + _H(a))


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    parts = np.ascontiguousarray(a).view(np.float64)  # real and imaginary parts side by side
    return np.sqrt(np.add.reduce(np.square(parts).reshape(*a.shape[:-2], -1), axis=-1))


def _smin(a: np.ndarray) -> np.ndarray:
    """Smallest singular value of each matrix of a stack."""
    return np.linalg.svd(a, compute_uv=False)[..., -1]


def _right_solve(denom: np.ndarray, numer: np.ndarray) -> np.ndarray:
    """X with X denom = numer for each matrix of a stack, solved column-wise
    through the transposed system, never forming an inverse."""
    if denom.shape != numer.shape:
        shape = np.broadcast_shapes(denom.shape, numer.shape)
        denom, numer = np.broadcast_to(denom, shape), np.broadcast_to(numer, shape)
    return np.linalg.solve(denom.swapaxes(-1, -2), numer.swapaxes(-1, -2)).swapaxes(-1, -2)


def _unstack(values):
    """A per-matrix result (an array or a numpy scalar): a Python scalar for
    one matrix, the array for a stack."""
    return values.item() if values.ndim == 0 else values


def _require(ok, values, error, message: str, *args) -> None:
    """Raise ``error`` unless ``ok`` holds for every matrix of a stack.

    ``message`` is formatted with the value of the first failing matrix and
    ``args``; for a stack it is prefixed with that matrix's index.
    """
    if ok.all():
        return
    ok = np.asarray(ok)
    index = np.unravel_index(np.argmin(ok), ok.shape)
    where = f"stack index {index[0] if len(index) == 1 else index}: " if index else ""
    raise error(where + message.format(np.asarray(values)[index], *args))


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty square complex matrix, or a stack (..., d, d) of
    them, with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise InputValidationError(f"expected a non-empty square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        _require(finite, finite, InputValidationError, "matrix has non-finite entries")
    return a


def _spectral_norms(a: np.ndarray):
    """``operator_norm`` of a matrix or stack whose entries are known finite."""
    evals = np.linalg.eigvalsh(_H(a) @ a)
    if a.ndim == 2:  # scalar arithmetic: ufuncs on 0-d arrays cost more per call
        return float(np.sqrt(max(evals[-1], 0.0)))
    return np.sqrt(np.maximum(evals[..., -1], 0.0))


def operator_norm(m):
    """Spectral norm, sqrt of the largest eigenvalue of M*M."""
    return _spectral_norms(as_matrix(m))


def lambda_min(m, tol: float = DEFAULT_TOL):
    """Smallest eigenvalue of a Hermitian matrix, unclustered."""
    a = assert_hermitian(m, tol=tol)
    low = np.linalg.eigvalsh(a)[..., 0]
    return low if a.ndim > 2 else float(low)


def assert_hermitian(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    defect = _frobenius(a - _H(a))
    message = "matrix is not Hermitian: ||M - M*||_F = {:.3e} > {:.1e}"
    _require(defect <= tol, defect, InputValidationError, message, tol)
    return a


def assert_unitary(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN, which fails
        defect = _frobenius(_H(a) @ a - np.eye(a.shape[-1]))
    message = "matrix is not unitary: ||U*U - I||_F = {:.3e} > {:.1e}"
    _require(defect <= tol, defect, InputValidationError, message, tol)
    return a


@dataclass
class SpectralDecomposition:
    """The eigh frame of a matrix, or of each matrix of a stack, with one
    merged eigenvalue per column.

    ``vectors`` is the unitary frame, shape ``(..., d, d)``; ``values[..., j]``
    is the eigenvalue of column j, shape ``(..., d)``.  The columns of one
    cluster hold the same float, and two clusters differ beyond
    ``CLUSTER_TOL``, so a cluster's spectral projection is V_c V_c* over its
    columns, and f(M) = V f(values) V* (the functional calculus).
    """

    vectors: np.ndarray
    values: np.ndarray

    def __getitem__(self, index) -> "SpectralDecomposition":
        """The decompositions of a stack at ``index``."""
        return SpectralDecomposition(self.vectors[index], self.values[index])

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ _H(self.vectors)


def _eigh(m: np.ndarray):
    """eigh of a Hermitian matrix or of each matrix of a stack."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _merge(evals: np.ndarray) -> np.ndarray:
    """Each eigenvalue of an ascending stack ``(..., d)`` replaced by the mean
    of its run of consecutive gaps <= ``CLUSTER_TOL``, summed as np.mean sums
    the run."""
    starts = np.ones(evals.shape, dtype=bool)  # the first eigenvalue of each run
    starts[..., 1:] = np.abs(np.diff(evals, axis=-1)) > CLUSTER_TOL
    flat, starts = evals.ravel(), starts.ravel()
    first = starts.nonzero()[0]
    size = np.diff(first, append=flat.size)
    means = flat[first]
    for s in set(size[size > 1].tolist()):
        pick = size == s
        means[pick] = np.add.reduce(flat[first[pick, None] + np.arange(s)], axis=-1) / s
    return means[starts.cumsum() - 1].reshape(evals.shape)


def _merge_on_circle(values: np.ndarray) -> np.ndarray:
    """Each unit value of a stack ``(..., d)`` replaced by the normalized mean
    of its group: runs of consecutive angular gaps <= ``CLUSTER_TOL``, the
    last run joining the first across angle 0."""
    angles = np.mod(np.angle(values), 2.0 * np.pi)
    order = np.argsort(angles, axis=-1, kind="stable")
    ascending = np.take_along_axis(angles, order, axis=-1)
    labels = np.zeros(angles.shape, dtype=np.int64)
    labels[..., 1:] = np.cumsum(np.diff(ascending, axis=-1) > CLUSTER_TOL, axis=-1)
    wrap = (labels[..., -1:] > 0) & (ascending[..., :1] + 2.0 * np.pi - ascending[..., -1:] <= CLUSTER_TOL)
    labels = np.where(wrap & (labels == 0), labels[..., -1:], labels)
    group = np.empty_like(labels)
    np.put_along_axis(group, order, labels, axis=-1)
    same = group[..., :, None] == group[..., None, :]
    means = np.where(same, values[..., None, :], 0).sum(axis=-1) / same.sum(axis=-1)
    return means / np.abs(means)


def hermitian_eig(a) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix or of each matrix of a
    stack.

    Eigenvalues come back real and ascending; eigenvalues closer than
    ``CLUSTER_TOL`` (runs of them) are merged into their mean, which keeps
    the cluster projections well conditioned near degeneracies.
    """
    m = assert_hermitian(a)
    evals, vectors = _eigh(m)
    dec = SpectralDecomposition(vectors, _merge(evals))
    # averaging moves each merged eigenvalue to its cluster mean, which costs
    # exactly the 2-norm of those moves in Frobenius; eigh itself is backward
    # stable, hence the relative term, sqrt(dim) times for Frobenius
    shift = np.sqrt(np.square(evals - dec.values).sum(axis=-1))
    scale = np.maximum(1.0, np.maximum(np.abs(evals[..., 0]), np.abs(evals[..., -1])))
    defect = _frobenius(dec.reconstruct() - m)
    ok = defect <= 10 * DEFAULT_TOL * scale * np.sqrt(m.shape[-1]) + shift
    _require(ok, defect, NumericalError, "reconstruction error {:.3e} exceeds tolerance")
    return dec


def scalar_cayley(a: complex) -> complex:
    """(a+i)/(a-i) for a scalar, or elementwise."""
    return (a + 1j) / (a - 1j)


def scalar_inverse_cayley(lam: complex) -> complex:
    """Inverse of the scalar Cayley map: i(1+lam)/(lam-1), elementwise on an array."""
    return 1j * (1 + lam) / (lam - 1)


def cayley(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Cayley transform (A+iI)(A-iI)^{-1} of a Hermitian matrix.

    For genuinely Hermitian A the factor A-iI has all singular values >= 1,
    so a near-singular solve signals non-Hermitian contamination.
    """
    m = assert_hermitian(a, tol=tol)
    eye = np.eye(m.shape[-1])
    denom = m - 1j * eye
    smin = _smin(denom)
    _require(smin >= tol, smin, NumericalError, "A - iI nearly singular (sigma_min = {:.3e}); input corrupted?")
    return _right_solve(denom, m + 1j * eye)


def inverse_cayley(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse Cayley transform i(U+I)(U-I)^{-1}.

    Defined for unitaries with 1 outside the spectrum; for a unitary the
    smallest singular value of U-I equals the distance of the spectrum to 1,
    so proximity below ``CLUSTER_TOL`` is rejected as a domain error.
    """
    m = assert_unitary(u, tol=tol)
    eye = np.eye(m.shape[-1])
    denom = m - eye
    smin = _smin(denom)
    _require(smin >= CLUSTER_TOL, smin, DomainError, "not in Cayley image: spectrum within {:.3e} of 1")
    h = _right_solve(denom, 1j * (m + eye))
    # symmetrize away the O(tol) skew part left by the solve
    return _hermitian_part(h)


def unitary_eig(u, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a unitary matrix or of each matrix of a
    stack.

    Draws phases theta from one fixed pseudo-random sequence (no global
    state), rejects each while e^{i theta}U has spectrum within 10
    ``CLUSTER_TOL`` of 1, then decomposes inverse_cayley(e^{i theta}U), maps
    the eigenvalues back and merges them on the circle, where eigenvalues
    whose angles are at most ``CLUSTER_TOL`` apart share a cluster.  The
    frame is the Hermitian one, reused verbatim; every value lies on the
    unit circle.  Every matrix of a stack
    takes the first acceptable phase of the sequence, so it gets the theta it
    gets alone.
    """
    m = assert_unitary(u, tol=tol)
    dim = m.shape[-1]
    stack = m.reshape(-1, dim, dim)
    eye = np.eye(dim)
    rng = np.random.default_rng(0)
    thetas = np.empty(len(stack))
    rotated = np.empty_like(stack)
    pending = np.arange(len(stack))
    for _ in range(PHASE_ATTEMPTS):
        candidate = rng.uniform(0.0, 2.0 * np.pi)
        trial = np.exp(1j * candidate) * stack[pending]
        accept = _smin(trial - eye) > 10 * CLUSTER_TOL
        thetas[pending[accept]] = candidate
        rotated[pending[accept]] = trial[accept]
        pending = pending[~accept]
        if not pending.size:
            break
    if pending.size:
        found = np.ones(len(stack), dtype=bool)
        found[pending] = False
        found = found.reshape(m.shape[:-2])
        _require(found, found, NumericalError, "no spectrum-avoiding phase found in {1} attempts", PHASE_ATTEMPTS)

    evals, vectors = _eigh(inverse_cayley(rotated, tol=tol))
    # merge once, on the circle: the Moebius pullback stretches and shrinks
    # circle gaps, so a gap test on the Hermitian side has another radius
    circle = np.exp(-1j * thetas)[:, None] * scalar_cayley(evals)
    values = _merge_on_circle(circle)
    dec = SpectralDecomposition(vectors.reshape(m.shape), values.reshape(m.shape[:-1]))
    # each eigh eigenvalue, pushed to the circle, moved to its merged value;
    # a chord is no longer than its angle
    shift = np.sqrt(np.square(np.angle(circle / values)).sum(axis=-1)).reshape(m.shape[:-2])
    defect = _frobenius(dec.reconstruct() - m)
    ok = defect <= 10 * tol * np.sqrt(dim) + shift
    _require(ok, defect, NumericalError, "unitary reconstruction error {:.3e} exceeds tolerance")
    return dec
