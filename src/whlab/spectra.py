"""Dense complex spectral kernel.

Hermitian and unitary spectral decompositions with eigenvalue clustering,
the Cayley transform A -> (A+i)(A-i)^{-1} and its inverse, and spectral
functional calculus.  Everything else in the package funnels its linear
algebra through this module.

Unitary spectra are reduced to the Hermitian case: pick a phase theta, from a
fixed pseudo-random sequence, whose rotation e^{i theta}U keeps the spectrum
away from 1, pull back through the inverse Cayley transform, decompose the
resulting Hermitian matrix, and push the eigenvalues forward again.  This
avoids a general (non-normal) eigensolver entirely.

Eigenvalues closer than ``CLUSTER_TOL`` share one projection, and a unitary
whose spectrum comes within ``CLUSTER_TOL`` of 1 is outside the Cayley image.

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
2-D input is a stack of one and gets back what a single matrix gets, a
number or a decomposition where a stack gets an array or a list (in C order).
A guard or a check judges every matrix of a stack: one failing matrix fails
the call, and the message names its index.  A defect that is not ``<= tol``
fails, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
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
    "functional_calculus",
]


def _H(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


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


def operator_norm(m):
    """Spectral norm, sqrt of the largest eigenvalue of M*M."""
    a = as_matrix(m)
    evals = np.linalg.eigvalsh(_H(a) @ a)
    if a.ndim == 2:  # scalar arithmetic: ufuncs on 0-d arrays cost more per call
        return float(np.sqrt(max(evals[-1], 0.0)))
    return np.sqrt(np.maximum(evals[..., -1], 0.0))


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
    """Eigenvalues with their (clustered) spectral projections.

    Invariants, each within ``tol``: the projections are Hermitian idempotents,
    mutually orthogonal, sum to the identity, and ``sum_k lambda_k E_k``
    reconstructs the decomposed matrix.  Eigenvalues are pairwise distinct
    beyond ``CLUSTER_TOL``.
    """

    eigenvalues: np.ndarray
    projections: list
    tol: float = DEFAULT_TOL

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, proj in zip(self.eigenvalues, self.projections):
            out += lam * proj
        return out

    def resolution_defect(self) -> float:
        """|| sum_k E_k - I ||_F."""
        return float(np.linalg.norm(sum(self.projections) - np.eye(self.dim)))

    def validate(self) -> None:
        tol = 10 * max(self.tol, DEFAULT_TOL) * np.sqrt(self.dim)
        if self.resolution_defect() > tol:
            raise NumericalError("projections do not resolve the identity")
        for j, ej in enumerate(self.projections):
            if np.linalg.norm(ej - ej.conj().T) > tol:
                raise NumericalError(f"projection {j} is not Hermitian")
            for k, ek in enumerate(self.projections):
                expected = ej if j == k else 0.0
                if np.linalg.norm(ej @ ek - expected) > tol:
                    raise NumericalError(f"projections {j},{k} not orthogonal idempotents")


def _cluster(values: np.ndarray, threshold: float) -> list:
    """Group sorted positions whose consecutive gaps are <= threshold."""
    groups = []
    current = [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= threshold:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return groups


def _eigh(m: np.ndarray):
    """eigh of a Hermitian matrix or of each matrix of a stack."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _merge(evals: np.ndarray, evecs: np.ndarray, cluster: float) -> list:
    """eigh output of a stack, (T, d) and (T, d, d), with each matrix's runs
    of eigenvalues whose consecutive gaps are <= ``cluster`` averaged into
    one.  Per matrix: the merged eigenvalues, their projections, and the
    index of the merged eigenvalue each eigh eigenvalue went into."""
    count, dim = evals.shape
    starts = np.ones((count, dim), dtype=bool)  # the first eigenvalue of each group
    starts[:, 1:] = np.abs(evals[:, 1:] - evals[:, :-1]) > cluster
    owner = starts.cumsum(axis=1) - 1
    flat = starts.ravel().nonzero()[0]
    size = np.append(flat[1:], starts.size) - flat
    flat_evals = evals.ravel()
    means = flat_evals[flat].astype(np.complex128)
    for i in (size > 1).nonzero()[0]:
        # np.mean's own sum: reduceat would add in another order
        means[i] = np.add.reduce(flat_evals[flat[i] : flat[i] + size[i]]) / size[i]
    matrix, first = np.divmod(flat, dim)
    projections = np.empty((len(flat), dim, dim), dtype=np.complex128)
    for s in set(size.tolist()):
        pick = (size == s).nonzero()[0]
        vecs = evecs[matrix[pick, None, None], np.arange(dim)[:, None], first[pick, None, None] + np.arange(s)]
        projections[pick] = vecs @ _H(vecs)
    bounds = matrix.searchsorted(np.arange(count + 1))
    return [(means[lo:hi], list(projections[lo:hi]), owner[t]) for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def _reconstruction_defects(decs: list, stack: np.ndarray) -> np.ndarray:
    """|| sum_k lambda_k E_k - M ||_F for each decomposition and its matrix."""
    values = np.concatenate([dec.eigenvalues for dec in decs])
    projections = np.array([proj for dec in decs for proj in dec.projections])
    offsets = np.cumsum([0] + [len(dec.eigenvalues) for dec in decs[:-1]])
    return _frobenius(np.add.reduceat(values[:, None, None] * projections, offsets) - stack)


def hermitian_eig(a):
    """Spectral decomposition of a Hermitian matrix; a list of them, in C
    order, for a stack.

    Eigenvalues come back real and ascending; eigenvalues closer than
    ``CLUSTER_TOL`` are merged into a single projection, which keeps the
    projections well conditioned near degeneracies.
    """
    m = assert_hermitian(a)
    dim = m.shape[-1]
    stack = m.reshape(-1, dim, dim)
    evals, evecs = _eigh(stack)
    merged = _merge(evals, evecs, CLUSTER_TOL)
    decs = [SpectralDecomposition(values, projections) for values, projections, _ in merged]
    # averaging moves each merged eigenvalue to its cluster mean, which costs
    # exactly the 2-norm of those moves in Frobenius; eigh itself is backward
    # stable, hence the relative term, sqrt(dim) times for Frobenius
    means = np.array([values.real[owner] for values, _, owner in merged])
    shift = np.sqrt(np.square(evals - means).sum(axis=-1))
    scale = np.maximum(1.0, np.maximum(np.abs(evals[:, 0]), np.abs(evals[:, -1])))
    defect = _reconstruction_defects(decs, stack)
    ok, defect = (x.reshape(m.shape[:-2]) for x in (defect <= 10 * DEFAULT_TOL * scale * np.sqrt(dim) + shift, defect))
    _require(ok, defect, NumericalError, "reconstruction error {:.3e} exceeds tolerance")
    return decs[0] if m.ndim == 2 else decs


def scalar_cayley(a: complex) -> complex:
    """(a+i)/(a-i) for a scalar."""
    return (a + 1j) / (a - 1j)


def scalar_inverse_cayley(lam: complex) -> complex:
    """Inverse of the scalar Cayley map: i(1+lam)/(lam-1)."""
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
    return 0.5 * (h + _H(h))


def unitary_eig(u, tol: float = DEFAULT_TOL):
    """Spectral decomposition of a unitary matrix; a list of them, in C
    order, for a stack.

    Draws phases theta from one fixed pseudo-random sequence (no global
    state), rejects each while e^{i theta}U has spectrum within 10
    ``CLUSTER_TOL`` of 1, then decomposes inverse_cayley(e^{i theta}U) and
    maps the eigenvalues back.  All returned eigenvalues lie on the unit
    circle; the projections are the Hermitian ones, reused verbatim.  Every
    matrix of a stack takes the first acceptable phase of the sequence, so it
    gets the theta it gets alone.
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

    evals, evecs = _eigh(inverse_cayley(rotated, tol=tol))
    decs, targets = zip(
        *(_on_circle(*merged, thetas[i], tol) for i, merged in enumerate(_merge(evals, evecs, CLUSTER_TOL)))
    )
    # each eigh eigenvalue, pushed to the circle, moved to its merged value on
    # either side of the pullback; a chord is no longer than its angle
    pushed = np.exp(-1j * thetas)[:, None] * scalar_cayley(evals)
    shift = np.sqrt(np.square(np.angle(pushed / np.array(targets))).sum(axis=-1))
    defect = _reconstruction_defects(decs, stack)
    ok, defect = (x.reshape(m.shape[:-2]) for x in (defect <= 10 * tol * np.sqrt(dim) + shift, defect))
    _require(ok, defect, NumericalError, "unitary reconstruction error {:.3e} exceeds tolerance")
    return decs[0] if m.ndim == 2 else list(decs)


def _on_circle(values, hermitian_projections, owner, theta, tol):
    """One matrix's decomposition from the merged eigh of
    inverse_cayley(e^{i theta} U), and the merged circle value of each eigh
    eigenvalue."""
    phase = np.exp(-1j * theta)
    eigenvalues = np.array([phase * scalar_cayley(lam.real) for lam in values])
    angles = np.mod(np.angle(eigenvalues), 2.0 * np.pi)
    order = np.argsort(angles)
    eigenvalues, angles = eigenvalues[order], angles[order]
    projections = [hermitian_projections[i] for i in order]

    # the Moebius pullback can spread circle-close eigenvalues far apart on
    # the Hermitian side, so re-cluster on the circle (wraparound included)
    groups = _cluster(angles, CLUSTER_TOL)
    if len(groups) > 1 and (angles[0] + 2.0 * np.pi - angles[-1]) <= CLUSTER_TOL:
        groups[0] = groups.pop() + groups[0]
    merged_vals = []
    merged_projs = []
    target = np.empty(len(values), dtype=np.complex128)  # the merged value of each Hermitian cluster
    for group in groups:
        mean = np.add.reduce(eigenvalues[group]) / len(group)  # np.mean, without its overhead
        merged_vals.append(mean / abs(mean))
        merged_projs.append(sum(projections[i] for i in group))
        target[order[group]] = merged_vals[-1]
    return SpectralDecomposition(np.array(merged_vals), merged_projs, tol=tol), target[owner]


def functional_calculus(dec: SpectralDecomposition, f) -> np.ndarray:
    """sum_k f(lambda_k) E_k for a scalar function f defined on the spectrum."""
    out = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for lam, proj in zip(dec.eigenvalues, dec.projections):
        try:
            value = complex(f(lam))
        except Exception as exc:
            raise EvaluationError(f"function undefined at eigenvalue {lam}: {exc}") from exc
        if not np.isfinite(value):
            raise EvaluationError(f"function non-finite at eigenvalue {lam}: {value}")
        out += value * proj
    return out
