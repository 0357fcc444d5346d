"""Dense complex spectral kernel.

Hermitian and unitary spectral decompositions with eigenvalue clustering,
the Cayley transform A -> (A+i)(A-i)^{-1} and its inverse, and spectral
functional calculus.  Everything else in the package funnels its linear
algebra through this module.

Unitary spectra are reduced to the Hermitian case: pick a random phase theta
whose rotation e^{i theta}U keeps the spectrum away from 1, pull back through
the inverse Cayley transform, decompose the resulting Hermitian matrix, and
push the eigenvalues forward again.  This avoids a general (non-normal)
eigensolver entirely.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    InputValidationError,
    NumericalError,
)

DEFAULT_TOL = 1e-10
CLUSTER_TOL = 1e-8

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


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty square complex ndarray with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputValidationError("matrix has non-finite entries")
    return a


def operator_norm(m) -> float:
    """Spectral norm, sqrt of the largest eigenvalue of M*M."""
    a = as_matrix(m)
    evals = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(evals[-1], 0.0)))


def lambda_min(m, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix, unclustered."""
    return float(np.linalg.eigvalsh(assert_hermitian(m, tol=tol))[0])


def assert_hermitian(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    defect = np.linalg.norm(a - a.conj().T)
    if defect > tol:
        raise InputValidationError(f"matrix is not Hermitian: ||M - M*||_F = {defect:.3e} > {tol:.1e}")
    return a


def assert_unitary(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    defect = np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0]))
    if defect > tol:
        raise InputValidationError(f"matrix is not unitary: ||U*U - I||_F = {defect:.3e} > {tol:.1e}")
    return a


@dataclass
class SpectralDecomposition:
    """Eigenvalues with their (clustered) spectral projections.

    Invariants, each within ``tol``: the projections are Hermitian idempotents,
    mutually orthogonal, sum to the identity, and ``sum_k lambda_k E_k``
    reconstructs the decomposed matrix.  Eigenvalues are pairwise distinct
    beyond the clustering threshold used to build the decomposition.
    """

    eigenvalues: np.ndarray
    projections: list = field(default_factory=list)
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


def _merged_eigh(m: np.ndarray, cluster: float):
    """eigh of a Hermitian matrix with eigenvalues closer than ``cluster``
    averaged into one: the merged eigenvalues, their projections, the eigh
    eigenvalues, and the index of the merged eigenvalue each one went into."""
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    eigenvalues = []
    projections = []
    owner = np.empty(len(evals), dtype=np.int64)
    for index, group in enumerate(_cluster(evals, cluster)):
        vecs = evecs[:, group]
        projections.append(vecs @ vecs.conj().T)
        eigenvalues.append(complex(np.mean(evals[group])))
        owner[group] = index
    return np.array(eigenvalues), projections, evals, owner


def hermitian_eig(a, tol: float = DEFAULT_TOL, cluster: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back real and ascending; eigenvalues closer than the
    clustering threshold are merged into a single projection, which keeps the
    projections well conditioned near degeneracies.
    """
    m = assert_hermitian(a, tol=tol)
    eigenvalues, projections, evals, owner = _merged_eigh(m, cluster)
    dec = SpectralDecomposition(eigenvalues, projections, tol=tol)
    defect = np.linalg.norm(dec.reconstruct() - m)
    # averaging moves each merged eigenvalue to its cluster mean, which costs
    # exactly the 2-norm of those moves in Frobenius; eigh itself is backward
    # stable, hence the relative term, sqrt(dim) times for Frobenius
    shift = np.linalg.norm(evals - eigenvalues.real[owner])
    scale = max(1.0, abs(evals[0]), abs(evals[-1]))
    if defect > 10 * tol * scale * np.sqrt(m.shape[0]) + shift:
        raise NumericalError(f"reconstruction error {defect:.3e} exceeds tolerance")
    return dec


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
    eye = np.eye(m.shape[0])
    denom = m - 1j * eye
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < tol:
        raise NumericalError(f"A - iI nearly singular (sigma_min = {smin:.3e}); input corrupted?")
    # solve X (A-iI) = (A+iI) column-wise via the transposed system
    return np.linalg.solve(denom.T, (m + 1j * eye).T).T


def inverse_cayley(u, tol: float = DEFAULT_TOL, cluster: float = CLUSTER_TOL) -> np.ndarray:
    """Inverse Cayley transform i(U+I)(U-I)^{-1}.

    Defined for unitaries with 1 outside the spectrum; for a unitary the
    smallest singular value of U-I equals the distance of the spectrum to 1,
    so proximity below the clustering threshold is rejected as a domain error.
    """
    m = assert_unitary(u, tol=tol)
    eye = np.eye(m.shape[0])
    denom = m - eye
    smin = np.linalg.svd(denom, compute_uv=False)[-1]
    if smin < cluster:
        raise DomainError(f"not in Cayley image: spectrum within {smin:.3e} of 1")
    h = np.linalg.solve(denom.T, (1j * (m + eye)).T).T
    # symmetrize away the O(tol) skew part left by the solve
    return 0.5 * (h + h.conj().T)


def unitary_eig(
    u,
    tol: float = DEFAULT_TOL,
    cluster: float = CLUSTER_TOL,
    seed: int = 0,
    max_attempts: int = 32,
) -> SpectralDecomposition:
    """Spectral decomposition of a unitary matrix.

    Samples a phase theta (explicit seed, no global state), rejects it while
    e^{i theta}U has spectrum within the clustering threshold of 1, then
    decomposes inverse_cayley(e^{i theta}U) and maps the eigenvalues back.
    All returned eigenvalues lie on the unit circle; the projections are the
    Hermitian ones, reused verbatim.
    """
    m = assert_unitary(u, tol=tol)
    rng = np.random.default_rng(seed)
    theta = None
    for _ in range(max_attempts):
        candidate = rng.uniform(0.0, 2.0 * np.pi)
        rotated = np.exp(1j * candidate) * m
        smin = np.linalg.svd(rotated - np.eye(m.shape[0]), compute_uv=False)[-1]
        if smin > 10 * cluster:
            theta = candidate
            break
    if theta is None:
        raise NumericalError(f"no spectrum-avoiding phase found in {max_attempts} attempts")

    rotated = np.exp(1j * theta) * m
    herm = inverse_cayley(rotated, tol=tol, cluster=cluster)
    values, hermitian_projections, evals, owner = _merged_eigh(herm, cluster)
    eigenvalues = np.array([np.exp(-1j * theta) * scalar_cayley(lam.real) for lam in values])
    order = np.argsort(np.mod(np.angle(eigenvalues), 2.0 * np.pi))
    eigenvalues = eigenvalues[order]
    projections = [hermitian_projections[i] for i in order]

    # the Moebius pullback can spread circle-close eigenvalues far apart on
    # the Hermitian side, so re-cluster on the circle (wraparound included)
    angles = np.mod(np.angle(eigenvalues), 2.0 * np.pi)
    groups = _cluster(angles, cluster)
    if len(groups) > 1 and (angles[0] + 2.0 * np.pi - angles[-1]) <= cluster:
        groups[0] = groups.pop() + groups[0]
    merged_vals = []
    merged_projs = []
    target = [0j] * len(values)  # the merged value of each Hermitian cluster
    for group in groups:
        mean = np.mean(eigenvalues[group])
        merged_vals.append(mean / abs(mean))
        merged_projs.append(sum(projections[i] for i in group))
        for i in group:
            target[order[i]] = merged_vals[-1]
    out = SpectralDecomposition(np.array(merged_vals), merged_projs, tol=tol)
    defect = np.linalg.norm(out.reconstruct() - m)
    # each eigh eigenvalue, pushed to the circle, moved to its merged value on
    # either side of the pullback; a chord is no longer than its angle
    pushed = np.exp(-1j * theta) * scalar_cayley(evals)
    shift = np.linalg.norm(np.angle(pushed / np.array(target)[owner]))
    if defect > 10 * tol * np.sqrt(m.shape[0]) + shift:
        raise NumericalError(f"unitary reconstruction error {defect:.3e} exceeds tolerance")
    return out


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
