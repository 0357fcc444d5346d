"""Test helpers for spectral frames.

``clusters`` reads a one-matrix ``SpectralDecomposition`` as merged
eigenvalues with their spectral projections, grouping the frame's columns by
value.  The rest is a per-matrix reference merge, one Python loop per
cluster: runs of sorted eigenvalues with gaps <= CLUSTER_TOL averaged with
np.mean, and for a unitary the eigenvalues pushed to the circle and merged
there by angle, wraparound included.  It is the oracle for the stacked merges of
``spectra``.
"""

import numpy as np

from whlab import spectra


def clusters(dec):
    """The distinct values of a one-matrix decomposition, in column order, and
    the projection V_c V_c* onto the columns that hold each."""
    values = dec.values
    distinct = list(dict.fromkeys(values.tolist()))
    vecs = [dec.vectors[:, values == lam] for lam in distinct]
    return np.array(distinct), [v @ v.conj().T for v in vecs]


def runs(values, threshold):
    """Group sorted positions whose consecutive gaps are <= threshold."""
    groups = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def line_merge(evals, evecs):
    """Each run of ascending eigenvalues averaged with np.mean, its projection
    V V* from the run's eigenvectors, and the run index of each eigenvalue."""
    eigenvalues, projections = [], []
    owner = np.empty(len(evals), dtype=np.int64)
    for index, group in enumerate(runs(evals, spectra.CLUSTER_TOL)):
        vecs = evecs[:, group]
        projections.append(vecs @ vecs.conj().T)
        eigenvalues.append(complex(np.mean(evals[group])))
        owner[group] = index
    return np.array(eigenvalues), projections, owner


def hermitian_reference(m):
    """The merged eigenvalues of a Hermitian matrix and their projections."""
    values, projections, _ = line_merge(*np.linalg.eigh(m))
    return values.real, projections


def unitary_reference(u, tol=spectra.DEFAULT_TOL):
    """The merged eigenvalues of a unitary and their projections: the
    eigenvalues of inverse_cayley(e^{i theta} U) at unitary_eig's phase,
    pushed to the circle, where runs of angular gaps <= CLUSTER_TOL (across
    angle 0 too) merge into their normalized mean and the sum of their
    projections.  Nothing merges on the Hermitian side, whose gaps the
    pullback stretches and shrinks."""
    rng = np.random.default_rng(0)
    for _ in range(spectra.PHASE_ATTEMPTS):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rotated = np.exp(1j * theta) * u
        if np.linalg.svd(rotated - np.eye(len(u)), compute_uv=False)[-1] > 10 * spectra.CLUSTER_TOL:
            break
    evals, evecs = np.linalg.eigh(spectra.inverse_cayley(rotated, tol=tol))
    eigenvalues = np.exp(-1j * theta) * spectra.scalar_cayley(evals)
    angles = np.mod(np.angle(eigenvalues), 2.0 * np.pi)
    order = np.argsort(angles)
    groups = runs(angles[order], spectra.CLUSTER_TOL)
    if len(groups) > 1 and angles[order[0]] + 2.0 * np.pi - angles[order[-1]] <= spectra.CLUSTER_TOL:
        groups[0] = groups.pop() + groups[0]
    merged = [np.mean(eigenvalues[order[group]]) for group in groups]
    projections = [evecs[:, order[group]] @ evecs[:, order[group]].conj().T for group in groups]
    return np.array([lam / abs(lam) for lam in merged]), projections
