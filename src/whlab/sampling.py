"""Seeded random matrix generators used by the verification suites and tests.

Every generator takes an explicit numpy Generator; nothing here touches
global random state.
"""

from __future__ import annotations

import numpy as np

# the spectrum range of random_positive_definite
EIG_LOW = 0.25
EIG_HIGH = 4.0


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: haar_unitary of a complex Gaussian."""
    return haar_unitary(random_complex(rng, n))


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """The unitary of a complex Gaussian matrix, or of each matrix of a stack
    (..., n, n), that is Haar distributed: the Q of its QR with the phases of
    R's diagonal moved into Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_positive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random positive semidefinite matrix G*G."""
    g = random_complex(rng, n)
    return g.conj().T @ g


def random_positive_definite(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive definite with eigenvalues drawn uniformly from [EIG_LOW, EIG_HIGH].

    The controlled spectrum keeps inverses and the products built on top of
    them well conditioned in property sweeps.
    """
    u = random_unitary(rng, n)
    eigs = rng.uniform(EIG_LOW, EIG_HIGH, size=n)
    return u @ np.diag(eigs).astype(np.complex128) @ u.conj().T
