"""Seeded random matrix generators used by the verification suites and tests.

Every generator takes an explicit numpy Generator; nothing here touches
global random state.  With ``size`` (an int or a shape) a generator returns
a stack ``size + (n, n)`` drawn as one block.  A Gaussian block consumes the
stream as the same number of one-matrix calls would, one matrix after
another, so it holds the same numbers; a generator that also draws
uniforms draws each quantity as its own block.
"""

from __future__ import annotations

import numpy as np

from .spectra import _hermitian_part

# the spectrum range of random_positive_definite
EIG_LOW = 0.25
EIG_HIGH = 4.0


def _shape(size) -> tuple:
    return () if size is None else size if isinstance(size, tuple) else (size,)


def random_complex(rng: np.random.Generator, n: int, size=None) -> np.ndarray:
    """Complex Gaussian matrix: its real part, then its imaginary part."""
    re, im = np.moveaxis(rng.standard_normal(_shape(size) + (2, n, n)), -3, 0)
    return re + 1j * im


def gram(g: np.ndarray) -> np.ndarray:
    """G*G of each matrix of a stack."""
    return g.conj().swapaxes(-1, -2) @ g


def random_hermitian(rng: np.random.Generator, n: int, size=None) -> np.ndarray:
    return _hermitian_part(random_complex(rng, n, size))


def random_unitary(rng: np.random.Generator, n: int, size=None) -> np.ndarray:
    """Haar-distributed unitary: haar_unitary of a complex Gaussian."""
    return haar_unitary(random_complex(rng, n, size))


def haar_unitary(g: np.ndarray) -> np.ndarray:
    """The unitary of a complex Gaussian matrix, or of each matrix of a stack
    (..., n, n), that is Haar distributed: the Q of its QR with the phases of
    R's diagonal moved into Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_positive(rng: np.random.Generator, n: int, size=None) -> np.ndarray:
    """Random positive semidefinite matrix G*G."""
    return gram(random_complex(rng, n, size))


def random_positive_definite(rng: np.random.Generator, n: int, size=None) -> np.ndarray:
    """Positive definite with eigenvalues drawn uniformly from [EIG_LOW, EIG_HIGH]:
    a block of Haar unitaries, then a block of eigenvalues.

    The controlled spectrum keeps inverses and the products built on top of
    them well conditioned in property sweeps.
    """
    u = random_unitary(rng, n, size)
    eigs = rng.uniform(EIG_LOW, EIG_HIGH, size=_shape(size) + (n,))
    return (u * eigs[..., None, :]) @ u.conj().swapaxes(-1, -2)
