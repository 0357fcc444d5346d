"""Spectral kernel tests.

Frozen expected values: the 2x2 all-ones matrix has characteristic polynomial
lambda^2 - 2 lambda, hence eigenvalues {0, 2} with rank-one projections onto
(1, -1)/sqrt(2) and (1, 1)/sqrt(2); its Cayley transform therefore has
eigenvalues (0+i)/(0-i) = -1 and (2+i)/(2-i) = (3+4i)/5 on the same
projections.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import jordan, moebius, spectra
from whlab.errors import DomainError, InputValidationError
from whlab.sampling import random_hermitian, random_unitary

ONES = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
PROJ_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
PROJ_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _validate(dec):
    """The invariants of a SpectralDecomposition: its projections resolve the
    identity and are Hermitian, mutually orthogonal idempotents, each within
    10 max(tol, DEFAULT_TOL) sqrt(dim) in the Frobenius norm."""
    tol = 10 * max(dec.tol, spectra.DEFAULT_TOL) * np.sqrt(dec.dim)
    assert np.linalg.norm(sum(dec.projections) - np.eye(dec.dim)) <= tol, "projections do not resolve the identity"
    for j, ej in enumerate(dec.projections):
        assert np.linalg.norm(ej - ej.conj().T) <= tol, f"projection {j} is not Hermitian"
        for k, ek in enumerate(dec.projections):
            expected = ej if j == k else 0.0
            assert np.linalg.norm(ej @ ek - expected) <= tol, f"projections {j},{k} not orthogonal idempotents"


def test_hermitian_eig_identity():
    dec = spectra.hermitian_eig(np.eye(2))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert np.allclose(dec.projections[0], np.eye(2))


def test_hermitian_eig_diagonal():
    dec = spectra.hermitian_eig(np.diag([0.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0])
    assert np.allclose(dec.projections[0], np.diag([1.0, 0.0]))
    assert np.allclose(dec.projections[1], np.diag([0.0, 1.0]))


def test_hermitian_eig_ones_matrix():
    dec = spectra.hermitian_eig(ONES)
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert np.allclose(dec.projections[0], PROJ_MINUS, atol=1e-12)
    assert np.allclose(dec.projections[1], PROJ_PLUS, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputValidationError):
        spectra.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_merges_near_degenerate():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0])
    dec = spectra.hermitian_eig(a)
    assert len(dec.eigenvalues) == 2
    assert np.trace(dec.projections[0]).real == pytest.approx(2.0)

    # a chain of gaps below the threshold merges into one eigenvalue, and the
    # averaging error adds up over the chain and over separate clusters
    dec = spectra.hermitian_eig(np.diag([0.0, 9e-9, 1.8e-8]))
    assert dec.eigenvalues == pytest.approx([9e-9])
    dec = spectra.hermitian_eig(np.diag([0.0, 1e-8, 1.0, 1.0 + 1e-8, 2.0, 2.0 + 1e-8]))
    assert len(dec.eigenvalues) == 3
    # however long the chain: five eigenvalues 9e-9 apart span 3.6e-8
    dec = spectra.hermitian_eig(np.diag(np.arange(5) * 9e-9))
    assert dec.eigenvalues == pytest.approx([1.8e-8])


def test_unitary_eig_merges_near_degenerate():
    dec = spectra.unitary_eig(np.diag(np.exp(1j * np.array([0.0, 9e-9, 1.8e-8]))))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(np.exp(9e-9j))
    dec = spectra.unitary_eig(np.diag(np.exp(1j * np.arange(6) * 9e-9)))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(np.exp(2.25e-8j))


def test_validate_with_a_high_rank_projection():
    _validate(spectra.unitary_eig(np.eye(16)))
    _validate(spectra.hermitian_eig(np.diag([1.0] * 15 + [2.0])))


def test_unitary_eig_identity_and_diagonal():
    dec = spectra.unitary_eig(np.eye(2))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)

    dec = spectra.unitary_eig(np.diag([-1.0, 1j]))
    vals = sorted(dec.eigenvalues, key=lambda z: np.angle(z))
    assert vals[0] == pytest.approx(-1.0)
    assert vals[1] == pytest.approx(1j)


def test_unitary_eig_of_cayley_ones():
    dec = spectra.unitary_eig(spectra.cayley(ONES))
    by_angle = sorted(zip(dec.eigenvalues, dec.projections), key=lambda p: np.angle(p[0]))
    assert by_angle[1][0] == pytest.approx(-1.0)
    assert by_angle[0][0] == pytest.approx((3 + 4j) / 5)
    assert np.allclose(by_angle[1][1], PROJ_MINUS, atol=1e-10)
    assert np.allclose(by_angle[0][1], PROJ_PLUS, atol=1e-10)


def test_cayley_scalar_values():
    assert spectra.cayley(np.array([[0.0]]))[0, 0] == pytest.approx(-1.0)
    assert spectra.cayley(np.array([[1.0]]))[0, 0] == pytest.approx((1 + 1j) / (1 - 1j))
    assert np.allclose(spectra.cayley(np.diag([0.0, 1.0])), np.diag([-1.0, 1j]))


def test_inverse_cayley_values():
    assert spectra.inverse_cayley(np.array([[-1.0]]))[0, 0] == pytest.approx(0.0)
    assert spectra.inverse_cayley(np.array([[1j]]))[0, 0] == pytest.approx(1.0)
    assert np.allclose(spectra.inverse_cayley(np.diag([-1.0, 1j])), np.diag([0.0, 1.0]), atol=1e-12)


def test_inverse_cayley_rejects_spectrum_at_one():
    with pytest.raises(DomainError):
        spectra.inverse_cayley(np.eye(3))


def test_cayley_roundtrip_many_dims(rng):
    for dim in range(1, 7):
        for _ in range(100):
            a = random_hermitian(rng, dim)
            u = spectra.cayley(a)
            spectra.assert_unitary(u, tol=1e-9)
            back = spectra.inverse_cayley(u)
            assert spectra.operator_norm(back - a) <= 1e-9 * max(1.0, spectra.operator_norm(a))


def test_cayley_roundtrip_from_unitary_side(rng):
    # the other composition: cayley(inverse_cayley(U)) = U on the Cayley image
    for dim in range(1, 7):
        count = 0
        while count < 100:
            u = random_unitary(rng, dim)
            if np.linalg.svd(u - np.eye(dim), compute_uv=False)[-1] < 1e-4:
                continue  # too close to spectrum at 1; outside the domain margin
            count += 1
            back = spectra.cayley(spectra.inverse_cayley(u))
            assert spectra.operator_norm(back - u) <= 1e-9


def test_unitary_roundtrip_through_cayley(rng):
    for dim in range(1, 5):
        for _ in range(25):
            u = random_unitary(rng, dim)
            dec = spectra.unitary_eig(u)
            assert spectra.operator_norm(dec.reconstruct() - u) <= 1e-9
            _validate(dec)
            assert all(abs(abs(lam) - 1.0) <= 1e-9 for lam in dec.eigenvalues)


def test_operator_norm_matches_svd(rng):
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert spectra.operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)


def test_unitary_eig_projections_come_from_hermitian_side(rng):
    # the projections must simultaneously decompose the phase-rotated
    # inverse Cayley transform; reconstruction of both checks that
    u = random_unitary(rng, 4)
    dec = spectra.unitary_eig(u)
    recon = sum(lam * p for lam, p in zip(dec.eigenvalues, dec.projections))
    assert spectra.operator_norm(recon - u) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6))
def test_scalar_cayley_roundtrip(x):
    lam = spectra.scalar_cayley(x)
    assert abs(abs(lam) - 1.0) <= 1e-9
    assert spectra.scalar_inverse_cayley(lam).real == pytest.approx(x, rel=1e-6, abs=1e-7)


def test_as_matrix_rejects_junk():
    with pytest.raises(InputValidationError):
        spectra.as_matrix(np.zeros((2, 3)))
    with pytest.raises(InputValidationError):
        spectra.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputValidationError):
        spectra.as_matrix(np.array([[1.0, 0.0], [0.0, 1.0 + 1j * np.inf]]))


SKEW = np.array([[1.0, 1.0], [0.0, 1.0]])  # neither Hermitian nor unitary


@pytest.mark.parametrize(
    "entry, m",
    [
        pytest.param(moebius.zpoint, SKEW, id="zpoint"),
        pytest.param(moebius.classify_zpoint, SKEW, id="classify_zpoint"),
        pytest.param(spectra.unitary_eig, SKEW, id="unitary_eig"),
        pytest.param(lambda a: moebius.PairRep(np.zeros((2, 2)), a), SKEW, id="PairRep"),
        pytest.param(spectra.hermitian_eig, SKEW, id="hermitian_eig"),
        pytest.param(spectra.cayley, SKEW, id="cayley"),
        pytest.param(spectra.lambda_min, SKEW, id="lambda_min"),
        pytest.param(lambda g: jordan.generate_algebra([g]), SKEW, id="generate_algebra"),
        # skew part 3e-11 i: the spectral defect 6e-11 passes a 1e-10
        # spectral test, the Frobenius defect 1.2e-10 does not
        pytest.param(spectra.hermitian_eig, np.eye(4) + 3e-11j * np.eye(4), id="hermitian_eig-frobenius"),
    ],
)
def test_entry_points_guard_their_matrices(entry, m):
    with pytest.raises(InputValidationError):
        entry(m)


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda: spectra.hermitian_eig(EMPTY), id="hermitian_eig"),
        pytest.param(lambda: spectra.unitary_eig(EMPTY), id="unitary_eig"),
        pytest.param(lambda: spectra.lambda_min(EMPTY), id="lambda_min"),
        pytest.param(lambda: spectra.operator_norm(EMPTY), id="operator_norm"),
        pytest.param(lambda: jordan.generate_algebra([], dim=0), id="generate_algebra"),
        pytest.param(lambda: jordan.hermitian_algebra(0), id="hermitian_algebra"),
    ],
)
def test_empty_matrices_are_rejected(entry):
    with pytest.raises(InputValidationError):
        entry()
