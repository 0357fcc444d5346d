"""Spectral kernel tests.

Frozen expected values: the 2x2 all-ones matrix has characteristic polynomial
lambda^2 - 2 lambda, hence eigenvalues {0, 2} with rank-one projections onto
(1, -1)/sqrt(2) and (1, 1)/sqrt(2); its Cayley transform therefore has
eigenvalues (0+i)/(0-i) = -1 and (2+i)/(2-i) = (3+4i)/5 on the same
projections.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frames import clusters, hermitian_reference, unitary_reference
from whlab import jordan, moebius, spectra
from whlab.errors import DomainError, InputValidationError
from whlab.sampling import random_hermitian, random_unitary

ONES = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
PROJ_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
PROJ_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _validate(dec):
    """The invariants of a one-matrix SpectralDecomposition: its cluster
    projections resolve the identity and are Hermitian, mutually orthogonal
    idempotents, each within 10 DEFAULT_TOL sqrt(dim) in the Frobenius norm."""
    dim = dec.vectors.shape[-1]
    tol = 10 * spectra.DEFAULT_TOL * np.sqrt(dim)
    _, projections = clusters(dec)
    assert np.linalg.norm(sum(projections) - np.eye(dim)) <= tol, "projections do not resolve the identity"
    for j, ej in enumerate(projections):
        assert np.linalg.norm(ej - ej.conj().T) <= tol, f"projection {j} is not Hermitian"
        for k, ek in enumerate(projections):
            expected = ej if j == k else 0.0
            assert np.linalg.norm(ej @ ek - expected) <= tol, f"projections {j},{k} not orthogonal idempotents"


def test_hermitian_eig_identity():
    values, projections = clusters(spectra.hermitian_eig(np.eye(2)))
    assert len(values) == 1
    assert values[0] == pytest.approx(1.0)
    assert np.allclose(projections[0], np.eye(2))


def test_hermitian_eig_diagonal():
    values, projections = clusters(spectra.hermitian_eig(np.diag([0.0, 1.0])))
    assert np.allclose(values, [0.0, 1.0])
    assert np.allclose(projections[0], np.diag([1.0, 0.0]))
    assert np.allclose(projections[1], np.diag([0.0, 1.0]))


def test_hermitian_eig_ones_matrix():
    values, projections = clusters(spectra.hermitian_eig(ONES))
    assert np.allclose(values, [0.0, 2.0], atol=1e-12)
    assert np.allclose(projections[0], PROJ_MINUS, atol=1e-12)
    assert np.allclose(projections[1], PROJ_PLUS, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputValidationError):
        spectra.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_merges_near_degenerate():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0])
    values, projections = clusters(spectra.hermitian_eig(a))
    assert len(values) == 2
    assert np.trace(projections[0]).real == pytest.approx(2.0)

    # a chain of gaps below the threshold merges into one eigenvalue, and the
    # averaging error adds up over the chain and over separate clusters
    values, _ = clusters(spectra.hermitian_eig(np.diag([0.0, 9e-9, 1.8e-8])))
    assert values == pytest.approx([9e-9])
    values, _ = clusters(spectra.hermitian_eig(np.diag([0.0, 1e-8, 1.0, 1.0 + 1e-8, 2.0, 2.0 + 1e-8])))
    assert len(values) == 3
    # however long the chain: five eigenvalues 9e-9 apart span 3.6e-8
    values, _ = clusters(spectra.hermitian_eig(np.diag(np.arange(5) * 9e-9)))
    assert values == pytest.approx([1.8e-8])


def test_unitary_eig_merges_near_degenerate():
    values, _ = clusters(spectra.unitary_eig(np.diag(np.exp(1j * np.array([0.0, 9e-9, 1.8e-8])))))
    assert len(values) == 1
    assert values[0] == pytest.approx(np.exp(9e-9j))
    values, _ = clusters(spectra.unitary_eig(np.diag(np.exp(1j * np.arange(6) * 9e-9))))
    assert len(values) == 1
    assert values[0] == pytest.approx(np.exp(2.25e-8j))


def test_unitary_eig_merges_at_cluster_tol_on_the_circle():
    # 1.6 CLUSTER_TOL apart at angle 0: the Hermitian pullback at the first
    # phase shrinks that gap below CLUSTER_TOL, the circle does not
    values, _ = clusters(spectra.unitary_eig(np.diag(np.exp(1j * np.array([0.0, 1.6e-8])))))
    assert len(values) == 2
    # so pair_encode keeps the eigenvalue 1.6e-8 from 1 out of E
    pair = moebius.pair_encode(moebius.zpoint(np.diag(np.exp(1j * np.array([0.0, 1.6e-8, 2.0])))))
    assert np.trace(pair.e).real == pytest.approx(1.0)


def test_validate_with_a_high_rank_projection():
    _validate(spectra.unitary_eig(np.eye(16)))
    _validate(spectra.hermitian_eig(np.diag([1.0] * 15 + [2.0])))


def test_unitary_eig_identity_and_diagonal():
    values, _ = clusters(spectra.unitary_eig(np.eye(2)))
    assert len(values) == 1
    assert values[0] == pytest.approx(1.0)

    values, _ = clusters(spectra.unitary_eig(np.diag([-1.0, 1j])))
    # angles in [0, 2 pi): -1 may come back with either sign of a rounding-sized imaginary part
    vals = sorted(values, key=lambda z: np.angle(z) % (2 * np.pi))
    assert vals[0] == pytest.approx(1j)
    assert vals[1] == pytest.approx(-1.0)


def test_unitary_eig_of_cayley_ones():
    dec = spectra.unitary_eig(spectra.cayley(ONES))
    # angles in [0, 2 pi): -1 may come back with either sign of a rounding-sized imaginary part
    by_angle = sorted(zip(*clusters(dec)), key=lambda p: np.angle(p[0]) % (2 * np.pi))
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
            assert all(abs(abs(lam) - 1.0) <= 1e-9 for lam in dec.values)


def test_operator_norm_matches_svd(rng):
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert spectra.operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)


def test_unitary_eig_projections_come_from_hermitian_side(rng):
    # the projections must simultaneously decompose the phase-rotated
    # inverse Cayley transform; reconstruction of both checks that
    u = random_unitary(rng, 4)
    dec = spectra.unitary_eig(u)
    recon = sum(lam * p for lam, p in zip(*clusters(dec)))
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


# Planted spectra at the edges where merging decides: chains whose gaps sit
# just below, at and above CLUSTER_TOL, clusters straddling angle 0 on the
# circle, eigenvalues within CLUSTER_TOL of 1 and -1, and scales from 1e-6 to
# 1e6.  The oracle is the per-matrix merge of tests/frames.py.
GAP_UNITS = [0.0, 0.5, 0.999, 1.001, 2.0]  # consecutive gaps in units of CLUSTER_TOL
# unitary_eig's first phases: an eigenvalue at e^{-i theta} rejects theta.  The
# third phase puts the Cayley pole near 1, where the pullback sends a cluster
# straddling angle 0 to both ends of the Hermitian spectrum: only the circle
# merge's wraparound joins it.
_phases = np.random.default_rng(0)
FIRST_PHASES = [_phases.uniform(0.0, 2.0 * np.pi) for _ in range(2)]


@st.composite
def _chain(draw, far):
    """Consecutive gaps of a planted spectrum: CLUSTER_TOL multiples, or
    ``far`` apart."""
    dim = draw(st.integers(1, 6))
    units = draw(st.lists(st.sampled_from(GAP_UNITS + [None]), min_size=dim - 1, max_size=dim - 1))
    return np.array([far if unit is None else unit * spectra.CLUSTER_TOL for unit in units])


def _conjugate(draw, diagonal):
    """diagonal in a random orthonormal frame drawn from a hypothesis seed."""
    q = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), len(diagonal))
    return (q * diagonal) @ q.conj().T


@st.composite
def planted_hermitian(draw):
    scale = 10.0 ** draw(st.integers(-6, 6))
    center = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.integers(-6, 6))
    gaps = draw(_chain(far=scale))
    m = _conjugate(draw, center + np.concatenate([[0.0], np.cumsum(gaps)]))
    return 0.5 * (m + m.conj().T)


@st.composite
def planted_unitary(draw):
    anchor = draw(st.sampled_from([0.0, np.pi, None]))
    anchor = draw(st.floats(0.0, 2.0 * np.pi)) if anchor is None else anchor
    start = draw(st.sampled_from([-2.0, -1.001, -0.999, -0.5, 0.0, 0.5])) * spectra.CLUSTER_TOL
    gaps = draw(_chain(far=draw(st.floats(0.05, 1.0))))
    blockers = np.exp(-1j * np.array(FIRST_PHASES[: draw(st.integers(0, 2))]))
    chain = np.exp(1j * (anchor + start + np.concatenate([[0.0], np.cumsum(gaps)])))
    return _conjugate(draw, np.concatenate([chain, blockers]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted_hermitian())
def test_hermitian_frame_matches_the_per_matrix_merge(m):
    dec = spectra.hermitian_eig(m)
    values, projections = clusters(dec)
    ref_values, ref_projections = hermitian_reference(m)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_allclose(np.array(projections), np.array(ref_projections), rtol=0, atol=1e-12)
    # every eigenvalue moves at most the span of its chain, below dim CLUSTER_TOL
    dim = len(m)
    scale = max(1.0, np.abs(np.linalg.eigvalsh(m)).max())
    bound = 10 * spectra.DEFAULT_TOL * scale * np.sqrt(dim) + np.sqrt(dim) * dim * spectra.CLUSTER_TOL
    assert np.linalg.norm(dec.reconstruct() - m) <= bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted_unitary())
# a cluster straddling angle 0 at the third phase, which only the wraparound joins
@example(np.diag(np.exp(-1j * np.array([*FIRST_PHASES, 0.5e-8, -0.499e-8]))))
def test_unitary_frame_matches_the_per_matrix_merge(u):
    dec = spectra.unitary_eig(u)
    values, projections = clusters(dec)
    ref_values, ref_projections = unitary_reference(u)
    assert len(values) == len(ref_values)
    dim = len(u)
    for lam, proj in zip(ref_values, ref_projections):
        gaps = [np.linalg.norm(p - proj) for p in projections]
        j = int(np.argmin(gaps))
        assert gaps[j] <= 1e-12
        assert abs(values[j] - lam) <= 1e-12
    assert np.linalg.norm(dec.reconstruct() - u) <= 10 * spectra.DEFAULT_TOL * np.sqrt(dim) + np.sqrt(dim) * dim * spectra.CLUSTER_TOL
