"""The stack contract of spectra, moebius and jordan.order_compare.

A kernel given a stack (T, d, d) must answer, matrix by matrix, what it
answers for each matrix alone; a guard must judge every matrix of the stack
and name the one that fails; operands whose shapes do not match must raise
instead of broadcasting.  Agreement is checked to 1e-13 rather than bitwise,
since batched and single LAPACK calls need not round alike on every build.
"""

import numpy as np
import pytest

from whlab import jordan, moebius, spectra
from whlab.errors import DomainError, InputValidationError, NumericalError
from whlab.moebius import PairRep
from whlab.sampling import random_hermitian, random_positive, random_positive_definite, random_unitary

COUNT = 5
DIMS = range(1, 9)


def _stack(draw):
    return np.array([draw() for _ in range(COUNT)])


def _same(stacked, singles):
    """A stacked result against the list of single results, to 1e-13."""
    if isinstance(stacked, list) and isinstance(stacked[0], spectra.SpectralDecomposition):
        for dec, single in zip(stacked, singles, strict=True):
            np.testing.assert_allclose(dec.eigenvalues, single.eigenvalues, rtol=0, atol=1e-13)
            np.testing.assert_allclose(dec.projections, single.projections, rtol=0, atol=1e-13)
    elif isinstance(stacked, list):
        assert stacked == singles
    else:
        np.testing.assert_allclose(stacked, np.array(singles), rtol=0, atol=1e-13)


def _inputs(rng, dim):
    herm = _stack(lambda: random_hermitian(rng, dim))
    pos = _stack(lambda: random_positive(rng, dim))
    pd = _stack(lambda: random_positive_definite(rng, dim))
    unit = _stack(lambda: random_unitary(rng, dim))
    return herm, pos, pd, unit


SPECTRA_KERNELS = {
    "as_matrix": lambda h, p, b, u: (spectra.as_matrix, (h,)),
    "assert_hermitian": lambda h, p, b, u: (spectra.assert_hermitian, (h,)),
    "assert_unitary": lambda h, p, b, u: (spectra.assert_unitary, (u,)),
    "operator_norm": lambda h, p, b, u: (spectra.operator_norm, (h,)),
    "lambda_min": lambda h, p, b, u: (spectra.lambda_min, (h,)),
    "cayley": lambda h, p, b, u: (spectra.cayley, (h,)),
    "inverse_cayley": lambda h, p, b, u: (spectra.inverse_cayley, (np.array([spectra.cayley(m) for m in h]),)),
    "hermitian_eig": lambda h, p, b, u: (spectra.hermitian_eig, (h,)),
    "unitary_eig": lambda h, p, b, u: (spectra.unitary_eig, (u,)),
}

MOEBIUS_KERNELS = {
    "boxplus": lambda h, p, b, u: (moebius.boxplus, (u, h)),
    "psi": lambda h, p, b, u: (moebius.psi, (p,)),
    "psi_inv": lambda h, p, b, u: (moebius.psi_inv, (np.array([moebius.psi(m) for m in p]),)),
    "moebius_contraction": lambda h, p, b, u: (moebius.moebius_contraction, (p, b)),
    "contraction_inverse": lambda h, p, b, u: (
        moebius.contraction_inverse,
        (np.array([moebius.moebius_contraction(x, y) for x, y in zip(p, b)]), b),
    ),
    "classify_zpoint": lambda h, p, b, u: (moebius.classify_zpoint, (u,)),
}

JORDAN_KERNELS = {
    # random Hermitians against positives for the first three (lt or
    # incomparable), p against itself (leq) for the last two
    "order_compare": lambda h, p, b, u: (jordan.order_compare, (np.concatenate([h[:3], p[3:]]), p)),
}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", sorted(SPECTRA_KERNELS) + sorted(MOEBIUS_KERNELS) + sorted(JORDAN_KERNELS))
def test_stacked_kernel_agrees_with_single_calls(name, dim):
    rng = np.random.default_rng(100 * dim + len(name))
    kernel, args = {**SPECTRA_KERNELS, **MOEBIUS_KERNELS, **JORDAN_KERNELS}[name](*_inputs(rng, dim))
    singles = [kernel(*(a[t] for a in args)) for t in range(COUNT)]
    _same(kernel(*args), singles)


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_z_points_and_pairs_agree_with_single_calls(dim):
    rng = np.random.default_rng(dim)
    z = moebius.random_zpoint(rng, dim, size=COUNT)
    singles = [moebius.zpoint(u) for u in z.u]
    _same(z.dec, [s.dec for s in singles])
    _same(moebius.zpoint(z.u).dec, [s.dec for s in singles])

    pairs = moebius.pair_encode(z)
    single_pairs = [moebius.pair_encode(s) for s in singles]
    _same(pairs.e, [p.e for p in single_pairs])
    _same(pairs.a, [p.a for p in single_pairs])
    _same(moebius.pair_decode(pairs).u, [moebius.pair_decode(p).u for p in single_pairs])

    probes = _stack(lambda: random_hermitian(rng, dim))
    _same(moebius.qset_contains(pairs[0], probes), [moebius.qset_contains(pairs[0], b) for b in probes])
    _same(moebius.qset_contains(pairs, probes), [moebius.qset_contains(p, b) for p, b in zip(single_pairs, probes)])
    _same(pairs.close_to(pairs, 1e-12), [True] * COUNT)


def test_random_zpoint_stack_draws_like_single_calls():
    first = moebius.random_zpoint(np.random.default_rng(3), 3, size=4)
    rng = np.random.default_rng(3)
    for t in range(4):
        np.testing.assert_allclose(first.u[t], moebius.random_zpoint(rng, 3).u, rtol=0, atol=1e-13)


def test_two_d_inputs_keep_their_scalar_answers():
    assert isinstance(spectra.operator_norm(np.eye(2)), float)
    assert isinstance(spectra.lambda_min(np.eye(2)), float)
    assert isinstance(spectra.unitary_eig(np.eye(2)), spectra.SpectralDecomposition)
    assert isinstance(spectra.hermitian_eig(np.eye(2)), spectra.SpectralDecomposition)
    zero = PairRep(np.zeros((2, 2)), np.zeros((2, 2)))
    assert moebius.qset_contains(zero, np.eye(2)) is True
    assert zero.close_to(zero, 1e-12) is True
    assert moebius.classify_zpoint(np.eye(2)) == moebius.ZClass.INTERIOR_ORBIT


def test_column_major_and_strided_inputs_are_judged_like_row_major_ones():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 3)
    u = random_unitary(rng, 3)
    for view in (np.asfortranarray, lambda m: np.kron(m, np.ones((1, 2)))[:, ::2]):
        np.testing.assert_array_equal(spectra.assert_hermitian(view(h)), h)
        np.testing.assert_array_equal(spectra.assert_unitary(view(u)), u)
        pair = PairRep(view(np.diag([1.0, 0.0, 0.0])), view(np.diag([0.0, 2.0, 1.0])))
        assert moebius.qset_contains(pair, view(np.eye(3)))


SKEW = np.array([[1.0, 1.0], [0.0, 1.0]])


def _bad_third(good, bad):
    """A stack of two good matrices and a bad one at index 2."""
    return np.array([good, good, bad])


NAN = np.full((2, 2), np.nan)
EYE = np.eye(2)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: spectra.as_matrix(_bad_third(EYE, NAN)), InputValidationError, id="as_matrix"),
        pytest.param(lambda: spectra.assert_hermitian(_bad_third(EYE, SKEW)), InputValidationError, id="hermitian"),
        pytest.param(lambda: spectra.assert_unitary(_bad_third(EYE, 2 * EYE)), InputValidationError, id="unitary"),
        pytest.param(lambda: spectra.lambda_min(_bad_third(EYE, SKEW)), InputValidationError, id="lambda_min"),
        pytest.param(lambda: spectra.inverse_cayley(_bad_third(-EYE, EYE)), DomainError, id="inverse_cayley"),
        pytest.param(lambda: spectra.unitary_eig(_bad_third(EYE, SKEW)), InputValidationError, id="unitary_eig"),
        pytest.param(lambda: moebius.psi_inv(_bad_third(EYE, -EYE)), DomainError, id="psi_inv"),
        pytest.param(lambda: moebius.zpoint(_bad_third(EYE, np.diag([1j, -1j]))), DomainError, id="zpoint"),
        pytest.param(
            lambda: moebius.contraction_inverse(_bad_third(0.5 * EYE, EYE), EYE), DomainError, id="contraction_inverse"
        ),
        pytest.param(
            lambda: PairRep(_bad_third(np.diag([1.0, 0.0]), np.diag([1.0, 0.5])), np.zeros((3, 2, 2))),
            InputValidationError,
            id="PairRep",
        ),
    ],
)
def test_guard_names_the_bad_matrix_of_a_stack(call, error):
    with pytest.raises(error, match="stack index 2"):
        call()


def test_unitary_guard_rejects_a_defect_that_is_not_a_number():
    # U*U overflows to inf and NaN: the defect is NaN, and NaN > tol is False
    huge = 1e200 * np.eye(2)
    with pytest.raises(InputValidationError, match="nan"):
        spectra.assert_unitary(huge)
    with pytest.raises(InputValidationError):
        spectra.inverse_cayley(huge)
    with pytest.raises(InputValidationError):
        spectra.unitary_eig(np.array([np.eye(2), huge]))
    with pytest.raises(InputValidationError, match="projection"):
        PairRep(huge, np.zeros((2, 2)))


ZEROS3 = np.zeros((3, 2, 2))  # a stack of three 2 x 2 zeros


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: PairRep(e=np.zeros((2, 2)), a=np.zeros((3, 3))), id="PairRep"),
        pytest.param(lambda: moebius.moebius_contraction(np.eye(2), np.eye(3)), id="moebius_contraction"),
        pytest.param(lambda: moebius.contraction_inverse(0.1 * np.eye(2), np.eye(3)), id="contraction_inverse"),
        pytest.param(lambda: moebius.boxplus(np.array([np.eye(2)] * 3), np.zeros((4, 2, 2))), id="boxplus-lengths"),
        pytest.param(lambda: moebius.boxplus(np.array([np.eye(2)] * 3), np.zeros((3, 3, 3))), id="boxplus-dims"),
        pytest.param(lambda: moebius.moebius_contraction(ZEROS3, np.zeros((2, 3, 2, 2))), id="contraction-ranks"),
        pytest.param(lambda: PairRep(e=ZEROS3, a=np.zeros((2, 2))), id="PairRep-stack"),
        pytest.param(lambda: moebius.qset_contains(PairRep(ZEROS3, ZEROS3), np.zeros((4, 2, 2))), id="qset_contains"),
        pytest.param(lambda: moebius.separate_points(PairRep(ZEROS3, ZEROS3), PairRep(ZEROS3, ZEROS3)), id="separate"),
    ],
)
def test_shape_mismatches_raise_instead_of_broadcasting(call):
    with pytest.raises(InputValidationError, match="dimension mismatch"):
        call()


def test_separate_points_keeps_the_first_witness_in_probe_order():
    # E1 = diag(1, 0), A1 = 0 against E2 = 0, A2 = diag(0, 1).  The probe
    # -2^-8 E1 (third in the sweep; the second, 2^-8 E2, is zero and skipped)
    # lies in Q1 but not in Q2, and so does -A2, last in the sweep
    p1 = PairRep(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    p2 = PairRep(np.zeros((2, 2)), np.diag([0.0, 1.0]))
    assert moebius.qset_contains(p1, -p2.a) != moebius.qset_contains(p2, -p2.a)
    witness = moebius.separate_points(p1, p2)
    np.testing.assert_array_equal(witness, -(2.0**-8) * np.diag([1.0, 0.0]))


def test_stacked_error_paths_keep_single_behaviour(monkeypatch):
    monkeypatch.setattr(spectra, "PHASE_ATTEMPTS", 0)
    with pytest.raises(NumericalError):
        spectra.unitary_eig(np.eye(2))


def _merge_reference(evals, evecs, cluster):
    """The per-matrix merge: each run of eigenvalues with gaps <= cluster
    averaged with np.mean, its projection V V* from the run's eigenvectors."""
    eigenvalues, projections = [], []
    owner = np.empty(len(evals), dtype=np.int64)
    for index, group in enumerate(spectra._cluster(evals, cluster)):
        vecs = evecs[:, group]
        projections.append(vecs @ vecs.conj().T)
        eigenvalues.append(complex(np.mean(evals[group])))
        owner[group] = index
    return np.array(eigenvalues), projections, owner


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_merge_matches_the_per_matrix_merge(dim):
    # spectra with runs of near-equal eigenvalues of every length, chains
    # included, and a generic spectrum, all in one stack
    rng = np.random.default_rng(dim)
    spectra_list = [
        np.arange(dim, dtype=float),
        np.zeros(dim),
        np.arange(dim) * 9e-9,
        np.repeat([0.0, 1.0], [dim // 2, dim - dim // 2]) + rng.uniform(0, 5e-9, dim),
        np.sort(rng.standard_normal(dim)),
    ]
    mats = np.array([u @ np.diag(s) @ u.conj().T for s in spectra_list for u in [random_unitary(rng, dim)]])
    evals, evecs = np.linalg.eigh(mats)
    merged = spectra._merge(evals, evecs, spectra.CLUSTER_TOL)
    for t, (values, projections, owner) in enumerate(merged):
        ref_values, ref_projections, ref_owner = _merge_reference(evals[t], evecs[t], spectra.CLUSTER_TOL)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(np.array(projections), np.array(ref_projections))
        np.testing.assert_array_equal(owner, ref_owner)
