"""The stack contract of spectra, moebius, jordan and fibers.

A kernel given a stack (T, d, d) must answer, matrix by matrix, what it
answers for each matrix alone; a guard must judge every matrix of the stack
and name the one that fails; operands whose shapes do not match must raise
instead of broadcasting.  Agreement is checked to 1e-13 rather than bitwise,
since batched and single LAPACK calls need not round alike on every build.
A stack of piecewise polynomials involves no LAPACK call, so its operations
must equal the per-function ones bit for bit, and so must a block of
Gaussian draws equal the per-trial draws.
"""

import functools
import operator

import numpy as np
import pytest

from frames import clusters, line_merge
from whlab import fibers, jordan, moebius, spectra, suites
from whlab.errors import DomainError, InputValidationError, NumericalError, WitnessNotFoundError
from whlab.fell import INF
from whlab.jordan import ConeClass
from whlab.moebius import PairRep
from whlab.sampling import random_complex, random_hermitian, random_positive, random_positive_definite, random_unitary

COUNT = 5
DIMS = range(1, 9)


def _stack(draw):
    return np.array([draw() for _ in range(COUNT)])


def _same(stacked, singles):
    """A stacked result against the list of single results, to 1e-13."""
    if isinstance(stacked, spectra.SpectralDecomposition):
        assert len(stacked.values) == len(singles)
        for t, single in enumerate(singles):
            for got, want in zip(clusters(stacked[t]), clusters(single), strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
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
    # random Hermitians (mostly outside the cone) and positives (interior)
    "classify": lambda h, p, b, u: (
        functools.partial(jordan.classify, jordan.hermitian_algebra(h.shape[-1])),
        (np.concatenate([h[:2], p[2:]]),),
    ),
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


@pytest.mark.parametrize("generator", [random_complex, random_hermitian])
def test_a_gaussian_block_holds_the_per_trial_draws(generator):
    block = generator(np.random.default_rng(3), 4, size=(COUNT, 2))
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(block, [[generator(rng, 4) for _ in range(2)] for _ in range(COUNT)])


def test_a_suite_gaussian_block_holds_each_trials_matrices_in_order():
    g, a, b = suites._gaussians(np.random.default_rng(3), 4, COUNT, 3)
    rng = np.random.default_rng(3)
    singles = [[random_complex(rng, 4) for _ in range(3)] for _ in range(COUNT)]
    np.testing.assert_array_equal(np.stack([g, a, b], axis=1), singles)


def test_random_zpoint_repeats_for_a_fixed_seed_and_size():
    boundary = np.arange(7) % 3 == 0
    for kwargs in ({}, {"boundary": boundary}):
        first = moebius.random_zpoint(np.random.default_rng(3), 3, size=7, **kwargs)
        again = moebius.random_zpoint(np.random.default_rng(3), 3, size=7, **kwargs)
        np.testing.assert_array_equal(first.u, again.u)
    assert moebius.random_zpoint(np.random.default_rng(3), 3).u.shape == (3, 3)


@pytest.mark.parametrize("dim", range(1, 6))
def test_random_zpoints_are_z_points_and_boundary_plants_minus_one(dim):
    boundary = np.arange(40) % 2 == 0
    z = moebius.random_zpoint(np.random.default_rng(dim), dim, size=40, boundary=boundary)
    moebius.zpoint(z.u)  # every point passes the Z check on its own matrix
    on_boundary = np.array([c is moebius.ZClass.BOUNDARY for c in moebius.classify_zpoint(z.u)])
    assert not on_boundary[~boundary].any()
    # a planted point has -1 in its spectrum unless E took every cluster, which makes U = 1
    whole = np.abs(z.u - np.eye(dim)).max(axis=(1, 2)) <= 1e-12
    assert (on_boundary | whole)[boundary].all()
    assert on_boundary.sum() >= 10


def test_two_d_inputs_keep_their_scalar_answers():
    assert isinstance(spectra.operator_norm(np.eye(2)), float)
    assert isinstance(spectra.lambda_min(np.eye(2)), float)
    assert isinstance(spectra.unitary_eig(np.eye(2)), spectra.SpectralDecomposition)
    assert isinstance(spectra.hermitian_eig(np.eye(2)), spectra.SpectralDecomposition)
    zero = PairRep(np.zeros((2, 2)), np.zeros((2, 2)))
    assert moebius.qset_contains(zero, np.eye(2)) is True
    assert zero.close_to(zero, 1e-12) is True
    assert moebius.classify_zpoint(np.eye(2)) == moebius.ZClass.INTERIOR_ORBIT


def test_a_stack_of_stacks_classifies_into_one_flat_list_in_c_order():
    grid = np.stack([np.eye(3), -np.eye(3), np.diag([1.0, 1.0, np.exp(-0.5j)]), np.diag([1j, -1j, 1.0])]).reshape(2, 2, 3, 3)
    assert moebius.classify_zpoint(grid) == [moebius.classify_zpoint(u) for u in grid.reshape(4, 3, 3)]
    assert moebius.classify_zpoint(grid) == [
        moebius.ZClass.INTERIOR_ORBIT, moebius.ZClass.BOUNDARY, moebius.ZClass.OUTSIDE, moebius.ZClass.OUTSIDE]


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
    dec = spectra.hermitian_eig(mats)
    np.testing.assert_array_equal(dec.vectors, evecs)
    for t in range(len(mats)):
        ref_values, ref_projections, ref_owner = line_merge(evals[t], evecs[t])
        # each column holds its run's np.mean, bit for bit
        np.testing.assert_array_equal(dec.values[t], ref_values.real[ref_owner])
        values, projections = clusters(dec[t])
        np.testing.assert_array_equal(values, ref_values.real)
        np.testing.assert_array_equal(np.array(projections), np.array(ref_projections))


def test_stacked_classify_matches_single_calls_in_every_class():
    diagonal = jordan.generate_algebra([np.diag([1.0, 0.0])])
    probes = np.array(
        [
            np.eye(2),  # interior
            np.diag([2.0, 3.0]),  # interior
            np.diag([1.0, 0.0]),  # boundary
            np.diag([1.0, -1e-12]),  # boundary, within DEFAULT_TOL of the cone
            -np.eye(2),  # outside the cone
            np.array([[0.0, 1.0], [1.0, 0.0]]),  # Hermitian, off the diagonal algebra
            np.array([[0.0, 1.0], [0.0, 0.0]]),  # not Hermitian: off the algebra, no eigensolve
        ]
    )
    stacked = jordan.classify(diagonal, probes)
    assert stacked == [jordan.classify(diagonal, m) for m in probes]
    assert stacked[2:5] == [ConeClass.BOUNDARY, ConeClass.BOUNDARY, ConeClass.OUTSIDE_CONE]
    assert set(stacked) == set(ConeClass)
    # a stack with no matrix in the algebra reaches no eigensolve
    assert jordan.classify(diagonal, probes[5:]) == [ConeClass.OUTSIDE_ALGEBRA] * 2
    assert jordan.classify(diagonal, np.eye(2)) is ConeClass.INTERIOR


def _separate_points_all_probes(p1, p2):
    """The probe sweep judging all 70 probes and masking the zero ones by
    their operator norm, as separate_points did before it dropped them."""
    if p1.close_to(p2, tol=spectra.DEFAULT_TOL * 10):
        return None
    dim = p1.dim
    scaled = moebius.PROBE_SCALES[:, None, None, None] * np.array([p1.e, p2.e])
    probes = np.concatenate([scaled.reshape(-1, dim, dim), [-p1.a, -p2.a]])
    nonzero = spectra.operator_norm(probes) != 0.0
    probes = 0.5 * (probes + probes.conj().swapaxes(-1, -2))
    separates = nonzero & (moebius.qset_contains(p1, probes) != moebius.qset_contains(p2, probes))
    if not separates.any():
        raise WitnessNotFoundError("probe sweep exhausted without a separating witness")
    return probes[np.argmax(separates)]


@pytest.mark.parametrize("dim", range(1, 5))
def test_separate_points_matches_the_all_probe_sweep(dim):
    pairs = moebius.pair_encode(moebius.random_zpoint(np.random.default_rng(40 + dim), dim, size=80))
    projection_witnesses = 0
    for p1, p2 in zip(pairs[0::2], pairs[1::2]):
        try:
            expected = _separate_points_all_probes(p1, p2)
        except WitnessNotFoundError:
            with pytest.raises(WitnessNotFoundError):
                moebius.separate_points(p1, p2)
            continue
        witness = moebius.separate_points(p1, p2)
        if expected is None:
            assert witness is None
        else:
            np.testing.assert_array_equal(witness, expected)
            projection_witnesses += not any(np.array_equal(witness, -p.a) for p in (p1, p2))
    assert projection_witnesses  # the scaled-E part of the sweep decided some pairs


# ---------------------------------------------------------------------------
# fibers: stacks of piecewise polynomials on one breakpoint vector


def _functions(level, seed):
    """A seeded stack of COUNT functions and the same draws one at a time."""
    stack = fibers.random_dyadic_pl(np.random.default_rng(seed), level=level, size=COUNT)
    rng = np.random.default_rng(seed)
    return stack, [fibers.random_dyadic_pl(rng, level=level) for _ in range(COUNT)]


def _equal_functions(stacked, singles):
    for t, single in enumerate(singles):
        np.testing.assert_array_equal(stacked.breaks, single.breaks)
        np.testing.assert_array_equal(stacked.coefs[t], single.coefs)


@pytest.mark.parametrize("level", [3, 4])
def test_stacked_function_ops_equal_single_ops_bit_for_bit(level):
    f, fs = _functions(level, level)
    g, gs = _functions(level, 10 + level)
    _equal_functions(f, fs)
    for op in (operator.add, operator.sub, operator.mul):
        _equal_functions(op(f, g), [op(a, b) for a, b in zip(fs, gs)])
        _equal_functions(op(f, gs[0]), [op(a, gs[0]) for a in fs])  # one function goes with any stack
    _equal_functions(f.star() * f, [a.star() * a for a in fs])
    _equal_functions(2.5 * f, [2.5 * a for a in fs])
    ts = np.linspace(0.0, 1.0, 37)
    np.testing.assert_array_equal(f(ts), [a(ts) for a in fs])
    np.testing.assert_array_equal(f(0.3), [a(0.3) for a in fs])
    for p in (f, f * g):  # piecewise linear, and quadratic with interior vertices
        ps = [a * b for a, b in zip(fs, gs)] if p is not f else fs
        for hi in (1.0, 0.3, 2.0**-5):
            np.testing.assert_array_equal(p.sup_abs(hi), [a.sup_abs(hi) for a in ps])
        for n in range(13):
            _equal_functions(fibers.halving_apply(n, p), [fibers.halving_apply(n, a) for a in ps])
        for x in [*range(13), INF]:
            np.testing.assert_array_equal(fibers.quotient_norm(x, p), [fibers.quotient_norm(x, a) for a in ps])
            np.testing.assert_array_equal(
                fibers.ideal_contains(x, p, tol=0.5), [fibers.ideal_contains(x, a, tol=0.5) for a in ps]
            )


def test_a_stack_of_pairs_draws_trial_by_trial():
    # (x, y) per trial, as the seminorm case draws them
    pairs = fibers.random_dyadic_pl(np.random.default_rng(5), level=3, size=(COUNT, 2))
    rng = np.random.default_rng(5)
    singles = [fibers.random_dyadic_pl(rng, level=3) for _ in range(2 * COUNT)]
    _equal_functions(pairs[:, 0], singles[0::2])
    _equal_functions(pairs[:, 1], singles[1::2])
    assert pairs.shape == (COUNT, 2) and pairs[:, 0].shape == (COUNT,) and pairs[1, 0].shape == ()


def test_stacks_on_other_breakpoints_raise():
    rng = np.random.default_rng(6)
    coarse = fibers.random_dyadic_pl(rng, level=3, size=COUNT)
    fine = fibers.random_dyadic_pl(rng, level=4, size=COUNT)
    for left, right in [(coarse, fine), (coarse, fine[0]), (coarse[0], fine)]:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(InputValidationError, match="dimension mismatch"):
                op(left, right)
    with pytest.raises(InputValidationError, match="dimension mismatch"):
        coarse + fibers.random_dyadic_pl(rng, level=3, size=COUNT + 1)
    with pytest.raises(InputValidationError):
        coarse[0][0]  # one function has no stack axes
    # two single functions still meet on the union of their breakpoints
    both = coarse[0] + fine[0]
    np.testing.assert_array_equal(both.breaks, fine.breaks)


def test_one_function_keeps_its_float_answers():
    f = fibers.random_dyadic_pl(np.random.default_rng(7), level=3)
    assert f.shape == ()
    for value in (f(0.5), f.sup_abs(), f.sup_abs(0.25), fibers.quotient_norm(2, f), fibers.quotient_norm(INF, f)):
        assert type(value) is float
    assert type(fibers.ideal_contains(2, f)) is bool
