"""Truncated Wiener-Hopf operator tests.

Oracle for the conjugation action: alpha_a(x) = u^a x (u*)^a computed by
direct a-fold multiplication, independent of the action's power table
U_m = u^m.  Every action here is Ad u for a unitary u: the zero endomorphism,
the only other *-endomorphism of M_k, has no inverse, and alpha at negative
exponents is part of the action's contract.
"""

import operator

import numpy as np
import pytest

from whlab import toeplitz
from whlab.errors import InputValidationError, WindowOverflowError
from whlab.sampling import random_complex, random_unitary
from whlab.toeplitz import UNITARY_TOL, SymbolFunction, TruncatedOperator

from symbols import dict_combine, dict_convolve, dict_twisted_reflection, symbol


def test_trivial_action_is_the_identity(rng):
    act = toeplitz.trivial_action(2)
    assert act.k == 2 and np.array_equal(act.u, np.eye(2))
    xs = random_complex(rng, 2, size=5)
    assert np.array_equal(act.alpha([-3, -1, 0, 2, 7], xs), xs)


def test_conjugation_action_matches_direct_composition(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    x = random_complex(rng, 2)
    expected = x.copy()
    for a in range(6):
        assert np.allclose(act.alpha(a, x), expected, atol=1e-12)
        expected = u @ expected @ u.conj().T
    # negative powers undo positive ones
    y = act.alpha(3, x)
    assert np.allclose(act.alpha(-3, y), x, atol=1e-12)


def test_action_constructor_rejects_a_non_unitary_u():
    # ||u*u - I||_F = defect * UNITARY_TOL for u = diag(sqrt(1 + defect * UNITARY_TOL), 1)
    for defect in (0.5, 2.0):
        u = np.diag([np.sqrt(1 + defect * UNITARY_TOL), 1.0])
        if defect < 1:
            assert toeplitz.EndomorphismAction(u).k == 2
        else:
            with pytest.raises(InputValidationError, match="not unitary"):
                toeplitz.EndomorphismAction(u)
    for bad in (np.stack([np.eye(2), np.eye(2)]), np.ones((2, 3)), 2 * np.eye(2)):
        with pytest.raises(InputValidationError):
            toeplitz.EndomorphismAction(bad)


def test_rep_pi_identity_and_scalar():
    act = toeplitz.trivial_action(1)
    assert np.allclose(toeplitz.rep_pi(np.eye(1), act, 5).matrix, np.eye(6))
    c = np.array([[2.5 - 1j]])
    assert np.allclose(toeplitz.rep_pi(c, act, 3).matrix, (2.5 - 1j) * np.eye(4))


def test_rep_pi_conjugation_blocks(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    x = random_complex(rng, 2)
    op = toeplitz.rep_pi(x, act, 6)
    expected = x.copy()
    for a in range(7):
        assert np.allclose(op.blocks[a, a], expected, atol=1e-12)
        expected = u @ expected @ u.conj().T


def test_power_table_blocks_match_the_oracle(rng):
    # rep_pi, wiener_hopf (negative g included) and twisted_reflection, which
    # calls alpha with one exponent of either sign, against u^m x (u*)^m by
    # direct multiplication
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    n = 9
    powers = [np.eye(2)]
    for _ in range(n):
        powers.append(u @ powers[-1])

    def oracle(m, x):
        p = powers[m] if m >= 0 else powers[-m].conj().T
        return p @ x @ p.conj().T

    x = random_complex(rng, 2)
    pi = toeplitz.rep_pi(x, act, n)
    for m in range(n + 1):
        assert np.allclose(pi.blocks[m, m], oracle(m, x), atol=1e-12)

    values = {g: random_complex(rng, 2) for g in (-n, -4, -1, 0, 2, 5)}
    f = symbol(values, k=2)
    w = toeplitz.wiener_hopf(f, act, n)
    for m in range(n + 1):
        for col in range(n + 1):
            expected = oracle(m, values[m - col]) if (m - col) in values else np.zeros((2, 2))
            assert np.allclose(w.blocks[m, col], expected, atol=1e-12)

    reflected = f.twisted_reflection(act)
    for g, v in values.items():
        assert np.allclose(reflected(-g), oracle(g, v.conj().T), atol=1e-12)


def test_isometry_basics():
    assert np.allclose(toeplitz.isometry_V(0, 4).matrix, np.eye(5))
    v1 = toeplitz.isometry_V(1, 4)
    # V_1 V_1* = 1 - (projection onto position 0)
    p0 = np.zeros((5, 5))
    p0[0, 0] = 1.0
    assert np.allclose((v1 @ v1.adjoint()).matrix, np.eye(5) - p0)


def test_isometry_law_with_headroom():
    # V_a*V_a = 1 holds for the lattice operators; compress the composite
    for n in (4, 9):
        for a in range(0, n):
            wide = toeplitz.isometry_V(a, n + a)
            prod = (wide.adjoint() @ wide).subwindow(n)
            assert np.allclose(prod.matrix, np.eye(n + 1))


def test_shift_semigroup_law():
    n = 9
    for a in range(4):
        for b in range(4):
            lhs = toeplitz.isometry_V(b, n) @ toeplitz.isometry_V(a, n)
            rhs = toeplitz.isometry_V(a + b, n)
            assert np.allclose(lhs.matrix, rhs.matrix)


def test_isometry_range_error():
    with pytest.raises(WindowOverflowError):
        toeplitz.isometry_V(5, 4)


@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 5), (5, 5)])
def test_compress_rejects_windows_outside_the_operator(lo, hi):
    with pytest.raises(WindowOverflowError):
        toeplitz.isometry_V(1, 4).compress(lo, hi)
    if lo == 0:
        with pytest.raises(WindowOverflowError):
            toeplitz.isometry_V(1, 4).subwindow(hi)


def test_wiener_hopf_delta_zero_is_identity():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(0, [[[1.0]]])
    assert np.allclose(toeplitz.wiener_hopf(f, act, 6).matrix, np.eye(7))


def test_wiener_hopf_delta_one_is_shift():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(1, [[[1.0]]])
    assert np.allclose(toeplitz.wiener_hopf(f, act, 6).matrix, toeplitz.isometry_V(1, 6).matrix)


def test_wiener_hopf_tridiagonal():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(-1, [[[2.0]], [[0.0]], [[3.0]]])
    w = toeplitz.wiener_hopf(f, act, 4).matrix
    expected = 3.0 * np.diag(np.ones(4), -1) + 2.0 * np.diag(np.ones(4), 1)
    assert np.allclose(w, expected)


def test_wiener_hopf_support_range_error():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(9, [[[1.0]]])
    with pytest.raises(WindowOverflowError):
        toeplitz.wiener_hopf(f, act, 4)


def test_covariance_residual_trivial_cases(rng):
    act = toeplitz.trivial_action(1)
    x = random_complex(rng, 1)
    assert toeplitz.covariance_residual(x, 0, act, 8) == 0.0
    for a in range(1, 6):
        assert toeplitz.covariance_residual(x, a, act, 8) <= 1e-15


def test_covariance_residual_conjugation(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    for a in range(0, 6):
        x = random_complex(rng, 2)
        assert toeplitz.covariance_residual(x, a, act, 16) <= 1e-12


def test_intertwining_exact(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    n = 10
    for a in range(0, 5):
        x = random_complex(rng, 2)
        v = toeplitz.isometry_V(a, n, 2)
        lhs = v.adjoint() @ toeplitz.rep_pi(x, act, n)
        rhs = toeplitz.rep_pi(act.alpha(a, x), act, n) @ v.adjoint()
        assert (lhs - rhs).norm_bound() <= 1e-12


def test_symbol_product_on_interior_blocks(rng):
    act = toeplitz.trivial_action(1)
    n = 24
    for _ in range(10):
        f = SymbolFunction(-3, random_complex(rng, 1, size=7))
        h = SymbolFunction(-3, random_complex(rng, 1, size=7))
        lhs = toeplitz.wiener_hopf(f, act, n) @ toeplitz.wiener_hopf(h, act, n)
        rhs = toeplitz.wiener_hopf(f.convolve(h), act, n)
        assert (lhs - rhs).compress(6, n - 6).norm_bound() <= 1e-12


def test_adjoint_symbol_on_interior_blocks(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    n = 20
    f = SymbolFunction(-2, random_complex(rng, 2, size=5))
    lhs = toeplitz.wiener_hopf(f, act, n).adjoint().compress(2, n - 2)
    rhs = toeplitz.wiener_hopf(f.twisted_reflection(act), act, n).compress(2, n - 2)
    assert (lhs - rhs).norm_bound() <= 1e-10


@pytest.mark.parametrize("n, k", [(0, 1), (3, 2)], ids=["other-n", "other-k"])
def test_operator_arithmetic_rejects_another_shape(n, k):
    # numpy alone would broadcast a 1x1 block grid or 1x1 blocks over the other operand
    op = TruncatedOperator.identity(3, 1)
    for combine in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(InputValidationError, match="shapes disagree"):
            combine(op, TruncatedOperator.identity(n, k))


def test_symbol_validation():
    f = SymbolFunction(-1, [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]]])
    assert (f.offset, f.k, f.values.dtype) == (-1, 2, np.complex128)
    assert f.support.tolist() == [-1, 1]
    assert np.array_equal(f(1), [[3.0, 0.0], [0.0, 0.0]]) and not f(2).any() and not f(-2).any()
    gs = np.array([[-2, -1], [1, 2]])  # an array of g gives the stack of f(g), zero off the window
    assert f(gs).shape == (2, 2, 2, 2) and np.array_equal(f(gs), [[f(-2), f(-1)], [f(1), f(2)]])
    for offset in (2.0, np.int64(-1)):
        offset_read = SymbolFunction(offset, [[[1.0]]]).offset
        assert type(offset_read) is int and offset_read == offset


@pytest.mark.parametrize("values", [[[1.0]], [[[1.0, 2.0]]], np.zeros((0, 1, 1)), [[[1.0]], [[1.0, 2.0]]]],
                         ids=["2-D", "non-square", "width-0", "ragged"])
def test_symbol_rejects_values_that_are_not_a_stack_of_square_matrices(values):
    # width 0 would make convolve allocate a stack of negative width
    with pytest.raises(InputValidationError):
        SymbolFunction(0, values)


@pytest.mark.parametrize("key", [2.5, True, "2", float("inf")])
def test_symbol_rejects_a_key_that_is_not_an_integer(key):
    # the key here is the offset, the point of the first value: int() would
    # start the values at g = 2 for 2.5 and at g = 1 for True
    with pytest.raises(InputValidationError):
        SymbolFunction(key, [[[1.0]]])


def test_symbol_keeps_a_read_only_copy_of_its_values():
    source = np.array([[[1.0]], [[2.0]]], dtype=np.complex128)
    f = SymbolFunction(0, source)
    source[0] = 5.0
    assert f(0) == 1.0 and not f.values.flags.writeable
    # a symbol built on a flipped view holds a copy, never the first one's values
    assert not np.shares_memory(SymbolFunction(0, f.values[::-1]).values, f.values)


@pytest.mark.parametrize("k", [1, 2])
def test_convolve_and_twisted_reflection_match_the_dict_loops(rng, k):
    # k = 2 orders the products: f(t) h(s), not h(s) f(t); the windows hold
    # offsets of both signs and zeros inside their width, and the pairs overlap,
    # lie apart, and nest, for the sum and difference over the union window
    act = toeplitz.conjugation_action(random_unitary(rng, k))
    for f_keys, h_keys in [((-3, -1, 2), (1, 4)), ((2, 5), (-6, -5, -2)), ((0,), (-2, 0, 3))]:
        f_dict = {g: random_complex(rng, k) for g in f_keys}
        h_dict = {g: random_complex(rng, k) for g in h_keys}
        f, h = symbol(f_dict, k), symbol(h_dict, k)
        product = f.convolve(h)
        assert product.offset == f.offset + h.offset
        cases = [
            (dict_convolve(f_dict, h_dict), product),
            (dict_twisted_reflection(f_dict, act), f.twisted_reflection(act)),
            (dict_combine(f_dict, h_dict), f + h),
            (dict_combine(f_dict, h_dict, -1.0), f - h),
            (dict_combine(f_dict, {}, 0.0, 2.5j), 2.5j * f),
        ]
        for oracle, got in cases:
            assert got.support.tolist() == sorted(oracle)
            for g, v in oracle.items():
                np.testing.assert_allclose(got(g), v, rtol=0, atol=1e-12)
    with pytest.raises(InputValidationError, match="fiber dimensions disagree"):
        f + symbol({0: np.eye(k + 1)}, k + 1)


def test_symbols_split_into_interior_convolutions(rng):
    # at desk scale the density statement is exact: every finitely supported
    # symbol is a finite sum of products delta_a * delta_b with a in the
    # interior of the semigroup and b in the interior of its inverse
    f = SymbolFunction(-4, random_complex(rng, 1, size=9))
    total = np.zeros((17, 1, 1), dtype=np.complex128)  # g = -8..8
    for g, v in zip(range(-4, 5), f.values):
        a = max(g + 1, 1)          # a >= 1: interior of the semigroup
        b = g - a                  # b <= -1: interior of the inverse
        assert a >= 1 and b <= -1
        product = SymbolFunction(a, [v]).convolve(SymbolFunction(b, [[[1.0]]]))
        total += [product(h) for h in range(-8, 9)]
    for g in range(-8, 9):
        assert total[g + 8] == pytest.approx(f(g))


def test_power_table_grown_in_steps_equals_one_pass(rng):
    # the table kept on the action grows on demand; every entry must be the
    # same bits as in a table built by one sequential pass
    u = random_unitary(rng, 2)
    stepped, single = toeplitz.conjugation_action(u), toeplitz.conjugation_action(u)
    for n in (0, 3, 4, 11, 30):
        stepped.powers(n)
    reference = [np.eye(2, dtype=complex)]
    for _ in range(30):
        reference.append(np.matmul(single.u, reference[-1]))
    assert np.array_equal(stepped.powers(30), single.powers(30))
    assert np.array_equal(single.powers(30), np.array(reference))
    assert np.array_equal(stepped.powers(7), single.powers(30)[:8])


def test_action_unitary_and_power_table_are_read_only(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    for array in (act.u, act.powers(5)):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # the action keeps its own copy of the unitary it was given
    given = u.copy()
    u[0, 0] = 2.0
    assert np.array_equal(act.u, given)


def test_alpha_stays_a_star_map_far_out_on_the_power_table():
    # alpha_m(y)* = alpha_{m-g}(alpha_g(y*)): the twisted reflection compares
    # the two sides in this form, so a table that drifts from a *-map as m
    # grows shows up as residual in toeplitz.adjoint_symbol at large N
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        act = toeplitz.conjugation_action(random_unitary(rng, 2))
        y = random_complex(rng, 2)
        y /= np.linalg.norm(y, 2)
        for m in (4096, 8192):
            lhs = act.alpha(m, y).conj().T
            for g in (1, 2, 3, -1, -2, -3):
                worst = max(worst, np.abs(lhs - act.alpha(m - g, act.alpha(g, y.conj().T))).max())
    assert worst <= 5e-14


def test_one_mixed_sign_alpha_call_equals_its_per_sign_calls(rng):
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    ms = np.array([3, -2, 0, -7, 5, -1, 12])
    xs = random_complex(rng, 2, size=ms.size)
    mixed = act.alpha(ms, xs)
    for part in (ms >= 0, ms < 0):
        np.testing.assert_allclose(mixed[part], act.alpha(ms[part], xs[part]), rtol=0, atol=1e-14)


def _dense(op):
    """Reference assembly: each band's blocks written cell by cell."""
    k = op.k
    out = np.zeros(((op.n + 1) * k, (op.n + 1) * k), dtype=complex)
    for o, band in op.bands.items():
        for i, block in enumerate(band):
            row, col = i + max(o, 0), i + max(-o, 0)
            out[row * k : (row + 1) * k, col * k : (col + 1) * k] = block
    return out


def _schur_bound(dense, n, k):
    """Schur test on the (N+1) x (N+1) matrix of k x k block spectral norms of
    a dense matrix: sqrt(largest row sum * largest column sum)."""
    norms = np.linalg.norm(dense.reshape(n + 1, k, n + 1, k).transpose(0, 2, 1, 3), 2, axis=(-2, -1))
    return np.sqrt(norms.sum(axis=1).max() * norms.sum(axis=0).max())


def _random_operators(rng, n, k):
    """Empty, one band at +N, at -N and at a random offset (its norm is the
    largest block norm), random multi-band sets and exact-zero bands."""
    def band(o):
        shape = (n + 1 - abs(o), k, k)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    offsets = [[], [n], [-n], [int(rng.integers(-n, n + 1))], [0, n]]
    for size in (2, 4):
        offsets.append(sorted(rng.choice(np.arange(-n, n + 1), size=min(size, 2 * n + 1), replace=False).tolist()))
    ops = [TruncatedOperator(n, k, {o: band(o) for o in offs}) for offs in offsets]
    ops.append(TruncatedOperator(n, k, {0: np.zeros((n + 1, k, k)), n: band(n)}))
    ops.append(TruncatedOperator(n, k, {-n: np.zeros((1, k, k))}))
    return ops


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", range(10))
def test_band_operations_match_dense_numpy(rng, n, k):
    ops = _random_operators(rng, n, k)
    for a in ops:
        dense = _dense(a)
        assert np.array_equal(a.matrix, dense)
        assert np.array_equal(a.blocks.transpose(0, 2, 1, 3).reshape(dense.shape), dense)
        assert np.array_equal(a.adjoint().matrix, dense.conj().T)
        for m in range(n + 1):
            assert np.array_equal(a.subwindow(m).matrix, dense[: (m + 1) * k, : (m + 1) * k])
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert np.array_equal(a.compress(lo, hi).matrix, dense[lo * k : (hi + 1) * k, lo * k : (hi + 1) * k])
        bound = a.norm_bound()
        assert np.linalg.norm(dense, 2) <= bound + 1e-12
        assert abs(bound - _schur_bound(dense, n, k)) <= 1e-12
        if len(a.bands) <= 1:
            assert abs(bound - np.linalg.norm(dense, 2)) <= 1e-12
        for b in ops:
            other = _dense(b)
            np.testing.assert_allclose((a @ b).matrix, dense @ other, rtol=0, atol=1e-12)
            np.testing.assert_allclose((a + b).matrix, dense + other, rtol=0, atol=1e-12)
            np.testing.assert_allclose((a - b).matrix, dense - other, rtol=0, atol=1e-12)


def test_rep_pi_stores_one_band_at_large_n(rng):
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    n = 10_000
    op = toeplitz.rep_pi(random_complex(rng, 2), act, n)
    assert list(op.bands) == [0]
    assert sum(band.size for band in op.bands.values()) == (n + 1) * 2 * 2


def test_operator_rejects_a_band_of_the_wrong_shape():
    with pytest.raises(InputValidationError):
        TruncatedOperator(3, 1, {4: np.ones((1, 1, 1))})
    with pytest.raises(InputValidationError):
        TruncatedOperator(3, 1, {1: np.ones((4, 1, 1))})
    with pytest.raises(InputValidationError):
        TruncatedOperator(3, 1, {0: np.full((4, 1, 1), np.nan)})
