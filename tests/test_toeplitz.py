"""Truncated Wiener-Hopf operator tests.

Oracle for the conjugation action: alpha_a(x) = u^a x (u*)^a computed by
direct a-fold multiplication, independent of the vectorized generator path.
"""

import operator

import numpy as np
import pytest

from whlab import toeplitz
from whlab.errors import InputValidationError, WindowOverflowError
from whlab.sampling import random_complex, random_unitary
from whlab.toeplitz import SymbolFunction, TruncatedOperator


def test_trivial_action_flags():
    act = toeplitz.trivial_action(2)
    assert act.injective


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


def test_action_constructor_rejects_non_star_hom():
    bad = np.diag([1.0, 2.0, 3.0, 4.0])  # scales matrix units inconsistently
    with pytest.raises(InputValidationError):
        toeplitz.EndomorphismAction(k=2, generator=bad)


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

    f = SymbolFunction(k=2, values={g: random_complex(rng, 2) for g in (-n, -4, -1, 0, 2, 5)})
    w = toeplitz.wiener_hopf(f, act, n)
    for m in range(n + 1):
        for col in range(n + 1):
            expected = oracle(m, f(m - col)) if (m - col) in f.values else np.zeros((2, 2))
            assert np.allclose(w.blocks[m, col], expected, atol=1e-12)

    reflected = f.twisted_reflection(act)
    for g, v in f.values.items():
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
    f = SymbolFunction(k=1, values={0: [[1.0]]})
    assert np.allclose(toeplitz.wiener_hopf(f, act, 6).matrix, np.eye(7))


def test_wiener_hopf_delta_one_is_shift():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(k=1, values={1: [[1.0]]})
    assert np.allclose(toeplitz.wiener_hopf(f, act, 6).matrix, toeplitz.isometry_V(1, 6).matrix)


def test_wiener_hopf_tridiagonal():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(k=1, values={-1: [[2.0]], 1: [[3.0]]})
    w = toeplitz.wiener_hopf(f, act, 4).matrix
    expected = 3.0 * np.diag(np.ones(4), -1) + 2.0 * np.diag(np.ones(4), 1)
    assert np.allclose(w, expected)


def test_wiener_hopf_support_range_error():
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(k=1, values={9: [[1.0]]})
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
        assert (lhs - rhs).norm() <= 1e-12


def test_symbol_product_on_interior_blocks(rng):
    act = toeplitz.trivial_action(1)
    n = 24
    for _ in range(10):
        fvals = {g: [[complex(rng.standard_normal(), rng.standard_normal())]] for g in range(-3, 4)}
        hvals = {g: [[complex(rng.standard_normal(), rng.standard_normal())]] for g in range(-3, 4)}
        f = SymbolFunction(k=1, values=fvals)
        h = SymbolFunction(k=1, values=hvals)
        lhs = toeplitz.wiener_hopf(f, act, n) @ toeplitz.wiener_hopf(h, act, n)
        rhs = toeplitz.wiener_hopf(f.convolve(h), act, n)
        assert (lhs - rhs).compress(6, n - 6).norm() <= 1e-12


def test_adjoint_symbol_on_interior_blocks(rng):
    u = random_unitary(rng, 2)
    act = toeplitz.conjugation_action(u)
    n = 20
    f = SymbolFunction(k=2, values={g: random_complex(rng, 2) for g in range(-2, 3)})
    lhs = toeplitz.wiener_hopf(f, act, n).adjoint().compress(2, n - 2)
    rhs = toeplitz.wiener_hopf(f.twisted_reflection(act), act, n).compress(2, n - 2)
    assert (lhs - rhs).norm() <= 1e-10


def test_truncated_operator_roundtrip(rng):
    blocks = rng.standard_normal((3, 3, 2, 2))
    op = TruncatedOperator.from_matrix(2, 2, blocks.transpose(0, 2, 1, 3).reshape(6, 6))
    assert np.allclose(op.blocks, blocks)
    back = TruncatedOperator.from_matrix(2, 2, op.matrix)
    assert np.allclose(op.blocks, back.blocks)
    assert np.allclose(op.adjoint().matrix, op.matrix.conj().T)


@pytest.mark.parametrize("n, k", [(0, 1), (3, 2)], ids=["other-n", "other-k"])
def test_operator_arithmetic_rejects_another_shape(n, k):
    # numpy alone would broadcast a 1x1 block grid or 1x1 blocks over the other operand
    op = TruncatedOperator.identity(3, 1)
    for combine in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(InputValidationError, match="shapes disagree"):
            combine(op, TruncatedOperator.identity(n, k))


def test_symbol_validation():
    with pytest.raises(InputValidationError):
        SymbolFunction(k=2, values={0: [[1.0]]})
    assert list(SymbolFunction(k=1, values={2.0: [[1.0]], np.int64(-1): [[2.0]]}).values) == [2, -1]


@pytest.mark.parametrize("key", [2.5, True, "2", float("inf")])
def test_symbol_rejects_a_key_that_is_not_an_integer(key):
    # int() would store 2.5 at g = 2 and True at g = 1
    with pytest.raises(InputValidationError):
        SymbolFunction(k=1, values={key: [[1.0]]})


def test_symbols_split_into_interior_convolutions(rng):
    # at desk scale the density statement is exact: every finitely supported
    # symbol is a finite sum of products delta_a * delta_b with a in the
    # interior of the semigroup and b in the interior of its inverse
    values = {g: [[complex(rng.standard_normal(), rng.standard_normal())]] for g in range(-4, 5)}
    f = SymbolFunction(k=1, values=values)
    total = SymbolFunction(k=1, values={})
    for g, v in values.items():
        a = max(g + 1, 1)          # a >= 1: interior of the semigroup
        b = g - a                  # b <= -1: interior of the inverse
        assert a >= 1 and b <= -1
        phi = SymbolFunction(k=1, values={a: v})
        psi = SymbolFunction(k=1, values={b: [[1.0]]})
        total = SymbolFunction(
            k=1,
            values={h: total(h) + phi.convolve(psi)(h) for h in range(-8, 9)},
        )
    for g in range(-8, 9):
        assert total(g) == pytest.approx(f(g))


def test_power_table_grown_in_steps_equals_one_pass(rng):
    # the table kept on the action grows on demand; every entry must be the
    # same bits as in a table built by one sequential pass
    u = random_unitary(rng, 2)
    stepped, single = toeplitz.conjugation_action(u), toeplitz.conjugation_action(u)
    for n in (0, 3, 4, 11, 30):
        stepped.powers(n)
        stepped.powers(n, inverse=True)
    for inverse, base in ((False, single.generator), (True, np.linalg.inv(single.generator))):
        reference = [np.eye(4, dtype=complex)]
        for _ in range(30):
            reference.append(np.matmul(base, reference[-1]))
        assert np.array_equal(stepped.powers(30, inverse=inverse), single.powers(30, inverse=inverse))
        assert np.array_equal(single.powers(30, inverse=inverse), np.array(reference))
        assert np.array_equal(stepped.powers(7, inverse=inverse), single.powers(30, inverse=inverse)[:8])


def test_action_generator_and_power_table_are_read_only(rng):
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    for array in (act.generator, act.powers(5), act.powers(5, inverse=True)):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # the action keeps its own copy of the generator it was given
    generator = np.eye(4, dtype=complex)
    trivial = toeplitz.EndomorphismAction(k=2, generator=generator)
    generator[0, 0] = 2.0
    assert trivial.generator[0, 0] == 1.0


def _dense(op):
    """Reference assembly: each band's blocks written cell by cell."""
    k = op.k
    out = np.zeros(((op.n + 1) * k, (op.n + 1) * k), dtype=complex)
    for o, band in op.bands.items():
        for i, block in enumerate(band):
            row, col = i + max(o, 0), i + max(-o, 0)
            out[row * k : (row + 1) * k, col * k : (col + 1) * k] = block
    return out


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
        assert np.array_equal(TruncatedOperator.from_matrix(n, k, dense).matrix, dense)
        for m in range(n + 1):
            assert np.array_equal(a.subwindow(m).matrix, dense[: (m + 1) * k, : (m + 1) * k])
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert np.array_equal(a.compress(lo, hi).matrix, dense[lo * k : (hi + 1) * k, lo * k : (hi + 1) * k])
        assert abs(a.norm() - np.linalg.norm(dense, 2)) <= 1e-12
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
