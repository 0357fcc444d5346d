"""Groupoid convolution algebra tests.

Brute-force associativity (both bracketings computed independently), cell-by-
cell references for every operation and the representation identities
against the twisted Toeplitz construction are the load-bearing oracles here.
"""

import numpy as np
import pytest

from whlab import fell, groupoid, toeplitz
from whlab.errors import InputValidationError, WindowOverflowError
from whlab.fell import INF
from whlab.groupoid import GroupoidSection, Window
from whlab.sampling import random_complex, random_unitary
from whlab.toeplitz import SymbolFunction


def _random_section(rng, act, window, points, x_bound, g_bound, scale=1.0):
    s = GroupoidSection(act, window)
    units = list(range(x_bound + 1)) + [INF]
    for _ in range(points):
        x = units[int(rng.integers(len(units)))]
        lo = -g_bound if x == INF else -min(int(x), g_bound)
        hi = g_bound
        g = int(rng.integers(lo, hi + 1))
        try:
            window.cell(x, g)
        except WindowOverflowError:
            continue
        s.set((x, g), scale * random_complex(rng, act.k))
    if not s.support().any():
        s.set((0, 0), scale * random_complex(rng, act.k))
    return s


def _window_cells(window):
    """Every groupoid element (x, g) of the window, the unit at infinity included."""
    return [
        (x, g)
        for x in [*range(window.max_x + 1), INF]
        for g in range(-window.max_g, window.max_g + 1)
        if groupoid.in_groupoid(x, g) and (x == INF or x + g <= window.max_x)
    ]


def _band_section(rng, act, window, width):
    """A random value at every window cell with |g| <= width, so products compose."""
    s = GroupoidSection(act, window)
    for x, g in _window_cells(window):
        if abs(g) <= width:
            s.set((x, g), random_complex(rng, act.k))
    return s


def _source(x, g):
    return INF if x == INF else x + g


def _cell_gap(s, t) -> float:
    """The largest spectral norm of s - t over the window's cells."""
    return float(np.linalg.norm(s.values - t.values, 2, axis=(-2, -1)).max())


def _with_values(act, window, values):
    s = GroupoidSection(act, window)
    for e, v in values.items():
        s.set(e, v)
    return s


def test_groupoid_element_validity():
    window = Window(max_x=8, max_g=100)
    assert window.cell(3, -3) == (3, 97)
    assert window.cell(INF, -100) == (9, 0)
    with pytest.raises(InputValidationError):
        window.cell(2, -3)
    # an integral float or numpy integer is the int it equals
    for g in (3.0, np.int64(3)):
        cell = window.cell(2, g)
        assert all(type(i) is int for i in cell) and cell == window.cell(2, 3)


@pytest.mark.parametrize("g", [0.5, -2.5, True, False, "1", None, float("inf"), float("nan")])
def test_groupoid_element_rejects_a_g_that_is_not_an_integer(g):
    # (2, 0.5) would have the source 2.5, and (2, True) would stand for (2, 1)
    with pytest.raises(InputValidationError):
        Window(max_x=8, max_g=8).cell(2, g)


def test_inverse_and_source():
    window = Window(max_x=6, max_g=6)
    row, col = window.cell(2, 3)
    assert window.sources(np.array([row]), np.array([col])).tolist() == [5]
    assert window.sources(np.array([7]), np.array([col])).tolist() == [7]  # infinity is its own source
    # the involution moves (2, 3) to its inverse (5, -3) and back
    s = _with_values(toeplitz.trivial_action(1), window, {(2, 3): [[2j]]})
    inv = groupoid.involute(s)
    assert np.argwhere(inv.support()).tolist() == [list(window.cell(5, -3))]
    assert inv((5, -3))[0, 0] == -2j
    assert _cell_gap(groupoid.involute(inv), s) == 0.0


def test_membership_matches_fell_model():
    for x in list(range(0, 12)) + [INF]:
        for g in range(-12, 13):
            assert groupoid.in_groupoid(x, g) == fell.omega_qset(fell.discrete(x), g)


def test_window_mask_is_the_set_of_window_cells():
    window = Window(max_x=5, max_g=3)
    expected = np.zeros(window.shape, dtype=bool)
    for x, g in _window_cells(window):
        expected[window.cell(x, g)] = True
    np.testing.assert_array_equal(window.mask(), expected)


def test_delta_at_unit_is_left_identity(rng):
    window = Window(max_x=10, max_g=8)
    act = toeplitz.trivial_action(1)
    psi = _random_section(rng, act, window, points=5, x_bound=6, g_bound=3)
    for x in (0, 2, INF):
        delta = _with_values(act, window, {(x, 0): np.eye(1)})
        conv = groupoid.convolve(delta, psi)
        # the product keeps exactly psi's row over the unit x
        row = window.cell(x, 0)[0]
        assert np.allclose(conv.values[row], psi.values[row])
        assert not np.delete(conv.support(), row, axis=0).any()


def test_convolution_at_infinity_is_full_line_convolution(rng):
    window = Window(max_x=6, max_g=12)
    act = toeplitz.trivial_action(1)
    phi = GroupoidSection(act, window)
    psi = GroupoidSection(act, window)
    f = {-2: 1.0 + 0j, 1: 2.0 - 1j, 3: 0.5j}
    h = {-1: 1.5 + 0j, 2: -1.0 + 1j}
    for g, c in f.items():
        phi.set((INF, g), np.array([[c]]))
    for g, c in h.items():
        psi.set((INF, g), np.array([[c]]))
    conv = groupoid.convolve(phi, psi)
    for s in range(-6, 7):
        expected = sum(f.get(t, 0) * h.get(s - t, 0) for t in range(-8, 9))
        assert conv((INF, s))[0, 0] == pytest.approx(expected)


def test_associativity_brute_force(rng):
    window = Window(max_x=20, max_g=14)
    for k in (1, 2):
        act = toeplitz.trivial_action(1) if k == 1 else toeplitz.conjugation_action(random_unitary(rng, 2))
        for _ in range(25):
            phi = _random_section(rng, act, window, 4, x_bound=8, g_bound=4)
            psi = _random_section(rng, act, window, 4, x_bound=8, g_bound=4)
            chi = _random_section(rng, act, window, 3, x_bound=8, g_bound=4)
            lhs = groupoid.convolve(groupoid.convolve(phi, psi), chi)
            rhs = groupoid.convolve(phi, groupoid.convolve(psi, chi))
            assert _cell_gap(lhs, rhs) <= 1e-11


def test_involution_fixes_selfadjoint_units():
    window = Window(max_x=5, max_g=5)
    act = toeplitz.trivial_action(2)
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    s = _with_values(act, window, {(2, 0): h})
    out = groupoid.involute(s)
    assert np.allclose(out((2, 0)), h)


def test_involution_is_involutive_and_isometric(rng):
    window = Window(max_x=12, max_g=8)
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    for _ in range(20):
        phi = _random_section(rng, act, window, 5, x_bound=6, g_bound=4)
        assert groupoid.i_norm(groupoid.involute(phi)) == pytest.approx(groupoid.i_norm(phi))
        back = groupoid.involute(groupoid.involute(phi))
        assert _cell_gap(phi, back) <= 1e-12


def test_involution_trivial_action_formula(rng):
    window = Window(max_x=8, max_g=6)
    act = toeplitz.trivial_action(1)
    phi = _random_section(rng, act, window, 5, x_bound=5, g_bound=3)
    out = groupoid.involute(phi)
    for x, g in _window_cells(window):
        assert out((_source(x, g), -g))[0, 0] == pytest.approx(np.conj(phi((x, g))[0, 0]))


def test_i_norm_examples():
    window = Window(max_x=6, max_g=6)
    act = toeplitz.trivial_action(1)
    s = _with_values(act, window, {(2, 1): np.array([[3.0]])})
    assert groupoid.i_norm(s) == pytest.approx(3.0)
    s.set((2, -2), np.array([[4.0]]))  # same unit, second point
    assert groupoid.i_norm(s) == pytest.approx(7.0)  # row sum dominates


def test_i_norm_banach_inequality(rng):
    window = Window(max_x=20, max_g=14)
    act = toeplitz.trivial_action(1)
    for _ in range(30):
        phi = _random_section(rng, act, window, 4, x_bound=8, g_bound=4)
        psi = _random_section(rng, act, window, 4, x_bound=8, g_bound=4)
        prod = groupoid.convolve(phi, psi)
        assert groupoid.i_norm(prod) <= groupoid.i_norm(phi) * groupoid.i_norm(psi) + 1e-10


def test_lift_symbol_and_hat_symbol_examples():
    window = Window(max_x=6, max_g=6)
    act = toeplitz.trivial_action(1)
    f = SymbolFunction(k=1, values={0: [[1.0]]})
    lifted = groupoid.lift_symbol(f, window, act)
    hat = groupoid.hat_symbol(f)
    assert set(np.nonzero(lifted.support())[1]) == {window.max_g}  # g = 0 only
    assert lifted.support()[:, window.max_g].all()  # over every unit
    assert hat.support == [0]

    g = SymbolFunction(k=1, values={2: [[5.0]]})
    ghat = groupoid.hat_symbol(g)
    assert ghat.support == [-2]
    assert np.allclose(ghat(-2), [[5.0]])
    double = groupoid.hat_symbol(ghat)
    assert double.support == [2] and np.allclose(double(2), [[5.0]])
    # the lift writes the symbol's values unchecked, so their size must be the action's
    with pytest.raises(InputValidationError):
        groupoid.lift_symbol(SymbolFunction(k=2, values={0: np.eye(2)}), window, act)


def test_lambda_rep_delta_unit_is_identity():
    window = Window(max_x=8, max_g=8)
    act = toeplitz.trivial_action(2)
    s = GroupoidSection(act, window)
    for x in range(9):
        s.set((x, 0), np.eye(2))
    assert np.allclose(groupoid.lambda_rep(s, 8).matrix, np.eye(18))


def test_central_identity_exact(rng):
    # exact out to the full half-window support [-N/2, N/2]
    n = 16
    window = Window(max_x=n, max_g=n)
    for act in (toeplitz.trivial_action(1), toeplitz.conjugation_action(random_unitary(rng, 2))):
        for _ in range(20):
            values = {g: random_complex(rng, act.k) for g in range(-n // 2, n // 2 + 1) if rng.uniform() < 0.7}
            values.setdefault(0, random_complex(rng, act.k))
            f = SymbolFunction(k=act.k, values=values)
            lhs = groupoid.lambda_rep(groupoid.lift_symbol(f, window, act), n)
            rhs = toeplitz.wiener_hopf(groupoid.hat_symbol(f), act, n)
            assert np.max(np.abs(lhs.blocks - rhs.blocks)) <= 1e-12


def test_lambda_norm_bounded_by_i_norm(rng):
    n = 10
    window = Window(max_x=n, max_g=n)
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    for _ in range(40):
        phi = _random_section(rng, act, window, 5, x_bound=n, g_bound=4)
        assert groupoid.lambda_rep(phi, n).norm() <= groupoid.i_norm(phi) + 1e-10


def test_lambda_rep_is_multiplicative_on_interior(rng):
    n = 16
    window = Window(max_x=2 * n, max_g=2 * n)
    act = toeplitz.trivial_action(1)
    for _ in range(10):
        phi = _random_section(rng, act, window, 4, x_bound=n, g_bound=4)
        psi = _random_section(rng, act, window, 4, x_bound=n, g_bound=4)
        margin = int(np.abs(np.nonzero(phi.support() | psi.support())[1] - window.max_g).max())
        if 2 * margin >= n:
            continue
        conv = groupoid.convolve(phi, psi)
        lhs = groupoid.lambda_rep(conv, n)
        rhs = groupoid.lambda_rep(phi, n) @ groupoid.lambda_rep(psi, n)
        assert (lhs - rhs).compress(margin, n - margin).norm() <= 1e-12


def _lambda_rep_by_cell_scan(phi, n):
    """Reference blocks: visit all (N+1)^2 cells and apply alpha_b one cell at a time."""
    k = phi.action.k
    out = np.zeros((n + 1, n + 1, k, k), dtype=complex)
    for b in range(n + 1):
        for a in range(n + 1):
            v = phi((b, a - b))
            if np.any(v):
                out[b, a] = phi.action.alpha(b, v)
    return out


def test_lambda_rep_matches_the_cell_scan(rng):
    # windows wider than N, so the support reaches past the sampled square:
    # elements at infinity, with x > N, with x + g > N, and explicit zeros
    n = 7
    window = Window(max_x=n + 5, max_g=n + 4)
    twisted = toeplitz.conjugation_action(random_unitary(rng, 2))
    for act in (toeplitz.trivial_action(1), twisted):
        for _ in range(20):
            phi = _random_section(rng, act, window, 12, x_bound=window.max_x, g_bound=window.max_g)
            phi.set((INF, int(rng.integers(-n, n + 1))), random_complex(rng, act.k))
            phi.set((n + 1, -2), random_complex(rng, act.k))
            phi.set((n - 1, 3), random_complex(rng, act.k))
            phi.set((2, 1), np.zeros((act.k, act.k)))
            reference = _lambda_rep_by_cell_scan(phi, n)
            np.testing.assert_allclose(groupoid.lambda_rep(phi, n).blocks, reference, rtol=0, atol=1e-12)


def test_lambda_rep_window_certification():
    window = Window(max_x=4, max_g=4)
    s = _with_values(toeplitz.trivial_action(1), window, {(0, 0): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.lambda_rep(s, 8)


def test_shift_R_identity_and_composition(rng):
    window = Window(max_x=14, max_g=14)
    act = toeplitz.trivial_action(1)
    for _ in range(20):
        psi = _random_section(rng, act, window, 4, x_bound=6, g_bound=4)
        r0 = groupoid.shift_R(0, psi)
        assert np.allclose(psi.values, r0.values)
        a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        lhs = groupoid.shift_R(a, groupoid.shift_R(b, psi))
        rhs = groupoid.shift_R(a + b, psi)
        assert np.allclose(lhs.values, rhs.values)


def test_shift_R_trivial_action_is_translation(rng):
    window = Window(max_x=14, max_g=14)
    act = toeplitz.trivial_action(1)
    psi = _random_section(rng, act, window, 4, x_bound=6, g_bound=4)
    a = 2
    out = groupoid.shift_R(a, psi)
    for x, g in _window_cells(window):
        if (x == INF or x >= a) and g + a <= window.max_g:
            assert np.allclose(out((x if x == INF else x - a, g + a)), psi((x, g)))
    # units below the shift have no preimage and are dropped
    kept = psi.support()
    kept[:a] = False
    assert out.support().sum() == kept.sum()


def test_shift_R_window_overflow_is_loud():
    window = Window(max_x=8, max_g=3)
    act = toeplitz.trivial_action(1)
    psi = _with_values(act, window, {(5, 3): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.shift_R(2, psi)  # lands at g = 5 > max_g


def test_convolution_window_overflow_is_loud():
    window = Window(max_x=4, max_g=2)
    act = toeplitz.trivial_action(1)
    phi = _with_values(act, window, {(0, 2): np.eye(1)})
    psi = _with_values(act, window, {(2, 2): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.convolve(phi, psi)
    # a zero value is no support, so nothing overflows
    psi.set((2, 2), np.zeros((1, 1)))
    assert not groupoid.convolve(phi, psi).support().any()


def test_section_rejects_support_outside_window():
    window = Window(max_x=3, max_g=3)
    act = toeplitz.trivial_action(1)
    s = GroupoidSection(act, window)
    for e in ((5, 0), (2, 2), (0, 4), (INF, -4)):
        with pytest.raises(WindowOverflowError):
            s.set(e, np.eye(1))
        with pytest.raises(WindowOverflowError):
            s(e)


def test_section_values_are_checked_once_as_k_by_k_matrices():
    window = Window(max_x=4, max_g=4)
    act = toeplitz.trivial_action(1)
    s = _with_values(act, window, {(1, 0): [[2]]})
    assert s((1, 0)).dtype == np.complex128 and s((1, 0)).shape == (1, 1)
    for bad in (3.0 * np.eye(3), np.eye(1)[0], "x", [["1"]], [[1.0], [2.0, 3.0]], None):
        with pytest.raises(InputValidationError):
            s.set((2, 0), bad)
    assert np.argwhere(s.support()).tolist() == [list(window.cell(1, 0))]
    assert groupoid.i_norm(s) == pytest.approx(2.0)


def test_convolve_rejects_sections_over_different_actions(rng):
    window = Window(max_x=6, max_g=4)
    twisted = toeplitz.conjugation_action(random_unitary(rng, 2))
    phi = _random_section(rng, toeplitz.trivial_action(2), window, 4, x_bound=4, g_bound=2)
    psi = _random_section(rng, twisted, window, 4, x_bound=4, g_bound=2)
    with pytest.raises(InputValidationError):
        groupoid.convolve(phi, psi)
    with pytest.raises(InputValidationError):
        groupoid.convolve(psi, phi)
    # a distinct action object with equal generators is accepted
    same = toeplitz.EndomorphismAction(k=2, generator=twisted.generator.copy())
    assert same is not twisted
    chi = _with_values(same, window, {(1, 1): random_complex(rng, 2)})
    groupoid.convolve(psi, chi)
    # sections over different windows are rejected
    with pytest.raises(InputValidationError):
        groupoid.convolve(psi, GroupoidSection(twisted, Window(max_x=6, max_g=5)))


# ---------------------------------------------------------------------------
# the crossed-product twist: alpha inside convolve, involute and shift_R


def _twisted(rng):
    return toeplitz.conjugation_action(random_unitary(rng, 2))


def test_lambda_of_the_involution_is_the_adjoint(rng):
    # Lambda(phi*) = Lambda(phi)* holds entrywise on the truncation; an
    # involution without alpha_s breaks it
    n = 12
    window = Window(max_x=n, max_g=n)
    act = _twisted(rng)
    for _ in range(20):
        phi = _band_section(rng, act, window, 4)
        lhs = groupoid.lambda_rep(groupoid.involute(phi), n).blocks
        np.testing.assert_allclose(lhs, groupoid.lambda_rep(phi, n).adjoint().blocks, rtol=0, atol=1e-12)


def test_lambda_is_multiplicative_with_headroom(rng):
    # supports with |g| <= 4 reach at most 4 rows past N, so at N + 4 the
    # compressed product is exact; a convolution without alpha_t breaks it
    n = 12
    wide = n + 4
    window = Window(max_x=wide, max_g=wide)
    act = _twisted(rng)
    for _ in range(20):
        phi = _band_section(rng, act, window, 4)
        psi = _band_section(rng, act, window, 4)
        lhs = groupoid.lambda_rep(groupoid.convolve(phi, psi), wide).subwindow(n)
        rhs = (groupoid.lambda_rep(phi, wide) @ groupoid.lambda_rep(psi, wide)).subwindow(n)
        np.testing.assert_allclose(lhs.blocks, rhs.blocks, rtol=0, atol=1e-12)


def test_lambda_intertwines_the_shift_with_the_adjoint_isometry(rng):
    # Lambda(R_a psi) = V_a* Lambda(psi), computed at 2N and compressed; a
    # shift without alpha_a breaks it
    n = 12
    window = Window(max_x=2 * n, max_g=2 * n)
    act = _twisted(rng)
    for _ in range(20):
        psi = _band_section(rng, act, window, 4)
        a = int(rng.integers(1, 5))
        lhs = groupoid.lambda_rep(groupoid.shift_R(a, psi), 2 * n).subwindow(n)
        rhs = (toeplitz.isometry_V(a, 2 * n, 2).adjoint() @ groupoid.lambda_rep(psi, 2 * n)).subwindow(n)
        np.testing.assert_allclose(lhs.blocks, rhs.blocks, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# brute-force references: every window cell, one element at a time


def _convolve_by_cell_scan(phi, psi):
    """(phi * psi)(x, s) as a function of the cell, summed over every t."""
    act, window = phi.action, phi.window
    cells = set(_window_cells(window))

    def value_at(x, s):
        total = np.zeros((act.k, act.k), dtype=np.complex128)
        for t in range(-window.max_g, window.max_g + 1):
            inner = (_source(x, t), s - t)
            if (x, t) in cells and inner in cells:
                total += phi((x, t)) @ act.alpha(t, psi(inner))
        return total

    return value_at


def _involute_by_cell_scan(phi):
    return lambda x, s: phi.action.alpha(s, phi((_source(x, s), -s)).conj().T)


def _shift_R_by_cell_scan(a, psi):
    cells = set(_window_cells(psi.window))

    def value_at(x, s):
        inner = (INF if x == INF else x + a, s - a)
        return psi.action.alpha(a, psi(inner)) if inner in cells else np.zeros((psi.action.k, psi.action.k))

    return value_at


def _assert_matches_reference(section, value_at):
    for x, g in _window_cells(section.window):
        np.testing.assert_allclose(section((x, g)), value_at(x, g), rtol=0, atol=1e-12)


def _reference_draw(rng, act, window):
    # half the band set to explicit zeros, plus values at infinity and at the last finite unit
    s = _band_section(rng, act, window, 3)
    for x, g in _window_cells(window):
        if abs(g) <= 3 and rng.uniform() < 0.5:
            s.set((x, g), np.zeros((act.k, act.k)))
    s.set((INF, int(rng.integers(-3, 4))), random_complex(rng, act.k))
    s.set((window.max_x, -2), random_complex(rng, act.k))
    return s


@pytest.mark.parametrize("twisted", [False, True])
def test_operations_match_the_cell_scan(rng, twisted):
    window = Window(max_x=7, max_g=7)
    act = _twisted(rng) if twisted else toeplitz.trivial_action(1)
    for _ in range(4):
        phi = _reference_draw(rng, act, window)
        psi = _reference_draw(rng, act, window)
        _assert_matches_reference(groupoid.convolve(phi, psi), _convolve_by_cell_scan(phi, psi))
        _assert_matches_reference(groupoid.involute(phi), _involute_by_cell_scan(phi))
        a = int(rng.integers(0, 5))
        _assert_matches_reference(groupoid.shift_R(a, psi), _shift_R_by_cell_scan(a, psi))
