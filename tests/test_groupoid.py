"""Groupoid convolution algebra tests.

Brute-force associativity (both bracketings computed independently) and the
representation identity against the twisted Toeplitz construction are the
load-bearing oracles here.
"""

import numpy as np
import pytest

from whlab import fell, groupoid, toeplitz
from whlab.errors import InputValidationError, WindowOverflowError
from whlab.fell import INF
from whlab.groupoid import GroupoidElement, GroupoidSection, Window
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
        e = GroupoidElement(x, g)
        if window.contains(e):
            s.set(e, scale * random_complex(rng, act.k))
    if not s.values:
        s.set((0, 0), scale * random_complex(rng, act.k))
    return s


def test_groupoid_element_validity():
    GroupoidElement(3, -3)
    GroupoidElement(INF, -100)
    with pytest.raises(InputValidationError):
        GroupoidElement(2, -3)
    # an integral float or numpy integer is the int it equals
    for g in (3.0, np.int64(3)):
        e = GroupoidElement(2, g)
        assert type(e.g) is int and e == GroupoidElement(2, 3)


@pytest.mark.parametrize("g", [0.5, -2.5, True, False, "1", None, float("inf"), float("nan")])
def test_groupoid_element_rejects_a_g_that_is_not_an_integer(g):
    # (2, 0.5) would have the source 2.5, and (2, True) would stand for (2, 1)
    with pytest.raises(InputValidationError):
        GroupoidElement(2, g)


def test_inverse_and_source():
    e = GroupoidElement(2, 3)
    assert e.source == 5
    inv = e.inverse()
    assert (inv.x, inv.g) == (5, -3)
    assert inv.inverse() == e


def test_membership_matches_fell_model():
    for x in list(range(0, 12)) + [INF]:
        for g in range(-12, 13):
            assert groupoid.in_groupoid(x, g) == fell.omega_qset(fell.discrete(x), g)


def test_delta_at_unit_is_left_identity(rng):
    window = Window(max_x=10, max_g=8)
    act = toeplitz.trivial_action(1)
    psi = _random_section(rng, act, window, points=5, x_bound=6, g_bound=3)
    for x in (0, 2, INF):
        delta = GroupoidSection(act, window, {(x, 0): np.eye(1)})
        conv = groupoid.convolve(delta, psi)
        # the product keeps exactly psi's column over the unit x
        for e, v in conv.values.items():
            assert e.x == x
            assert np.allclose(v, psi((x, e.g)))
        for e in psi.values:
            if e.x == x:
                assert np.allclose(conv((x, e.g)), psi(e))


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
            for e in set(lhs.values) | set(rhs.values):
                assert np.linalg.norm(lhs(e) - rhs(e), 2) <= 1e-11


def test_involution_fixes_selfadjoint_units():
    window = Window(max_x=5, max_g=5)
    act = toeplitz.trivial_action(2)
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    s = GroupoidSection(act, window, {(2, 0): h})
    out = groupoid.involute(s)
    assert np.allclose(out((2, 0)), h)


def test_involution_is_involutive_and_isometric(rng):
    window = Window(max_x=12, max_g=8)
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    for _ in range(20):
        phi = _random_section(rng, act, window, 5, x_bound=6, g_bound=4)
        assert groupoid.i_norm(groupoid.involute(phi)) == pytest.approx(groupoid.i_norm(phi))
        back = groupoid.involute(groupoid.involute(phi))
        for e in set(phi.values) | set(back.values):
            assert np.linalg.norm(phi(e) - back(e), 2) <= 1e-12


def test_involution_trivial_action_formula(rng):
    window = Window(max_x=8, max_g=6)
    act = toeplitz.trivial_action(1)
    phi = _random_section(rng, act, window, 5, x_bound=5, g_bound=3)
    out = groupoid.involute(phi)
    for e in phi.values:
        inv = e.inverse()
        assert out(inv)[0, 0] == pytest.approx(np.conj(phi(e)[0, 0]))


def test_i_norm_examples():
    window = Window(max_x=6, max_g=6)
    act = toeplitz.trivial_action(1)
    s = GroupoidSection(act, window, {(2, 1): np.array([[3.0]])})
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
    assert all(e.g == 0 for e in lifted.values)
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
        margin = max(abs(e.g) for s in (phi, psi) for e in s.values)
        if 2 * margin >= n:
            continue
        conv = groupoid.convolve(phi, psi)
        lhs = groupoid.lambda_rep(conv, n)
        rhs = groupoid.lambda_rep(phi, n) @ groupoid.lambda_rep(psi, n)
        assert np.linalg.norm(lhs.interior(margin) - rhs.interior(margin), 2) <= 1e-10


def _lambda_rep_by_cell_scan(phi, n):
    """Reference: visit all (N+1)^2 cells and apply alpha_b one cell at a time."""
    out = toeplitz.TruncatedOperator.zeros(n, phi.action.k)
    for b in range(n + 1):
        for a in range(n + 1):
            v = phi((b, a - b))
            if np.any(v):
                out.blocks[b, a] = phi.action.alpha(b, v)
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
            reference = _lambda_rep_by_cell_scan(phi, n).blocks
            np.testing.assert_allclose(groupoid.lambda_rep(phi, n).blocks, reference, rtol=0, atol=1e-12)


def test_lambda_rep_window_certification():
    window = Window(max_x=4, max_g=4)
    s = GroupoidSection(toeplitz.trivial_action(1), window, {(0, 0): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.lambda_rep(s, 8)


def test_shift_R_identity_and_composition(rng):
    window = Window(max_x=14, max_g=14)
    act = toeplitz.trivial_action(1)
    for _ in range(20):
        psi = _random_section(rng, act, window, 4, x_bound=6, g_bound=4)
        r0 = groupoid.shift_R(0, psi)
        for e in set(psi.values) | set(r0.values):
            assert np.allclose(psi(e), r0(e))
        a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        lhs = groupoid.shift_R(a, groupoid.shift_R(b, psi))
        rhs = groupoid.shift_R(a + b, psi)
        for e in set(lhs.values) | set(rhs.values):
            assert np.allclose(lhs(e), rhs(e))


def test_shift_R_trivial_action_is_translation(rng):
    window = Window(max_x=14, max_g=14)
    act = toeplitz.trivial_action(1)
    psi = _random_section(rng, act, window, 4, x_bound=6, g_bound=4)
    a = 2
    out = groupoid.shift_R(a, psi)
    for e, v in psi.values.items():
        if e.x == INF:
            assert np.allclose(out((INF, e.g + a)), v)
        elif e.x >= a:
            assert np.allclose(out((e.x - a, e.g + a)), v)
    # units below the shift have no preimage and are dropped
    dropped = [e for e in psi.values if e.x != INF and e.x < a]
    kept = sum(1 for e in psi.values if e.x == INF or e.x >= a)
    assert len(out.values) <= kept + len(dropped) and len(out.values) >= kept - len(dropped)


def test_shift_R_window_overflow_is_loud():
    window = Window(max_x=8, max_g=3)
    act = toeplitz.trivial_action(1)
    psi = GroupoidSection(act, window, {(5, 3): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.shift_R(2, psi)  # lands at g = 5 > max_g


def test_convolution_window_overflow_is_loud():
    window = Window(max_x=4, max_g=2)
    act = toeplitz.trivial_action(1)
    phi = GroupoidSection(act, window, {(0, 2): np.eye(1)})
    psi = GroupoidSection(act, window, {(2, 2): np.eye(1)})
    with pytest.raises(WindowOverflowError):
        groupoid.convolve(phi, psi)


def test_section_rejects_support_outside_window():
    window = Window(max_x=3, max_g=3)
    act = toeplitz.trivial_action(1)
    with pytest.raises(WindowOverflowError):
        GroupoidSection(act, window, {GroupoidElement(5, 0): np.eye(1)})


def test_section_values_are_checked_once_as_k_by_k_matrices():
    window = Window(max_x=4, max_g=4)
    act = toeplitz.trivial_action(1)
    s = GroupoidSection(act, window, {(1, 0): [[2]]})
    assert s((1, 0)).dtype == np.complex128 and s((1, 0)).shape == (1, 1)
    for bad in (3.0 * np.eye(3), np.eye(1)[0], "x", [["1"]], [[1.0], [2.0, 3.0]], None):
        with pytest.raises(InputValidationError):
            GroupoidSection(act, window, {(2, 0): bad})
        with pytest.raises(InputValidationError):
            s.set((2, 0), bad)
    assert list(s.values) == [GroupoidElement(1, 0)]
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
    chi = GroupoidSection(same, window, {(1, 1): random_complex(rng, 2)})
    groupoid.convolve(psi, chi)
