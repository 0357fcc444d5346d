"""Order compactification models and grid Fell limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whlab import fell, fibers, groupoid
from whlab.errors import InputValidationError
from whlab.fell import INF


def test_omega_qset_halfline_examples():
    assert fell.omega_qset(fell.halfline(0.0), 1.0) is True
    assert fell.omega_qset(fell.halfline(2.0), -3.0) is False
    assert fell.omega_qset(fell.halfline(INF), -1e9) is True


def test_omega_qset_discrete_matches_membership():
    for n in list(range(0, 10)) + [INF]:
        x = fell.discrete(n)
        for g in range(-10, 11):
            assert fell.omega_qset(x, g) == fell.point_contains(x, -g)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0, max_value=50), st.floats(min_value=-50, max_value=50))
def test_omega_qset_halfline_matches_membership(x, g):
    point = fell.halfline(x)
    assert fell.omega_qset(point, g) == fell.point_contains(point, -g)


def test_omega_point_validation():
    with pytest.raises(InputValidationError):
        fell.halfline(-1.0)
    with pytest.raises(InputValidationError):
        fell.OmegaPoint("nonsense", 0)


def test_discrete_units_share_one_validator():
    # fell's points, the groupoid's window cells and the quotient fibers read a
    # discrete unit by one rule: a nonnegative integer or inf, nothing rounded or cast
    f = fibers.PiecewisePoly.from_breakpoints([0.0, 1.0], [1.0, 0.0])
    window = groupoid.Window(max_x=4, max_g=4)
    readers = (fell.discrete, lambda x: window.cell(x, 0), lambda x: fibers.quotient_norm(x, f))
    for bad in (2.5, -1, -INF, float("nan"), True, np.True_, "3", None):
        for read in readers:
            with pytest.raises(InputValidationError, match="nonnegative integer or inf"):
                read(bad)
    for good, value in ((2.0, 2), (np.int64(2), 2), (np.float64(INF), INF)):
        assert fell.discrete(good) == fell.OmegaPoint("discrete", value)
        assert window.cell(good, 0) == window.cell(value, 0)
        assert all(type(i) is int for i in window.cell(good, 0))


def test_fell_limit_constant_sequence():
    window = (-5.0, 5.0)
    sets = [fell.ray(1.0, "R", window, 0.25) for _ in range(6)]
    res = fell.fell_limit(sets)
    assert res.converged
    expected = np.array([sets[0].near(p) for p in res.grid])
    assert np.array_equal(res.liminf_mask, expected)


def test_fell_limit_escaping_sequence_covers_window():
    window = (-5.0, 5.0)
    sets = [fell.ray(float(n), "R", window, 0.25) for n in range(14)]
    res = fell.fell_limit(sets)
    assert res.converged
    assert np.all(res.liminf_mask)


def test_fell_limit_alternating_diverges():
    window = (-5.0, 5.0)
    sets = [fell.ray(float(n % 2), "R", window, 0.25) for n in range(12)]
    res = fell.fell_limit(sets)
    assert not res.converged
    # the disagreement is exactly on grid points of (0 + step, 1 + step]
    diff = res.limsup_mask & ~res.liminf_mask
    points = res.grid[diff]
    assert points.min() > 0.25 and points.max() <= 1.25 + 1e-12


def test_fell_limit_orbit_continuity():
    window = (-4.0, 4.0)
    sets = [fell.ray(1.5 + 2.0 ** (-n), "R", window, 0.25) for n in range(12)]
    res = fell.fell_limit(sets)
    assert res.converged
    expected_set = fell.ray(1.5, "R", window, 0.25)
    expected = np.array([expected_set.near(p) for p in res.grid])
    assert np.array_equal(res.liminf_mask, expected)


def test_fell_limit_integer_ambient():
    window = (-6.0, 6.0)
    sets = [fell.ray(2.0, "Z", window) for _ in range(4)]
    res = fell.fell_limit(sets)
    assert res.converged
    member = res.grid[res.liminf_mask]
    assert member.max() == 2.0


def test_fell_limit_rejects_empty_and_mismatched():
    with pytest.raises(InputValidationError):
        fell.fell_limit([])
    a = fell.ray(0.0, "R", (-1.0, 1.0), 0.25)
    b = fell.ray(0.0, "R", (-2.0, 2.0), 0.25)
    with pytest.raises(InputValidationError):
        fell.fell_limit([a, b])


def test_p_invariance_of_omega():
    for n in list(range(0, 8)) + [INF]:
        for a in range(0, 5):
            assert fell.in_omega(fell.translate(fell.discrete(n), a))
    for x in [0.0, 0.5, 2.0, INF]:
        for a in np.linspace(0.0, 4.0, 9):
            assert fell.in_omega(fell.translate(fell.halfline(x), float(a)))
    # translates against the semigroup can leave Omega for the extended model
    assert not fell.in_omega(fell.translate(fell.discrete(1), -2))
    assert not fell.in_omega(fell.translate(fell.halfline(1.0), -1.5))
