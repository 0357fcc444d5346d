"""Quotient-fiber (surjective side) and dilation (injective side) tests.

The independent oracle for quotient norms: for the halving action,
||alpha_n(x)|| is the sup of |x| over [0, 2^{-n}] taken directly on the
stored representation, against the production route that actually applies
alpha_n and sups over [0, 1].
"""

import numpy as np
import pytest

from whlab import fibers, suites
from whlab.errors import DomainError, InputValidationError
from whlab.fell import INF
from whlab.fibers import DilationElement, PiecewisePoly, QuotientElement, TrigPoly


def pl(breaks, vals):
    return PiecewisePoly.from_breakpoints(breaks, vals)


def trig(rng, degree):
    """A random trig polynomial: complex Gaussian coefficients, real then imaginary part."""
    return TrigPoly({m: rng.standard_normal() + 1j * rng.standard_normal() for m in range(-degree, degree + 1)})


# ---------------------------------------------------------------------------
# piecewise polynomials


def test_pl_evaluation_and_algebra():
    f = pl([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f(0.25) == pytest.approx(0.5)
    assert f(0.75) == pytest.approx(0.5)
    g = f + f
    assert g(0.25) == pytest.approx(1.0)
    h = f * f
    assert h(0.25) == pytest.approx(0.25)
    assert h.sup_abs() == pytest.approx(1.0)
    # arrays evaluate to exactly the pointwise values
    ts = np.linspace(0.0, 1.0, 37)
    for p in (f, h):
        assert p(ts).tolist() == [p(float(t)) for t in ts]
    # a product of two quadratics exceeds the degree cap
    with pytest.raises(InputValidationError):
        h * h


def test_product_sup_can_live_between_breakpoints():
    f = pl([0.0, 1.0], [0.0, 1.0])       # t
    g = pl([0.0, 1.0], [1.0, 0.0])       # 1 - t
    prod = f * g                          # t(1-t), max 1/4 at t = 1/2
    assert prod.sup_abs() == pytest.approx(0.25)
    assert prod.sup_abs(0.25) == pytest.approx(0.25 * 0.75)
    # the vertex 1/2 sits on a breakpoint: the endpoints carry the sup
    split = pl([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]) * g
    assert split.sup_abs() == 0.25
    # (1 + t)^2 has its vertex at -1, outside every piece
    up = pl([0.0, 0.5, 1.0], [1.0, 1.5, 2.0])
    assert (up * up).sup_abs() == 4.0
    assert (up * up).sup_abs(0.5) == 2.25


def test_halving_action_examples():
    f = pl([0.0, 0.5, 1.0], [1.0, 3.0, 5.0])
    a1 = fibers.halving_apply(1, f)
    for t in np.linspace(0, 1, 9):
        assert a1(float(t)) == pytest.approx(f(float(t) / 2.0))
    a3 = fibers.halving_apply(3, f)
    assert a3(1.0) == pytest.approx(f(1.0 / 8.0))
    # a breakpoint exactly at the cut 2^-2 ends the last piece kept
    g = pl([0.0, 0.25, 0.5, 1.0], [1.0, 2.0, -1.0, 0.0])
    a2 = fibers.halving_apply(2, g)
    assert a2.breaks.tolist() == [0.0, 1.0]
    for t in np.linspace(0, 1, 9):
        assert a2(float(t)) == pytest.approx(g(float(t) / 4.0))


def test_halving_section_is_a_section():
    f = pl([0.0, 0.25, 1.0], [2.0, -1.0, 0.5])
    for n in range(0, 4):
        h = fibers.halving_section(n, f)
        back = fibers.halving_apply(n, h)
        for t in np.linspace(0, 1, 17):
            assert back(float(t)) == pytest.approx(f(float(t)))


# ---------------------------------------------------------------------------
# quotient norms and ideals


def test_quotient_norm_is_zero_on_kernel():
    # vanishing on [0, 1/2] means killed by alpha_1
    f = pl([0.0, 0.5, 1.0], [0.0, 0.0, 2.0])
    assert fibers.quotient_norm(1, f) == 0.0
    assert fibers.ideal_contains(1, f)
    assert not fibers.ideal_contains(0, f)


def test_quotient_norm_at_infinity_is_value_at_zero():
    f = pl([0.0, 0.25, 1.0], [-2.5, 1.0, 0.0])
    assert fibers.quotient_norm(INF, f) == pytest.approx(2.5)
    zero = pl([0.0, 1.0], [0.0, 0.0])
    for x in (0, 3, INF):
        assert fibers.quotient_norm(x, zero) == 0.0


def test_point_zero_has_trivial_ideal(rng):
    for _ in range(20):
        f = fibers.random_dyadic_pl(rng, level=3)
        if f.sup_abs() > 1e-6:
            assert not fibers.ideal_contains(0, f)


def test_quotient_norm_matches_direct_sup_oracle(rng):
    for _ in range(40):
        f = fibers.random_dyadic_pl(rng, level=4)
        for n in range(0, 11):
            assert fibers.quotient_norm(n, f) == pytest.approx(
                f.sup_abs(2.0 ** (-n)), abs=1e-12
            )


def test_quotient_norm_monotone_to_limit(rng):
    for _ in range(20):
        f = fibers.random_dyadic_pl(rng, level=4)
        values = [fibers.quotient_norm(n, f) for n in range(0, 41, 4)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))
        assert values[-1] <= fibers.quotient_norm(INF, f) + 1e-9
        # 2^-n below every breakpoint, and below the smallest double
        for n in (60, 2000):
            assert fibers.quotient_norm(n, f) == pytest.approx(abs(f(0.0)), abs=1e-15)


def test_cstar_seminorm_properties(rng):
    for _ in range(25):
        x = fibers.random_dyadic_pl(rng, level=3)
        y = fibers.random_dyadic_pl(rng, level=3)
        for p in (0, 2, 5, INF):
            qx = fibers.quotient_norm(p, x)
            qy = fibers.quotient_norm(p, y)
            assert fibers.quotient_norm(p, x + y) <= qx + qy + 1e-10
            assert fibers.quotient_norm(p, x * y) <= qx * qy + 1e-10
            assert fibers.quotient_norm(p, x.star() * x) == pytest.approx(qx * qx, abs=1e-10)


# ---------------------------------------------------------------------------
# the groupoid action on fibers


def test_fiber_action_identity():
    f = pl([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    q = QuotientElement(x=4, rep=f)
    out = fibers.fiber_action(4, 0, q)
    assert out.x == q.x
    assert fibers.quotient_norm(4, out.rep - q.rep) <= 1e-12


def test_fiber_action_semigroup_direction_norms_match(rng):
    for _ in range(20):
        f = fibers.random_dyadic_pl(rng, level=3)
        a = int(rng.integers(0, 5))
        x = int(rng.integers(0, 6))
        q = QuotientElement(x=x + a, rep=f)
        out = fibers.fiber_action(x, a, q)
        assert out.seminorm == pytest.approx(q.seminorm, abs=1e-12)
        # the action by a in the semigroup is x + I_{Xa} -> alpha_a(x) + I_X
        direct = fibers.halving_apply(a, f)
        assert fibers.quotient_norm(x, out.rep - direct) <= 1e-12


def test_fiber_action_decomposition_independence(rng):
    for _ in range(25):
        f = fibers.random_dyadic_pl(rng, level=3)
        g = int(rng.integers(-5, 6))
        x = int(rng.integers(max(0, -g), 7))
        q = QuotientElement(x=x + g, rep=f)
        base = fibers.fiber_action(x, g, q)
        for extra in (1, 2, 3, 4, 5):
            other = fibers.fiber_action(x, g, q, decomposition=(max(g, 0) + extra, max(-g, 0) + extra))
            assert fibers.quotient_norm(x, base.rep - other.rep) <= 1e-9
            assert other.seminorm == pytest.approx(q.seminorm, abs=1e-9)


def test_fiber_action_rejects_non_groupoid_pairs():
    q = QuotientElement(x=0, rep=pl([0.0, 1.0], [1.0, 1.0]))
    with pytest.raises(DomainError):
        fibers.fiber_action(1, -2, q)
    with pytest.raises(InputValidationError):
        fibers.fiber_action(3, 1, q)  # q lives over 0, expected over 4


@pytest.mark.parametrize("decomposition", [(1.5, 0.5), (True, False), ("1", "0"), (np.inf, np.inf)])
def test_fiber_action_rejects_a_decomposition_that_is_not_integral(decomposition):
    q = QuotientElement(x=3, rep=pl([0.0, 1.0], [1.0, 0.0]))
    with pytest.raises(InputValidationError):
        fibers.fiber_action(2, 1, q, decomposition=decomposition)
    # an integral float is the int it equals
    out, ref = (fibers.fiber_action(2, 1, q, decomposition=d) for d in ((2.0, 1.0), (2, 1)))
    assert np.array_equal(out.rep.breaks, ref.rep.breaks) and np.array_equal(out.rep.coefs, ref.rep.coefs)


# ---------------------------------------------------------------------------
# dilation of the injective system


def test_dilation_defining_identification(rng):
    for _ in range(20):
        x = trig(rng, 3)
        assert fibers.dilation_equal(DilationElement(0, x), DilationElement(1, x.dilate(1)))
        assert fibers.dilation_equal(DilationElement(2, x), DilationElement(4, x.dilate(2)))


@pytest.mark.parametrize("m", [2.5, True, "2", None, float("nan")])
def test_trig_poly_rejects_an_exponent_that_is_not_an_integer(m):
    # int() would store 2.5 at z^2 and True at z^1
    with pytest.raises(InputValidationError):
        TrigPoly({m: 1.0})


def test_trig_poly_reads_an_integral_exponent_as_an_int():
    p = TrigPoly({2.0: 1.0, np.int64(-1): 2.0})
    assert p.coeffs == {2: 1.0, -1: 2.0} and all(type(m) is int for m in p.coeffs)


def test_dilation_distinguishes_payloads(rng):
    x = trig(rng, 2)
    y = x + TrigPoly({1: 0.5})
    assert not fibers.dilation_equal(DilationElement(0, x), DilationElement(0, y))


def test_dilation_case_flags_an_uncertified_norm(monkeypatch):
    # without the Bernstein divisor the norm is the grid maximum, which
    # undershoots the sup of a dilated payload: the brackets stop overlapping
    cfg = suites.SuiteConfig(suite="fibers")
    assert suites.run_case(suites.CASES["fibers.dilation"], cfg).status == "pass"
    monkeypatch.setattr(TrigPoly, "norm", TrigPoly.grid_max)
    result = suites.run_case(suites.CASES["fibers.dilation"], cfg)
    assert result.status == "fail"
    assert "level promotion changed the norm" in result.details


def test_trig_norm_certificate_brackets_true_sup(rng):
    for _ in range(20):
        x = trig(rng, 4)
        dense = max(abs(x(np.exp(1j * t))) for t in np.linspace(0, 2 * np.pi, 4097))
        assert x.grid_max() <= dense + 1e-12
        assert x.norm() >= dense - 1e-12


def test_trig_star_is_pointwise_conjugate(rng):
    x = trig(rng, 3)
    z = np.exp(0.7j)
    assert x.star()(z) == pytest.approx(np.conj(x(z)))


def test_fiber_section_examples(rng):
    x = trig(rng, 2)
    # delta at 0: the element is x itself at level 0
    cert = fibers.fiber_section_F(x, {0: 1.0}, 4)
    assert cert.element.level == 0
    assert fibers.dilation_equal(cert.element, DilationElement(0, x))
    # support beyond the fiber's reach contributes nothing
    cert = fibers.fiber_section_F(x, {7: 1.0}, 4)
    assert not cert.element.payload.coeffs
    # at infinity everything contributes
    cert = fibers.fiber_section_F(x, {-1: 1.0, 2: 0.5, 7: 2.0}, INF)
    assert cert.element.level == 7
    assert cert.check()


def test_fiber_over_finite_point_is_single_payload(rng):
    # everything over P^{-1}a collapses to one element at level a
    x = trig(rng, 2)
    supp = {g: complex(rng.standard_normal(), rng.standard_normal()) for g in range(-2, 4)}
    cert = fibers.fiber_section_F(x, supp, 3)
    assert cert.element.level <= 3
    promoted = fibers.dilation_promote(cert.element, 3)
    assert fibers.dilation_equal(cert.element, DilationElement(3, promoted))
    assert cert.check()


def test_certificates_remain_valid_over_larger_fibers(rng):
    x = trig(rng, 2)
    supp = {g: 1.0 + 0j for g in range(0, 3)}
    cert = fibers.fiber_section_F(x, supp, 2)
    assert all(g <= 2 for g, _ in cert.witnesses)
    wider = fibers.FiberCertificate(x=5, element=cert.element, witnesses=cert.witnesses)
    assert wider.check()
    widest = fibers.FiberCertificate(x=INF, element=cert.element, witnesses=cert.witnesses)
    assert widest.check()


def test_dilation_promote_rejects_demotion():
    x = TrigPoly({0: 1.0})
    with pytest.raises(InputValidationError):
        fibers.dilation_promote(DilationElement(3, x), 1)
