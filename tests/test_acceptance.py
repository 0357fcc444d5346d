"""Acceptance criteria.

Each test runs one acceptance criterion at its stated tolerance, sample count
and runtime limit, and prints one pass/fail line (visible with `pytest -s`).
Criteria:

  01 Moebius action laws                     <= 1e-9,  < 5 s
  02 invertibility margin of BU+2i-B         >= 1e-6,  < 30 s
  03 contraction range lemma                 <= 1e-8,  < 10 s
  04 pair representation + translation       <= 1e-8,  < 10 s
  05 cone membership sets (A2)/(A3)          exact,    < 10 s
  06 contracting homotopies, both models     clauses,  < 10 s
  07 induced representation = Toeplitz       <= 1e-12, < 10 s
  08 covariance on the truncation            <= 1e-12, < 5 s
  09 groupoid algebra laws + norm bound      exact,    < 20 s
  10 surjective fibers: kernels and norms    tol 1e-9, < 5 s
  11 fiber action decomposition independence <= 1e-9,  < 5 s
  12 compactification model checks           exact,    < 5 s
"""

import math
import time

import numpy as np

from whlab import fell, fibers, groupoid, homotopy, jordan, moebius, spectra, suites, toeplitz
from whlab.errors import WindowOverflowError
from whlab.fell import INF
from whlab.jordan import OrderRelation
from whlab.sampling import random_complex, random_positive, random_positive_definite, random_unitary
from whlab.suites import unitary_samples

SEED = 1729


def _finish(num, name, start, limit, max_err, tol, ok):
    elapsed = time.perf_counter() - start
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    err_part = f" max_err={max_err:.3e} tol={tol:.1e}" if max_err is not None else ""
    print(f"[{verdict}] criterion {num:02d} {name}:{err_part} elapsed={elapsed:.2f}s limit={limit:.0f}s")
    assert ok, f"criterion {num:02d} {name} failed with max_err={max_err}"
    assert elapsed < limit, f"criterion {num:02d} overran its {limit}s budget ({elapsed:.1f}s)"


def _pinned(num, name, limit, cases, **config):
    """Run suite cases at a pinned config: each of `cases` (case name -> least
    number of draws, tolerance or None for a count) must pass at it."""
    start = time.perf_counter()
    cfg = suites.SuiteConfig(suite="pinned", seed=SEED + num, **config)
    results = [suites.run_case(suites.CASES[case], cfg) for case in cases]
    for result in results:
        min_draws, tol = cases[result.name]
        assert result.draws >= min_draws, (result.name, result.draws)
        assert result.tolerance == tol, (result.name, result.tolerance)
    errors = [r.max_error for r in results if r.max_error is not None]
    tols = [tol for _, tol in cases.values() if tol is not None]
    ok = all(r.status == "pass" for r in results)
    _finish(num, name, start, limit, max(errors, default=None), max(tols, default=None), ok)


def test_criterion_01_moebius_action_laws():
    cases = {"moebius.action_law": (800, 1e-9), "moebius.cayley_equivariance": (800, 1e-9)}
    _pinned(1, "moebius action laws", 5.0, cases, dim=4, trials=200, tol=1e-9)


def test_criterion_02_invertibility_margin():
    cases = {"moebius.invertibility_margin": (10_000, 1e-6)}
    _pinned(2, "invertibility margin", 30.0, cases, dim=6, trials=340)


def _inverse_sqrt(b):
    dec = spectra.hermitian_eig(b)
    return spectra.functional_calculus(dec, lambda lam: 1.0 / math.sqrt(lam.real))


def test_criterion_03_contraction_range():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    order_ok = True
    n_b = 0
    for dim in range(1, 5):
        for _ in range(25):
            b = random_positive_definite(rng, dim)
            n_b += 1
            b_inv = np.linalg.inv(b)
            b_inv = 0.5 * (b_inv + b_inv.conj().T)
            rootinv = _inverse_sqrt(b)
            for _ in range(10):
                # a point of the range: C < B^{-1} with definite margin
                s = random_positive(rng, dim)
                s = s * (0.9 * rng.uniform(0.1, 1.0) / max(spectra.operator_norm(s), 1e-12))
                c = rootinv @ s @ rootinv
                c = 0.5 * (c + c.conj().T)
                a = moebius.contraction_inverse(c, b)
                worst = max(worst, spectra.operator_norm(moebius.moebius_contraction(a, b) - c))
                # and the forward direction: images are in the range
                a2 = random_positive(rng, dim)
                c2 = moebius.moebius_contraction(a2, b)
                if jordan.order_compare(c2, b_inv) != OrderRelation.LT:
                    order_ok = False
                worst = max(worst, spectra.operator_norm(moebius.contraction_inverse(c2, b) - a2))
    assert n_b >= 100
    _finish(3, "contraction range lemma", start, 10.0, worst, 1e-8, worst <= 1e-8 and order_ok)


def test_criterion_04_pair_representation():
    cases = {"moebius.pair_roundtrip": (400, 1e-8), "moebius.pair_translation": (400, 1e-8)}
    _pinned(4, "pair representation", 10.0, cases, dim=4, trials=100)


def test_criterion_05_membership_sets():
    cases = {"moebius.qset_a2": (500, None), "moebius.separate_points": (100, None)}
    _pinned(5, "membership sets (A2)/(A3)", 10.0, cases, dim=4, trials=33, tol=1e-10)


def test_criterion_06_contracting_homotopies():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    half = homotopy.verify_condition_h(
        homotopy.make_halfline_homotopy(), samples=homotopy.halfline_samples(rng, 50)
    )
    unit = homotopy.verify_condition_h(
        homotopy.make_unitary_homotopy(), samples=unitary_samples(rng, count=50, dim=3)
    )
    half_mut = homotopy.verify_condition_h(
        homotopy.make_halfline_mutant(), samples=homotopy.halfline_samples(rng, 20)
    )
    unit_mut = homotopy.verify_condition_h(
        homotopy.make_unitary_mutant(), samples=unitary_samples(rng, count=12, dim=2)
    )
    ok = (
        half["passed"]
        and unit["passed"]
        and half["t_points"] == 65
        and unit["t_points"] == 65
        and not half_mut["passed"]
        and not unit_mut["passed"]
    )
    _finish(6, "contracting homotopies", start, 10.0, None, None, ok)


def test_criterion_07_induced_representation_is_toeplitz():
    cases = {"groupoid.central_identity": (100, 1e-12)}
    _pinned(7, "induced representation = Toeplitz", 10.0, cases, n=32, trials=100)


def test_criterion_08_covariance():
    cases = {"toeplitz.covariance": (90, 1e-12)}
    _pinned(8, "covariance on the truncation", 5.0, cases, n=32, trials=40)


def test_criterion_09_groupoid_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    window = groupoid.Window(max_x=20, max_g=14)
    lam_window = groupoid.Window(max_x=12, max_g=12)
    ok = True
    worst = 0.0
    pairs = 0

    def rand_section(act, win, points, x_bound, g_bound):
        s = groupoid.GroupoidSection(act, win)
        units = list(range(x_bound + 1)) + [INF]
        for _ in range(points):
            x = units[int(rng.integers(len(units)))]
            lo = -g_bound if x == INF else -min(int(x), g_bound)
            g = int(rng.integers(lo, g_bound + 1))
            try:
                win.cell(x, g)
            except WindowOverflowError:
                continue
            s.set((x, g), random_complex(rng, act.k))
        if not s.support().any():
            s.set((0, 0), random_complex(rng, act.k))
        return s

    for k in (1, 2):
        act = toeplitz.trivial_action(1) if k == 1 else toeplitz.conjugation_action(random_unitary(rng, 2))
        for _ in range(50):
            pairs += 1
            phi = rand_section(act, window, 4, 8, 4)
            psi = rand_section(act, window, 4, 8, 4)
            chi = rand_section(act, window, 3, 8, 4)
            lhs = groupoid.convolve(groupoid.convolve(phi, psi), chi)
            rhs = groupoid.convolve(phi, groupoid.convolve(psi, chi))
            worst = max(worst, float(np.linalg.norm(lhs.values - rhs.values, 2, axis=(-2, -1)).max()))
            if abs(groupoid.i_norm(groupoid.involute(phi)) - groupoid.i_norm(phi)) > 1e-10:
                ok = False
            lam_phi = rand_section(act, lam_window, 5, 12, 4)
            if groupoid.lambda_rep(lam_phi, 12).norm() > groupoid.i_norm(lam_phi) + 1e-10:
                ok = False
    assert pairs >= 100
    _finish(9, "groupoid algebra laws", start, 20.0, worst, 1e-10, ok and worst <= 1e-10)


def test_criterion_10_surjective_fibers():
    cases = {"fibers.kernel_identity": (400, None), "fibers.quotient_oracle": (200, 1e-12)}
    _pinned(10, "surjective fibers", 5.0, cases, trials=200, tol=1e-9)


def test_criterion_11_fiber_action_welldefined():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for g in range(-5, 6):
        for _ in range(8):
            f = fibers.random_dyadic_pl(rng, level=3)
            x = int(rng.integers(max(0, -g), 7))
            q = fibers.QuotientElement(x=x + g, rep=f)
            reps = []
            for extra in range(5):
                a, b = max(g, 0) + extra, max(-g, 0) + extra
                reps.append(fibers.fiber_action(x, g, q, decomposition=(a, b)))
            for r in reps[1:]:
                worst = max(worst, fibers.quotient_norm(x, reps[0].rep - r.rep))
            for r in reps:
                worst = max(worst, abs(r.seminorm - q.seminorm))
    _finish(11, "fiber action well-defined", start, 5.0, worst, 1e-9, worst <= 1e-9)


def test_criterion_12_compactification_model():
    start = time.perf_counter()
    ok = True
    for n in list(range(0, 16)) + [INF]:
        x = fell.discrete(n)
        for g in range(-16, 17):
            if fell.omega_qset(x, g) != fell.point_contains(x, -g):
                ok = False
    for xv in list(np.linspace(0.0, 8.0, 33)) + [INF]:
        x = fell.halfline(xv)
        for g in np.linspace(-8.0, 8.0, 33):
            if fell.omega_qset(x, float(g)) != fell.point_contains(x, -float(g)):
                ok = False

    window = (-5.0, 5.0)
    constant = fell.fell_limit([fell.ray(1.0, "R", window, 0.25) for _ in range(8)])
    escaping = fell.fell_limit([fell.ray(float(n), "R", window, 0.25) for n in range(14)])
    alternating = fell.fell_limit([fell.ray(float(n % 2), "R", window, 0.25) for n in range(12)])
    ok = ok and constant.converged and escaping.converged and not alternating.converged
    if ok:
        expected = np.array([fell.ray(1.0, "R", window, 0.25).near(p) for p in constant.grid])
        ok = bool(np.array_equal(constant.liminf_mask, expected)) and bool(np.all(escaping.liminf_mask))
    _finish(12, "compactification model", start, 5.0, None, None, ok)
