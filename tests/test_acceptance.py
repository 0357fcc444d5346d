"""Acceptance criteria.

Each test runs suite cases at a pinned config: every case must pass at its
tolerance with at least its number of draws, inside the criterion's runtime
limit.  Each test prints one pass/fail line (visible with `pytest -s`).
Criteria:

  01 Moebius action laws                     <= 1e-9,  < 5 s
  02 invertibility margin of BU+2i-B         >= 1e-6,  < 30 s
  03 contraction range lemma                 <= 1e-8,  < 10 s
  04 pair representation + translation       <= 1e-8,  < 10 s
  05 cone membership sets (A2)/(A3)          exact,    < 10 s
  06 contracting homotopies, both models     clauses,  < 10 s
  07 induced representation = Toeplitz       <= 1e-12, < 10 s
  08 covariance on the truncation            <= 1e-12, < 5 s
  09 groupoid algebra laws + norm bound      <= 1e-10, < 20 s
  10 surjective fibers: kernels and norms    tol 1e-9, < 5 s
  11 fiber action decomposition independence <= 1e-10, < 5 s
  12 compactification model checks           exact,    < 5 s
"""

import time

from whlab import suites

SEED = 1729


def _pinned(num, name, limit, cases, **config):
    """Run suite cases at a pinned config: each of `cases` (case name -> least
    number of draws, tolerance or None for a count) must pass at it."""
    start = time.perf_counter()
    cfg = suites.SuiteConfig(suite="pinned", seed=SEED + num, **config)
    results = [suites.run_case(suites.CASES[case], cfg) for case in cases]
    elapsed = time.perf_counter() - start
    for result in results:
        min_draws, tol = cases[result.name]
        assert result.draws >= min_draws, (result.name, result.draws)
        assert result.tolerance == tol, (result.name, result.tolerance)
    failed = [r for r in results if r.status != "pass"]
    errors = [r.max_error for r in results if r.max_error is not None]
    tols = [tol for _, tol in cases.values() if tol is not None]
    verdict = "PASS" if not failed and elapsed < limit else "FAIL"
    err_part = f" max_err={max(errors):.3e} tol={max(tols):.1e}" if errors else ""
    print(f"[{verdict}] criterion {num:02d} {name}:{err_part} elapsed={elapsed:.2f}s limit={limit:.0f}s")
    assert not failed, f"criterion {num:02d} {name} failed: {failed}"
    assert elapsed < limit, f"criterion {num:02d} overran its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_01_moebius_action_laws():
    cases = {"moebius.action_law": (800, 1e-9), "moebius.cayley_equivariance": (800, 1e-9)}
    _pinned(1, "moebius action laws", 5.0, cases, dim=4, trials=200, tol=1e-9)


def test_criterion_02_invertibility_margin():
    cases = {"moebius.invertibility_margin": (10_000, 1e-6)}
    _pinned(2, "invertibility margin", 30.0, cases, dim=6, trials=340)


def test_criterion_03_contraction_range():
    # each draw checks one image A(BA+1)^-1 and one range point B^-1/2 S B^-1/2
    cases = {"moebius.contraction_range": (1000, 1e-8)}
    _pinned(3, "contraction range lemma", 10.0, cases, dim=4, trials=250)


def test_criterion_04_pair_representation():
    cases = {"moebius.pair_roundtrip": (400, 1e-8), "moebius.pair_translation": (400, 1e-8)}
    _pinned(4, "pair representation", 10.0, cases, dim=4, trials=100)


def test_criterion_05_membership_sets():
    cases = {"moebius.qset_a2": (500, None), "moebius.separate_points": (100, None)}
    _pinned(5, "membership sets (A2)/(A3)", 10.0, cases, dim=4, trials=33, tol=1e-10)


def test_criterion_06_contracting_homotopies():
    # one draw per sample: trials=50 sets 50 samples per model, dim=3 the
    # unitary samples' size; the mutants run on 20 half-line and 12 unitary
    # samples, judged as one draw
    cases = {"homotopy.halfline": (50, None), "homotopy.unitary": (50, None), "homotopy.mutants_flagged": (1, None)}
    _pinned(6, "contracting homotopies", 10.0, cases, dim=3, trials=50)


def test_criterion_07_induced_representation_is_toeplitz():
    cases = {"groupoid.central_identity": (100, 1e-12)}
    _pinned(7, "induced representation = Toeplitz", 10.0, cases, n=32, trials=100)


def test_criterion_08_covariance():
    cases = {"toeplitz.covariance": (90, 1e-12)}
    _pinned(8, "covariance on the truncation", 5.0, cases, n=32, trials=40)


def test_criterion_09_groupoid_algebra():
    cases = {"groupoid.algebra": (100, 1e-10), "groupoid.lambda_bound": (200, None)}
    _pinned(9, "groupoid algebra laws", 20.0, cases, trials=100)


def test_criterion_10_surjective_fibers():
    cases = {"fibers.kernel_identity": (400, None), "fibers.quotient_oracle": (200, 1e-12)}
    _pinned(10, "surjective fibers", 5.0, cases, trials=200, tol=1e-9)


def test_criterion_11_fiber_action_welldefined():
    # each draw compares five decompositions of g = a - b
    cases = {"fibers.action_welldefined": (88, 1e-10)}
    _pinned(11, "fiber action well-defined", 5.0, cases, trials=88)


def test_criterion_12_compactification_model():
    # 17 discrete and 34 half-line units; the limits at grid step 0.25
    cases = {"fell.qset_vs_membership": (51, None), "fell.canonical_limits": (1, None)}
    _pinned(12, "compactification model", 5.0, cases, grid_step=0.25)
