"""Suite driver smoke tests: every named suite runs green and deterministically."""

import inspect
import math

import numpy as np
import pytest

from whlab import moebius, suites
from whlab.errors import InputValidationError


@pytest.mark.parametrize(
    "name, n, dim",
    [pytest.param(name, 16, 4, id=name) for name in sorted(suites.SUITES)]
    # the truncation of the wiener-hopf-n64 benchmark workload
    + [pytest.param(name, 64, 4, id=f"{name}-n64") for name in ("groupoid", "toeplitz")]
    # the matrix sizes of the large-dim benchmark workload
    + [pytest.param("jordan", 16, 6, id="jordan-dim6"), pytest.param("moebius", 16, 8, id="moebius-dim8")],
)
def test_each_suite_passes(name, n, dim):
    cfg = suites.SuiteConfig(suite=name, dim=dim, trials=10, seed=5, n=n)
    outcome = suites.run(cfg)
    failures = [c for c in outcome["report"]["cases"] if c["status"] == "fail"]
    assert not failures, failures


def test_all_suite_aggregates():
    cfg = suites.SuiteConfig(suite="all", trials=5, seed=2)
    outcome = suites.run(cfg)
    names = [c["name"] for c in outcome["report"]["cases"]]
    assert names == sorted(names)
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == set(suites.SUITES)


def test_reports_are_seed_deterministic():
    # the default dim and the large-dim benchmark's dim 8, trials 10
    for dim, trials in ((4, 8), (8, 10)):
        cfg = suites.SuiteConfig(suite="moebius", dim=dim, trials=trials, seed=42)
        first = suites.run(cfg)["report"]
        second = suites.run(cfg)["report"]
        assert first == second
    # the default N and the wiener-hopf-n64 benchmark's N
    for name in ("groupoid", "toeplitz"):
        for n in (16, 64):
            cfg = suites.SuiteConfig(suite=name, seed=42, n=n)
            assert suites.run(cfg)["report"] == suites.run(cfg)["report"]


def test_unknown_suite_rejected():
    cfg = suites.SuiteConfig(suite="bogus")
    with pytest.raises(InputValidationError):
        suites.run(cfg)


def test_config_validation():
    bad = [
        {"trials": 0},
        {"tol": -1.0},
        {"tol": math.nan},
        {"tol": math.inf},
        {"grid_step": math.nan},
        {"n": -1},
        {"n": 0},
        {"model": "bogus"},
    ]
    for fields in bad:
        with pytest.raises(InputValidationError):
            suites.SuiteConfig(suite="moebius", **fields)
    assert suites.SuiteConfig(suite="moebius", n=4).n == 4


def test_sweep_case_records_dim_times_trials_draws():
    cfg = suites.SuiteConfig(suite="moebius", dim=3, trials=7)
    result = suites.run_case(suites.CASES["moebius.action_law"], cfg)
    assert result.status == "pass"
    assert result.draws == 3 * 7


def test_stacked_draw_drops_skipped_trials_and_sums_tallies():
    def draw(rng, cfg):
        for _ in suites._dims(cfg):
            yield from [None, (0, 1), (0, 2)][: cfg.trials]

    case = suites.Case("demo.skip", draw, "{0} bad, {1} tallied", "count")
    result = suites.run_case(case, suites.SuiteConfig(suite="demo", dim=2, trials=3))
    assert (result.status, result.draws, result.details) == ("fail", 4, "0 bad, 6 tallied")


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_rotated_pairs_separate_in_every_frame(dim):
    # E1 against E2 rotated by 0.1 and by 0.01, 50 random frames per angle: (E1, A1) against
    # (E2, A2) is separated in the given order, since range E1 is not inside range E2
    rng = np.random.default_rng(dim)
    for firsts, seconds in (suites._rotated_pairs(rng, dim) for _ in range(50)):
        witness = moebius.separate_points(firsts, seconds)
        assert moebius.qset_contains(firsts, witness).all()
        assert not moebius.qset_contains(seconds, witness).any()
        assert suites._unseparated(firsts, seconds) == [False, False]


@pytest.mark.parametrize("kind, good", [("bounded", 0.0), ("margin", 1.0), ("mutant", 1.0), ("count", 0)])
def test_nan_draw_fails_its_case(kind, good):
    def case(nan_dim):
        def draw(rng, cfg):
            for dim in suites._dims(cfg):
                for _ in range(cfg.trials):
                    yield math.nan if dim == nan_dim else good

        return suites.Case("demo.nan", draw, "", kind, 0.5)

    cfg = suites.SuiteConfig(suite="demo", dim=3, trials=2)
    assert suites.run_case(case(None), cfg).status == "pass"
    for nan_dim in (1, 2, 3):
        result = suites.run_case(case(nan_dim), cfg)
        assert (result.status, result.draws) == ("fail", 6)


def test_every_case_draw_is_a_generator():
    # one draw protocol: run_case iterates draw(rng, cfg) and nothing else
    assert [name for name, case in suites.CASES.items() if not inspect.isgeneratorfunction(case.draw)] == []


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_every_suite_has_a_passing_mutation_case(name):
    cfg = suites.SuiteConfig(suite=name)
    mutants = [c for key, c in suites.CASES.items() if key.startswith((f"{name}.mutant", f"{name}.mutation"))]
    assert mutants
    assert all(suites.run_case(case, cfg).status == "pass" for case in mutants)


def test_homotopy_passes_at_seeds_0_to_29():
    # the default config, at seeds beyond the 0-4 that the report matrix covers
    for seed in range(30):
        report = suites.run(suites.SuiteConfig(suite="homotopy", seed=seed))["report"]
        failures = [c for c in report["cases"] if c["status"] != "pass"]
        assert not failures, (seed, failures)
