"""Kernel-mutant catalogue: planted one-line faults the suite cases must flag.

Each row names a kernel function or method, one line of its source and the
edit that plants the fault, a case and the verdict that case must give at
seeds 0-2.  The mutant is the function's own source with that one edit,
compiled into a copy of the module's namespace and monkeypatched over the
original on its module or class, so the suites call it where they call the
kernel.  A row with no edit runs the unpatched kernel: the case must pass at
the same seeds.
"""

import inspect
import textwrap

import pytest

from whlab import fibers, groupoid, moebius, suites, toeplitz

SEEDS = range(3)

MUTANTS = [
    pytest.param(None, None, None, "groupoid.algebra", "pass", id="unpatched"),
    # the point-separation witness -A_p + alpha E_p without its alpha E_p term
    pytest.param(
        moebius.separate_points,
        "-p.a + alpha[..., None, None] * p.e",
        "-p.a",
        "moebius.separate_points",
        "fail",
        id="separation-witness-without-projection",
    ),
    # the crossed-product twist: alpha inside convolve, involute and shift_R
    pytest.param(
        groupoid.convolve,
        "_twisted(act, [t] * len(hits), sources)",
        "sources",
        "groupoid.algebra",
        "fail",
        id="untwisted-convolve",
    ),
    pytest.param(
        groupoid.involute,
        "_twisted(phi.action, list(adjoints), adjoints)",
        "adjoints",
        "groupoid.algebra",
        "fail",
        id="untwisted-involute",
    ),
    pytest.param(
        groupoid.shift_R,
        "_twisted(psi.action, [a] * len(live), live)",
        "live",
        "groupoid.algebra",
        "fail",
        id="untwisted-shift_R",
    ),
    # the induced representation Lambda: band -g of a section column g holds alpha_b(phi(b, g)) at row b
    pytest.param(
        groupoid.lambda_rep,
        "TruncatedOperator.twisted(n, phi.action, bands)",
        "TruncatedOperator(n, phi.action.k, bands)",
        "groupoid.central_identity",
        "fail",
        id="untwisted-lambda_rep",
    ),
    # the I-norm: the larger of the l^1 sums along ranges and along sources
    pytest.param(
        groupoid.i_norm,
        "for sums in (ranges, sources)",
        "for sums in (ranges,)",
        "groupoid.algebra",
        "fail",
        id="i_norm-ranges-only-algebra",
    ),
    pytest.param(
        groupoid.i_norm,
        "for sums in (ranges, sources)",
        "for sums in (ranges,)",
        "groupoid.lambda_bound",
        "fail",
        id="i_norm-ranges-only-lambda_bound",
    ),
    # the halving action f -> f(t / 2^n) and the fiber action built on it
    pytest.param(
        fibers.halving_apply,
        "-n * _POWERS",
        "-(n - 1) * _POWERS",
        "fibers.quotient_oracle",
        "fail",
        id="halving-one-power-short-quotient_oracle",
    ),
    pytest.param(
        fibers.halving_apply,
        "-n * _POWERS",
        "-(n - 1) * _POWERS",
        "fibers.action_welldefined",
        "fail",
        id="halving-one-power-short-action_welldefined",
    ),
    pytest.param(
        fibers.fiber_action,
        "rep = halving_apply(a, halving_section(b, q.rep))",
        "rep = halving_apply(a, q.rep)",
        "fibers.action_welldefined",
        "fail",
        id="fiber-action-without-section",
    ),
    # the injective action alpha_n(f)(z) = f(z^(2^n)): z^m moved to z^(m 2^n)
    pytest.param(
        fibers.dilate,
        "1 << n",
        "1",
        "fibers.dilation",
        "fail",
        id="dilate-is-identity",
    ),
    # the power table of the action: alpha_m read at U_{|m|+1} for U_{|m|}
    pytest.param(
        toeplitz.EndomorphismAction.alpha,
        "self.powers(int(steps.max(initial=0)))[steps]",
        "self.powers(int(steps.max(initial=0)) + 1)[steps + 1]",
        "toeplitz.covariance",
        "fail",
        id="alpha-power-off-by-one",
    ),
    # W_f: the block of row m carries alpha_m, twisted by its row, not its column
    pytest.param(
        toeplitz.TruncatedOperator.twisted,
        "_rows(n, values)",
        "_rows(n, [-o for o in values])",
        "toeplitz.adjoint_symbol",
        "fail",
        id="wiener_hopf-twisted-by-column",
    ),
    # the symbol arrays: the reflection g -> -g, which hat_symbol and the
    # adjoint symbol share, and the product's offset
    pytest.param(
        toeplitz.SymbolFunction.reflected,
        "self.values[::-1]",
        "self.values",
        "groupoid.central_identity",
        "fail",
        id="reflected-without-flip",
    ),
    pytest.param(
        toeplitz.SymbolFunction.reflected,
        "self.values[::-1]",
        "self.values",
        "groupoid.hat_laws",
        "fail",
        id="reflected-without-flip-hat_laws",
    ),
    pytest.param(
        toeplitz.SymbolFunction.convolve,
        "self.offset + other.offset",
        "self.offset + other.offset + 1",
        "toeplitz.symbol_product_interior",
        "fail",
        id="convolve-offset-off-by-one",
    ),
    # the Schur bound of a TruncatedOperator, exact for one band: its largest block norm
    pytest.param(
        toeplitz.TruncatedOperator.norm_bound,
        "_spectral_norms(np.concatenate(list(self.bands.values())))",
        "_spectral_norms(np.concatenate([band[:1].repeat(len(band), axis=0) for band in self.bands.values()]))",
        "toeplitz.isometry_laws",
        "fail",
        id="one-band-norm-reads-first-block",
    ),
    # the band product of TruncatedOperator
    pytest.param(
        toeplitz.TruncatedOperator.__matmul__,
        "min(n, n - oa, n + ob) + 1",
        "min(n, n - oa, n + ob)",
        "toeplitz.covariance",
        "fail",
        id="band-product-row-range-off-by-one",
    ),
    pytest.param(
        toeplitz.TruncatedOperator.__matmul__,
        "out[o][ic : ic + hi - lo] += ",
        "out[o][ic : ic + hi - lo] = ",
        "toeplitz.symbol_product_interior",
        "fail",
        id="band-product-overwrites-earlier-pairs",
    ),
]


def _mutant(func, line, edit):
    """func recompiled from its source with `line` replaced by `edit`."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(line) == 1, f"{func.__qualname__} no longer holds {line!r}"
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(line, edit), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


def _owner(func):
    """The module, or the class inside it, that holds func under its name."""
    owner = inspect.getmodule(func)
    for name in func.__qualname__.split(".")[:-1]:
        owner = getattr(owner, name)
    return owner


@pytest.mark.parametrize("func, line, edit, case, verdict", MUTANTS)
def test_case_verdict_under_mutant(monkeypatch, func, line, edit, case, verdict):
    if func is not None:
        monkeypatch.setattr(_owner(func), func.__name__, _mutant(func, line, edit))
    suite = case.split(".")[0]
    statuses = [suites.run_case(suites.CASES[case], suites.SuiteConfig(suite=suite, seed=seed)).status for seed in SEEDS]
    assert statuses == [verdict] * len(SEEDS)
