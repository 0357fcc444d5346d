"""Named verification suites behind the command-line driver.

Every case is one row of the `CASES` table: a name, a kind, a tolerance, a
detail line and a draw.  Every draw is a generator that runs its own
dimensions and trials and yields its values in order.  One runner,
`run_case`, seeds the case's random generator from (config seed, case name),
iterates the draw, reduces the values and gives the verdict, so cases are
order-independent and a report is a pure function of its configuration.
A draw takes a dim's trials as blocks: trials that draw only complex
Gaussians take one block of them (``_gaussians``), which holds the numbers
per-trial calls would draw, in their order; trials that also draw uniforms
or integers take each quantity as its own block.  Every suite ships at least
one deliberately broken variant (wrong sign, dropped normalizer, wrong shift
direction, missing reflection) and the corresponding case passes exactly
when the break is flagged.
"""

from __future__ import annotations

import hashlib
import math
import operator
import time
from dataclasses import asdict, dataclass
from itertools import zip_longest
from typing import Callable

import numpy as np

from . import fell, fibers, groupoid, homotopy, jordan, moebius, spectra, toeplitz
from .errors import InputValidationError, WitnessNotFoundError
from .fell import INF
from .spectra import _H, _right_solve
from .sampling import (
    gram,
    haar_unitary,
    hermitian_part,
    random_complex,
    random_hermitian,
    random_positive,
    random_positive_definite,
    random_unitary,
)

# Tolerances of the cases that do not take --tol.
MARGIN_FLOOR = 1e-6  # smallest singular value of BU+2i-B must stay above this
CONTRACTION_TOL = 1e-8  # contraction-map identities, which pass through a matrix inverse
PAIR_TOL = 1e-8  # (E, A) pair encode/decode round trips; also what counts as one point
ALGEBRA_TOL = 1e-10  # groupoid algebra laws, I-norm bounds, fiber-action isometry
SEMINORM_TOL = 1e-10  # C*-seminorm inequalities of the quotient norm
ROUNDING_TOL = 1e-12  # identities exact in exact arithmetic: only rounding separates the sides
ZERO_TOL = 0.0  # the hat involution only relabels, so both sides are the same numbers
# A mutation case passes when its broken variant misses by more than its gap.
SIGN_FLIP_GAP = 1e-3
SHIFT_DIRECTION_GAP = 1e-6
UNREFLECTED_GAP = 0.5
TRIG_DEGREE = 3  # the degree of the random trig polynomials of fibers.dilation


@dataclass
class SuiteConfig:
    suite: str
    dim: int = 4
    trials: int = 40
    seed: int = 0
    tol: float = 1e-9
    n: int = 16
    grid_step: float = 0.25
    model: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InputValidationError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InputValidationError("tol must be positive and finite")
        if self.dim < 1:
            raise InputValidationError("dim must be >= 1")
        if self.n < 1:
            raise InputValidationError("N must be >= 1")
        if not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise InputValidationError("grid_step must be positive and finite")
        if self.model not in (None, "halfline", "unitary"):
            raise InputValidationError(f"unknown homotopy model {self.model!r}")


@dataclass
class CaseResult:
    name: str
    status: str
    max_error: float | None
    tolerance: float | None
    details: str = ""
    draws: int = 0  # draws that reached the check; not part of the report

    def as_dict(self) -> dict:
        err = self.max_error
        if err is not None and not math.isfinite(err):
            err = None  # non-finite errors are reported through details
        return {
            "name": self.name,
            "status": self.status,
            "max_error": err,
            "tolerance": self.tolerance,
            "details": self.details,
        }


@dataclass(frozen=True)
class Case:
    """One verification case.

    draw -- a generator draw(rng, cfg) that runs the case's dims and
        trials and yields its values in order; a draw that computes a dim's
        trials as one stack yields them as Python scalars.  A value is a
        number, a list of violation messages (count kind), or a tuple of one
        of those followed by violation tallies; None is a skipped draw.
    details -- a str.format template (literal braces doubled) given the
        reduced value, the violation tallies and `draws=`, or a callable
        given the same arguments plus `messages=`.
    kind -- "bounded": the worst residual must be <= tol;
            "margin": the smallest value must be >= tol;
            "mutant": a broken variant's worst residual must be > tol;
            "count": no violations.
    tol -- the verdict tolerance; None takes --tol.
    """

    name: str
    draw: Callable
    details: str | Callable[..., str]
    kind: str = "count"
    tol: float | None = None


# kind -> (reduction, its start, verdict on (reduced value, tol))
_KINDS = {
    "bounded": (max, 0.0, operator.le),
    "margin": (min, math.inf, operator.ge),
    "mutant": (max, 0.0, operator.gt),
    "count": (operator.add, 0, lambda bad, tol: bad == 0),
}


def case_rng(cfg: SuiteConfig, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{cfg.seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _dims(cfg: SuiteConfig) -> range:
    return range(1, cfg.dim + 1)


def _gaussians(rng, dim: int, trials: int, count: int) -> list:
    """The ``count`` complex Gaussian stacks ``(trials, dim, dim)`` of trials
    that draw nothing else, drawn as one block: trial by trial, as per-trial
    calls would draw them."""
    return list(np.moveaxis(random_complex(rng, dim, size=(trials, count)), 1, 0))


def run_case(case: Case, cfg: SuiteConfig) -> CaseResult:
    """Draw, reduce and judge one case.  A NaN survives the reduction, and a
    non-finite value, a nonzero violation tally or an empty run fails it."""
    rng = case_rng(cfg, case.name)
    reduce, acc, holds = _KINDS[case.kind]
    tallies, messages, draws = [], [], 0
    for value in case.draw(rng, cfg):
        if value is None:
            continue
        head, *more = value if isinstance(value, tuple) else (value,)
        if isinstance(head, list):
            messages += head
            head = len(head)
        acc = head if head != head else reduce(acc, head)
        tallies = [t + m for t, m in zip_longest(tallies, more, fillvalue=0)]
        draws += 1
    if not draws:
        return CaseResult(case.name, "fail", None, None, "no draw reached the check")

    tol = cfg.tol if case.tol is None else case.tol
    violated = any(tallies)
    ok = math.isfinite(acc) and not violated and holds(acc, tol)
    if isinstance(case.details, str):
        details = case.details.format(acc, *tallies, draws=draws)
    else:
        details = case.details(acc, *tallies, draws=draws, messages=messages)
    status = "pass" if ok else "fail"
    if case.kind in ("bounded", "margin"):
        err = math.inf if violated else float(acc)
        return CaseResult(case.name, status, err, float(tol), details, draws)
    return CaseResult(case.name, status, None, None, details, draws)


def _worst(residuals) -> float:
    """The largest residual, 0 for none; a NaN among them makes the result NaN."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def _listed(fallback, pick=lambda messages: messages):
    """Details that join the violation messages, or `fallback` when none."""
    return lambda *_, messages, **__: "; ".join(pick(messages)) or fallback


# ---------------------------------------------------------------------------
# moebius


def _action_law(rng, cfg):
    for dim in _dims(cfg):
        g, a, b = _gaussians(rng, dim, cfg.trials, 3)
        u, a, b = haar_unitary(g), hermitian_part(a), hermitian_part(b)
        lhs = moebius.boxplus(moebius.boxplus(u, a), b)
        yield from spectra.operator_norm(lhs - moebius.boxplus(u, a + b)).tolist()


def _cayley_equivariance(rng, cfg):
    for dim in _dims(cfg):
        a, b = map(hermitian_part, _gaussians(rng, dim, cfg.trials, 2))
        yield from spectra.operator_norm(moebius.boxplus(spectra.cayley(a), b) - spectra.cayley(a + b)).tolist()


def _invertibility_margin(rng, cfg):
    for dim in range(1, max(cfg.dim, 6) + 1):
        g, b = _gaussians(rng, dim, max(cfg.trials * 5, 100), 2)
        u, b = haar_unitary(g), hermitian_part(b)
        yield from np.linalg.svd(b @ u + 2j * np.eye(dim) - b, compute_uv=False)[:, -1].tolist()


def _z_stability(rng, cfg):
    for dim in _dims(cfg):
        z = moebius.random_zpoint(rng, dim, size=cfg.trials)
        translated = moebius.boxplus(z.u, random_positive(rng, dim, size=cfg.trials))
        yield from (zclass == moebius.ZClass.OUTSIDE for zclass in moebius.classify_zpoint(translated))


def _contraction_range(rng, cfg):
    for dim in _dims(cfg):
        b = random_positive_definite(rng, dim, size=cfg.trials)
        a = random_positive(rng, dim, size=cfg.trials)
        s = random_positive(rng, dim, size=cfg.trials)
        scale = rng.uniform(0.1, 1.0, size=cfg.trials)
        # forward: the image of A lies in the range, and the inverse recovers A
        b_inv = np.linalg.inv(b)
        c = moebius.moebius_contraction(a, b)
        bound = 0.5 * (b_inv + _H(b_inv))
        outside = [rel != jordan.OrderRelation.LT for rel in jordan.order_compare(c, bound)]
        recovered = moebius.contraction_inverse(c, b)
        # onto: a point B^-1/2 S B^-1/2 with ||S|| = 0.9 U(0.1, 1) lies in the range with a margin
        lam, vecs = np.linalg.eigh(b)
        root_inv = (vecs / np.sqrt(lam)[:, None, :]) @ _H(vecs)
        s *= (0.9 * scale / spectra.operator_norm(s))[:, None, None]
        point = root_inv @ s @ root_inv
        point = 0.5 * (point + _H(point))
        gaps = (
            moebius.moebius_contraction(recovered, b) - c,
            recovered - a,
            moebius.moebius_contraction(moebius.contraction_inverse(point, b), b) - point,
        )
        worst = np.maximum.reduce([spectra.operator_norm(gap) for gap in gaps])
        yield from zip(worst.tolist(), outside)


def _contraction_chart(rng, cfg):
    for dim in _dims(cfg):
        a, b = map(gram, _gaussians(rng, dim, max(cfg.trials // 2, 5), 2))
        via_chart = moebius.moebius_contraction(a, b)
        yield from spectra.operator_norm(via_chart - moebius.psi_inv(moebius.boxplus(moebius.psi(a), b))).tolist()


def _pair_roundtrip(rng, cfg):
    for dim in _dims(cfg):
        z = moebius.random_zpoint(rng, dim, size=cfg.trials)
        yield from spectra.operator_norm(moebius.pair_decode(moebius.pair_encode(z)).u - z.u).tolist()


def _pair_translation(rng, cfg):
    for dim in _dims(cfg):
        pair = moebius.pair_encode(moebius.random_zpoint(rng, dim, size=cfg.trials))
        b = random_positive(rng, dim, size=cfg.trials)
        comp = np.eye(dim) - pair.e
        shifted = moebius.PairRep(e=pair.e, a=pair.a + comp @ b @ comp)
        lhs = moebius.boxplus(moebius.pair_decode(pair).u, b)
        yield from spectra.operator_norm(lhs - moebius.pair_decode(shifted).u).tolist()


def _qset_a2(rng, cfg):
    for dim in _dims(cfg):
        # a probe is Hermitian (kind 1) or positive, one complex Gaussian either way
        kind = rng.integers(3, size=cfg.trials * 4)
        g = random_complex(rng, dim, size=cfg.trials * 4)
        b = np.where((kind == 1)[:, None, None], hermitian_part(g), gram(g))
        planted = kind == 2  # plant a zero eigenvalue
        b[planted] -= spectra.lambda_min(b)[planted, None, None] * np.eye(dim)
        origin = moebius.PairRep(e=np.zeros((dim, dim)), a=np.zeros((dim, dim)))
        in_qset = moebius.qset_contains(origin, b, tol=cfg.tol)
        yield from (in_qset != (spectra.lambda_min(0.5 * (b + _H(b))) >= -cfg.tol)).tolist()


def _separate_points(rng, cfg):
    for dim in _dims(cfg):
        pairs = moebius.pair_encode(moebius.random_zpoint(rng, dim, size=2 * cfg.trials))
        firsts, seconds = pairs[0::2], pairs[1::2]
        one_point = firsts.close_to(seconds, tol=PAIR_TOL)
        yield from (None if one_point[t] else _separate(firsts[t], seconds[t]) for t in range(cfg.trials))


def _separate(p1, p2):
    """(no witness although distinct, sweep exhausted) for two distinct pairs."""
    try:
        return moebius.separate_points(p1, p2) is None, False
    except WitnessNotFoundError:
        return False, True


def _sign_flipped_boxplus(u, b):
    eye = np.eye(u.shape[-1])
    numer = (2j * eye + b) @ u + b  # wrong sign on the affine term
    denom = b @ u + 2j * eye - b
    return _right_solve(denom, numer)


def _moebius_mutation(rng, cfg):
    a, b = map(hermitian_part, _gaussians(rng, 3, cfg.trials, 2))
    yield from spectra.operator_norm(_sign_flipped_boxplus(spectra.cayley(a), b) - spectra.cayley(a + b)).tolist()


# ---------------------------------------------------------------------------
# jordan


def _closure_idempotent(rng, cfg):
    for dim in range(2, max(cfg.dim, 2) + 1):
        gens = list(random_hermitian(rng, dim, size=2))
        alg = jordan.generate_algebra(gens, dim=dim)
        again = jordan.generate_algebra(alg.basis, dim=dim)
        broken = []
        if alg.rank != again.rank:
            broken.append(f"dim {dim}: rank {alg.rank} -> {again.rank}")
        if any(not again.contains(b) for b in alg.basis):
            broken.append(f"dim {dim}: containment broken")
        yield broken


def _cone_axioms(rng, cfg):
    for dim in _dims(cfg):
        alg = jordan.hermitian_algebra(dim)
        eye = np.eye(dim)
        a = random_positive(rng, dim, size=cfg.trials) + 0.1 * eye
        b = random_positive(rng, dim, size=cfg.trials) + 0.1 * eye
        t = rng.uniform(0.1, 5.0, size=cfg.trials)
        eps = 0.5 * spectra.lambda_min(a)
        # a, a + b, t a and a - eps must all be interior: one stack of the four probes per trial
        probes = np.concatenate([a, a + b, t[:, None, None] * a, a - eps[:, None, None] * eye])
        outside = np.array([c != jordan.ConeClass.INTERIOR for c in jordan.classify(alg, probes)])
        yield from outside.reshape(4, -1).sum(axis=0).tolist()


def _broken_order(a, b):
    lam = spectra.lambda_min(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    if lam > jordan.DEFAULT_TOL:
        return jordan.OrderRelation.LT
    if lam >= -jordan.DEFAULT_TOL:
        return jordan.OrderRelation.LEQ
    return jordan.OrderRelation.INCOMPARABLE_OR_GT


def _jordan_mutation(rng, cfg):
    # wrong-sign order comparison must disagree with the contract on (0, I)
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    yield _broken_order(zero, eye) == jordan.order_compare(zero, eye)


# ---------------------------------------------------------------------------
# fell


def _fell_qset(rng, cfg):
    for n in list(range(0, 16)) + [INF]:
        x = fell.discrete(n)
        yield sum(fell.omega_qset(x, g) != fell.point_contains(x, -g) for g in range(-16, 17))
    for xv in np.linspace(0.0, 8.0, 33).tolist() + [INF]:
        x = fell.halfline(xv)
        yield sum(fell.omega_qset(x, g) != fell.point_contains(x, -g) for g in np.linspace(-8, 8, 65).tolist())


def _fell_limits(rng, cfg):
    window = (-5.0, 5.0)
    step = cfg.grid_step
    constant = [fell.ray(1.0, "R", window, step) for _ in range(8)]
    escaping = [fell.ray(float(n), "R", window, step) for n in range(14)]
    alternating = [fell.ray(float(n % 2), "R", window, step) for n in range(12)]

    res_const = fell.fell_limit(constant)
    res_esc = fell.fell_limit(escaping)
    res_alt = fell.fell_limit(alternating)

    ok = res_const.converged and res_esc.converged and not res_alt.converged
    if ok:
        expected = np.array([constant[0].near(p) for p in res_const.grid])
        ok = bool(np.array_equal(res_const.liminf_mask, expected))
        ok = ok and bool(np.all(res_esc.liminf_mask))
    yield not ok


def _fell_orbit_continuity(rng, cfg):
    window = (-4.0, 4.0)
    step = cfg.grid_step
    target = 1.5
    seq = [fell.ray(target + 2.0 ** (-n), "R", window, step) for n in range(12)]
    res = fell.fell_limit(seq)
    ok = res.converged
    if ok:
        expected_set = fell.ray(target, "R", window, step)
        expected = np.array([expected_set.near(p) for p in res.grid])
        ok = bool(np.array_equal(res.liminf_mask, expected))
    yield not ok


def _fell_p_invariance(rng, cfg):
    for n in list(range(0, 8)) + [INF]:
        yield sum(not fell.in_omega(fell.translate(fell.discrete(n), a)) for a in range(0, 6))
    for xv in [0.0, 0.25, 3.0, INF]:
        yield sum(not fell.in_omega(fell.translate(fell.halfline(xv), float(a))) for a in np.linspace(0, 5, 11))


def _fell_mutation(rng, cfg):
    def broken_qset(x, g):
        return True if x.is_infinite else x.value + g > 0  # strict: drops the boundary case

    x = fell.discrete(0)
    yield broken_qset(x, 0) == fell.omega_qset(x, 0)


# ---------------------------------------------------------------------------
# toeplitz


def _groupoid_actions(rng):
    # the actions of the toeplitz and groupoid cases; a generator, so the
    # unitary is drawn after the trivial action's trials
    yield toeplitz.trivial_action(1)
    yield toeplitz.conjugation_action(random_unitary(rng, 2))


def _covariance(rng, cfg):
    n = max(cfg.n, 16)
    for act in _groupoid_actions(rng):
        for a in range(0, 9):
            for x in random_complex(rng, act.k, size=max(cfg.trials // 8, 3)):
                yield toeplitz.covariance_residual(x, a, act, n)


def _isometry_laws(rng, cfg):
    n = max(cfg.n, 16)
    k = 1
    identity = toeplitz.TruncatedOperator.identity
    for a in range(0, 6):
        wide = toeplitz.isometry_V(a, n + a, k)
        yield ((wide.adjoint() @ wide).subwindow(n) - identity(n, k)).norm()
    v1 = toeplitz.isometry_V(1, n, k)
    unit0 = np.zeros((n + 1, k, k))
    unit0[0] = np.eye(k)
    proj0 = toeplitz.TruncatedOperator(n, k, {0: unit0})
    yield ((v1 @ v1.adjoint()) - (identity(n, k) - proj0)).norm()
    for a in range(0, 4):
        for b in range(0, 4):
            lhs = toeplitz.isometry_V(b, n, k) @ toeplitz.isometry_V(a, n, k)
            yield (lhs - toeplitz.isometry_V(a + b, n, k)).norm()
    # a one-band operator is the direct sum of its blocks: its norm is the
    # largest block norm, here planted at a row past 0
    blocks = np.ones((n, k, k))
    blocks[n // 2] = 3.0
    yield abs(toeplitz.TruncatedOperator(n, k, {1: blocks}).norm() - float(np.linalg.norm(blocks[n // 2], 2)))


def _intertwine(rng, cfg):
    n = max(cfg.n, 16)
    for act in _groupoid_actions(rng):
        for a, x in enumerate(random_complex(rng, act.k, size=6)):
            v = toeplitz.isometry_V(a, n, act.k)
            lhs = v.adjoint() @ toeplitz.rep_pi(x, act, n)
            yield (lhs - toeplitz.rep_pi(act.alpha(a, x), act, n) @ v.adjoint()).norm()


def _random_symbols(rng, count: int, k: int, radius: int) -> list:
    """``count`` random symbols on -radius..radius: each g is in the support
    with probability 0.7 (g = 0 when none is), with a complex Gaussian value.
    The support flags, then the values, come as one block each."""
    support = rng.uniform(size=(count, 2 * radius + 1)) < 0.7
    support[~support.any(axis=1), radius] = True
    values = random_complex(rng, k, size=(count, 2 * radius + 1))
    gs = range(-radius, radius + 1)
    return [
        toeplitz.SymbolFunction(k=k, values={g: v for g, v, kept in zip(gs, vals, keep) if kept})
        for vals, keep in zip(values, support)
    ]


def _symbol_product_interior(rng, cfg):
    act = toeplitz.trivial_action(1)
    n = max(cfg.n, 24)
    margin = 6
    trials = max(cfg.trials // 4, 5)
    for f, h in zip(_random_symbols(rng, trials, 1, 3), _random_symbols(rng, trials, 1, 3)):
        lhs = toeplitz.wiener_hopf(f, act, n) @ toeplitz.wiener_hopf(h, act, n)
        rhs = toeplitz.wiener_hopf(f.convolve(h), act, n)
        yield (lhs - rhs).compress(margin, n - margin).norm()


def _adjoint_symbol(rng, cfg):
    # compressing an adjoint gives the adjoint of the compression: no boundary term
    n = max(cfg.n, 24)
    for act in _groupoid_actions(rng):
        for f in _random_symbols(rng, max(cfg.trials // 8, 3), act.k, 3):
            lhs = toeplitz.wiener_hopf(f, act, n).adjoint()
            yield (lhs - toeplitz.wiener_hopf(f.twisted_reflection(act), act, n)).norm()


def _toeplitz_mutation(rng, cfg):
    n = 16
    act = toeplitz.conjugation_action(random_unitary(rng, 2))
    x = random_complex(rng, 2)
    a = 3
    wrong_v = toeplitz.isometry_V(a, n + a, 2).adjoint()  # transposed shift: wrong direction
    pix = toeplitz.rep_pi(x, act, n + a)
    yield ((wrong_v.adjoint() @ pix @ wrong_v).subwindow(n) - toeplitz.rep_pi(act.alpha(a, x), act, n)).norm()


# ---------------------------------------------------------------------------
# groupoid


def _random_sections(rng, act, window, count: int, points: int, x_bound=None, g_bound=None):
    """``count`` random finitely supported sections, built one at a time as
    they are iterated.  Each of ``points`` points is a unit in 0..x_bound or
    infinity, a g with |g| <= g_bound that keeps the element in the window,
    and a complex Gaussian value; a later point on the same cell wins, as
    with ``set``.  x_bound and g_bound (at most the window's) keep the support
    small enough that iterated products stay inside the window.  The units,
    the g's and the values come as one block each, drawn by this call."""
    x_bound = window.max_x if x_bound is None else x_bound
    g_bound = window.max_g if g_bound is None else g_bound
    x = rng.integers(x_bound + 2, size=(count, points))  # x_bound + 1 stands for infinity
    inf = x == x_bound + 1
    lo = np.where(inf, -g_bound, -np.minimum(x, g_bound))
    hi = np.where(inf, g_bound, np.minimum(g_bound, window.max_x - x))
    cols = rng.integers(lo, hi + 1) + window.max_g
    values = random_complex(rng, act.k, size=(count, points))
    rows = np.where(inf, window.max_x + 1, x)
    return (_section(act, window, rows[t], cols[t], values[t]) for t in range(count))


def _section(act, window, rows, cols, values) -> groupoid.GroupoidSection:
    s = groupoid.GroupoidSection(act, window)
    for row, col, value in zip(rows, cols, values):
        s.values[row, col] = value
    return s


def _section_gap(s, t) -> float:
    cells = s.support() | t.support()
    return _worst(np.linalg.norm(s.values[cells] - t.values[cells], 2, axis=(-2, -1)))


def _groupoid_algebra(rng, cfg):
    # supports stay in units 0..8 with |g| <= 4, so products and R_2-shifts
    # stay in units 0..12 and the Lambda identities are exact at n = 14
    n = 14
    window = groupoid.Window(max_x=20, max_g=n)
    for act in _groupoid_actions(rng):
        v2_adjoint = toeplitz.isometry_V(2, n, act.k).adjoint()
        trials = max(cfg.trials // 2, 10)
        phis = _random_sections(rng, act, window, trials, 4, x_bound=8, g_bound=4)
        psis = _random_sections(rng, act, window, trials, 4, x_bound=8, g_bound=4)
        chis = _random_sections(rng, act, window, trials, 3, x_bound=8, g_bound=4)
        for phi, psi, chi in zip(phis, psis, chis):
            phi_psi = groupoid.convolve(phi, psi)
            phi_star = groupoid.involute(phi)
            lhs = groupoid.convolve(phi_psi, chi)
            rhs = groupoid.convolve(phi, groupoid.convolve(psi, chi))
            associativity = _section_gap(lhs, rhs)
            bound = groupoid.i_norm(phi) * groupoid.i_norm(psi) + ALGEBRA_TOL
            banach = groupoid.i_norm(phi_psi) > bound
            isometry = abs(groupoid.i_norm(phi_star) - groupoid.i_norm(phi)) > ALGEBRA_TOL
            involution = _section_gap(phi, groupoid.involute(phi_star))
            # the twist: Lambda is a *-homomorphism that intertwines R_2 with V_2*
            lam_phi = groupoid.lambda_rep(phi, n)
            multiplicative = (groupoid.lambda_rep(phi_psi, n) - lam_phi @ groupoid.lambda_rep(psi, n)).norm()
            adjoint = (groupoid.lambda_rep(phi_star, n) - lam_phi.adjoint()).norm()
            shift = (groupoid.lambda_rep(groupoid.shift_R(2, phi), n) - v2_adjoint @ lam_phi).norm()
            yield _worst((associativity, involution, multiplicative, adjoint, shift)), banach, isometry


def _lambda_bound(rng, cfg):
    n = 12
    window = groupoid.Window(max_x=n, max_g=n)
    for act in _groupoid_actions(rng):
        for phi in _random_sections(rng, act, window, max(cfg.trials, 20), 5):
            yield groupoid.lambda_rep(phi, n).norm() > groupoid.i_norm(phi) + ALGEBRA_TOL


def _entrywise_gap(lhs, rhs) -> float:
    """The largest entry of |lhs - rhs|, read band by band."""
    return max((float(np.abs(band).max()) for band in (lhs - rhs).bands.values()), default=0.0)


def _central_identity(rng, cfg):
    n = max(cfg.n, 16)
    window = groupoid.Window(max_x=n, max_g=n)
    for act in _groupoid_actions(rng):
        for f in _random_symbols(rng, max(cfg.trials // 2, 10), act.k, 8):
            lhs = groupoid.lambda_rep(groupoid.lift_symbol(f, window, act), n)
            rhs = toeplitz.wiener_hopf(groupoid.hat_symbol(f), act, n)
            yield _entrywise_gap(lhs, rhs)


def _star_hom_interior(rng, cfg):
    n = max(cfg.n, 16)
    window = groupoid.Window(max_x=2 * n, max_g=2 * n)
    act = toeplitz.trivial_action(1)
    trials = max(cfg.trials // 4, 5)
    phis = _random_sections(rng, act, window, trials, 4, x_bound=n, g_bound=4)
    psis = _random_sections(rng, act, window, trials, 4, x_bound=n, g_bound=4)
    for phi, psi in zip(phis, psis):
        margin = int(np.abs(np.nonzero(phi.support() | psi.support())[1] - window.max_g).max())  # <= 4 < n / 2
        lhs = groupoid.lambda_rep(groupoid.convolve(phi, psi), n)
        rhs = groupoid.lambda_rep(phi, n) @ groupoid.lambda_rep(psi, n)
        yield (lhs - rhs).compress(margin, n - margin).norm()


def _units_agree(rng, cfg):
    for x in list(range(0, 15)) + [INF]:
        yield sum(groupoid.in_groupoid(x, g) != fell.omega_qset(fell.discrete(x), g) for g in range(-15, 16))


def _shift_laws(rng, cfg):
    window = groupoid.Window(max_x=14, max_g=14)
    act = toeplitz.trivial_action(1)
    trials = max(cfg.trials // 2, 10)
    # support kept small enough that composed shifts stay in-window
    psis = _random_sections(rng, act, window, trials, 4, x_bound=6, g_bound=4)
    for psi, (a, b) in zip(psis, rng.integers(0, 4, size=(trials, 2)).tolist()):
        identity = _section_gap(psi, groupoid.shift_R(0, psi))
        lhs = groupoid.shift_R(a, groupoid.shift_R(b, psi))
        yield _worst((identity, _section_gap(lhs, groupoid.shift_R(a + b, psi))))


def _hat_laws(rng, cfg):
    (f,) = _random_symbols(rng, 1, 2, 5)
    double = groupoid.hat_symbol(groupoid.hat_symbol(f))
    yield _worst(np.max(np.abs(f(g) - double(g))) for g in set(f.values) | set(double.values))


def _groupoid_mutation(rng, cfg):
    n = 12
    window = groupoid.Window(max_x=n, max_g=n)
    act = toeplitz.trivial_action(1)
    f = toeplitz.SymbolFunction(k=1, values={2: [[1.0]]})  # asymmetric support
    lifted = groupoid.lift_symbol(f, window, act)
    lhs = groupoid.lambda_rep(lifted, n)
    rhs = toeplitz.wiener_hopf(f, act, n)  # hat skipped: no reflection
    yield _entrywise_gap(lhs, rhs)


# ---------------------------------------------------------------------------
# fibers


def _kernel_member(f: "fibers.PiecewisePoly", cut: float) -> "fibers.PiecewisePoly":
    """Flatten each piecewise-linear function of a stack to zero on [0, cut]."""
    breaks = np.union1d(f.breaks, [min(cut, 1.0)])
    return fibers.PiecewisePoly.from_breakpoints(breaks, np.where(breaks <= cut + 1e-15, 0.0, f(breaks)))


def _kernel_identity(rng, cfg):
    trials = max(cfg.trials * 2, 40)
    ns = rng.integers(0, 11, size=trials)
    fs = fibers.random_dyadic_pl(rng, level=4, size=trials)
    bad = np.zeros(trials, dtype=int)
    for n in np.unique(ns).tolist():  # the trials that drew n, as one stack
        pick = ns == n
        f, cut = fs[pick], 2.0 ** (-n)
        member = _kernel_member(f, cut)
        # Ker(alpha_n) -> ideal: the flattened function is in both
        bad[pick] += ~fibers.ideal_contains(n, member, tol=cfg.tol)
        bad[pick] += member.sup_abs(cut) > cfg.tol
        # ideal -> Ker(alpha_n): production membership against the direct-sup oracle
        bad[pick] += fibers.ideal_contains(n, f, tol=cfg.tol) != (f.sup_abs(cut) <= cfg.tol)
    yield from bad.tolist()


def _quotient_oracle(rng, cfg):
    f = fibers.random_dyadic_pl(rng, level=4, size=max(cfg.trials, 30))
    gaps = [np.abs(fibers.quotient_norm(n, f) - f.sup_abs(2.0 ** (-n))) for n in range(0, 11)]
    gaps.append(np.abs(fibers.quotient_norm(INF, f) - np.abs(f(0.0))))
    yield from np.max(gaps, axis=0, initial=0.0).tolist()


def _cstar_seminorm(rng, cfg):
    pairs = fibers.random_dyadic_pl(rng, level=3, size=(max(cfg.trials, 30), 2))  # x then y, trial by trial
    x, y = pairs[:, 0], pairs[:, 1]
    bad = np.zeros(x.shape, dtype=int)
    for p in [0, 1, 3, 7, INF]:
        qx = fibers.quotient_norm(p, x)
        qy = fibers.quotient_norm(p, y)
        bad += fibers.quotient_norm(p, x + y) > qx + qy + SEMINORM_TOL
        bad += fibers.quotient_norm(p, x * y) > qx * qy + SEMINORM_TOL
        bad += np.abs(fibers.quotient_norm(p, x.star() * x) - qx * qx) > SEMINORM_TOL
    yield from bad.tolist()


def _usc_infinity(rng, cfg):
    f = fibers.random_dyadic_pl(rng, level=4, size=max(cfg.trials, 20))
    limit = fibers.quotient_norm(INF, f)
    values = np.array([fibers.quotient_norm(n, f) for n in range(0, 41, 5)])
    # the sequence must be nonincreasing for this action
    rising = (values[:-1] < values[1:] - ROUNDING_TOL).any(axis=0)
    yield from (rising.astype(int) + (values[-1] > limit + cfg.tol)).tolist()


def _fiber_action(rng, cfg):
    trials = max(cfg.trials, 20)
    fs = fibers.random_dyadic_pl(rng, level=3, size=trials)
    gs = rng.integers(-5, 6, size=trials)
    xvs = rng.integers(np.maximum(0, -gs), 8)
    for t, (g, xv) in enumerate(zip(gs.tolist(), xvs.tolist())):
        q = fibers.QuotientElement(x=xv + g, rep=fs[t])
        base = fibers.fiber_action(xv, g, q)
        others = [fibers.fiber_action(xv, g, q, decomposition=(max(g, 0) + e, max(-g, 0) + e)) for e in range(1, 5)]
        gaps = [fibers.quotient_norm(xv, base.rep - other.rep) for other in others]
        yield _worst(gaps), sum(abs(r.seminorm - q.seminorm) > ALGEBRA_TOL for r in [base] + others)


def _dilation(rng, cfg):
    # per trial: the coefficients of x and of y, then 7 support values, as one block
    terms = 2 * TRIG_DEGREE + 1
    re, im = np.moveaxis(rng.standard_normal((max(cfg.trials // 2, 10), 2 * terms + 7, 2)), -1, 0)
    for coeffs in (re + 1j * im).tolist():
        broken = []
        x = fibers.TrigPoly(dict(enumerate(coeffs[:terms], -TRIG_DEGREE)))
        y = fibers.TrigPoly(dict(enumerate(coeffs[terms : 2 * terms], -TRIG_DEGREE)))
        if not fibers.dilation_equal(fibers.DilationElement(0, x), fibers.DilationElement(1, x.dilate(1))):
            broken.append("defining identification broken")
        if fibers.dilation_equal(fibers.DilationElement(0, x), fibers.DilationElement(0, x + y)) and y.coeffs:
            broken.append("distinct payloads compared equal")
        # alpha_5 is isometric: the certified brackets [grid max, norm] of x and alpha_5(x) must overlap
        x5 = x.dilate(5)
        if max(x.grid_max(), x5.grid_max()) > min(x.norm(), x5.norm()) + ALGEBRA_TOL:
            broken.append("level promotion changed the norm")
        # fibers over finite points collapse to a single payload at that level
        supp = dict(zip(range(-3, 4), coeffs[2 * terms :]))
        cert = fibers.fiber_section_F(x, supp, 3)
        if cert.element.level > 3 or not cert.check():
            broken.append("certificate failed")
        cert_inf = fibers.fiber_section_F(x, supp, INF)
        if not cert_inf.check():
            broken.append("infinite-fiber certificate failed")
        if not all(g <= 5 for g, _ in cert.witnesses):  # monotone into larger fibers
            broken.append("monotonicity broken")
        yield broken


def _fibers_mutation(rng, cfg):
    def broken_quotient_norm(n, f):
        return f.sup_abs(2.0 ** (-max(n - 1, 0)))  # sups over twice the window

    f = fibers.random_dyadic_pl(rng, level=3)
    vals = np.where(f.breaks <= 0.25 + 1e-15, 0.0, 1.0 + np.abs(f(f.breaks)))
    member = fibers.PiecewisePoly.from_breakpoints(f.breaks, vals)
    n = 2
    true_zero = fibers.quotient_norm(n, member) <= ALGEBRA_TOL
    broken_zero = broken_quotient_norm(n, member) <= ALGEBRA_TOL
    yield not (true_zero and not broken_zero)


# ---------------------------------------------------------------------------
# homotopy


def unitary_samples(rng, count=50, dim=3):
    """-1, 1, then random Z points, every third with -1 planted in its spectrum."""
    samples = [moebius.zpoint(-np.eye(dim)), moebius.zpoint(np.eye(dim))]
    if count > 2:
        z = moebius.random_zpoint(rng, dim, size=count - 2, boundary=np.arange(2, count) % 3 == 0)
        samples += [moebius.ZPoint(u, z.dec[t]) for t, u in enumerate(z.u)]
    return samples


def _homotopy_halfline(rng, cfg):
    # one draw per sample: its failure messages
    samples = homotopy.halfline_samples(rng, max(cfg.trials, 50))
    yield from homotopy.verify_condition_h(homotopy.make_halfline_homotopy(), samples=samples)["sample_failures"]


def _homotopy_unitary(rng, cfg):
    samples = unitary_samples(rng, count=max(cfg.trials, 50), dim=min(max(cfg.dim, 2), 3))
    yield from homotopy.verify_condition_h(homotopy.make_unitary_homotopy(), samples=samples)["sample_failures"]


def _homotopy_mutants(rng, cfg):
    half = homotopy.verify_condition_h(homotopy.make_halfline_mutant(), samples=homotopy.halfline_samples(rng, 20))
    unit = homotopy.verify_condition_h(homotopy.make_unitary_mutant(), samples=unitary_samples(rng, count=12, dim=2))
    yield half["passed"], unit["passed"]


# ---------------------------------------------------------------------------
# the case table


CASES = {
    case.name: case
    for case in [
        Case("moebius.action_law", _action_law, "(U[+]A)[+]B = U[+](A+B)", "bounded"),
        Case("moebius.cayley_equivariance", _cayley_equivariance, "cayley(A)[+]B = cayley(A+B)", "bounded"),
        Case(
            "moebius.invertibility_margin",
            _invertibility_margin,
            "smallest singular value of BU+2i-B (must stay above tolerance)",
            "margin",
            MARGIN_FLOOR,
        ),
        Case("moebius.z_stability", _z_stability, "{0} translated Z points left Z"),
        Case(
            "moebius.contraction_range",
            _contraction_range,
            "round-trip error; {1} images violated C < B^-1",
            "bounded",
            CONTRACTION_TOL,
        ),
        Case(
            "moebius.contraction_chart",
            _contraction_chart,
            "A(BA+1)^-1 matches psi^-1(psi(A)[+]B)",
            "bounded",
            CONTRACTION_TOL,
        ),
        Case("moebius.pair_roundtrip", _pair_roundtrip, "decode(encode(U)) = U", "bounded", PAIR_TOL),
        Case("moebius.pair_translation", _pair_translation, "U_(E,A)[+]B = U_(E, A+(1-E)B(1-E))", "bounded", PAIR_TOL),
        Case("moebius.qset_a2", _qset_a2, "{0}/{draws} probes disagreed with Q"),
        Case(
            "moebius.separate_points", _separate_points, "{draws} distinct pairs, {0} false equal, {1} without witness"
        ),
        Case(
            "moebius.mutation_sign_flip",
            _moebius_mutation,
            "sign-flipped action reached equivariance error {0:.3e} (must be flagged)",
            "mutant",
            SIGN_FLIP_GAP,
        ),
        Case("jordan.closure_idempotent", _closure_idempotent, _listed("stable closure")),
        Case("jordan.cone_axioms", _cone_axioms, "{0} cone-axiom violations"),
        Case("jordan.mutation_order_sign", _jordan_mutation, "flipped order comparison flagged"),
        Case("fell.qset_vs_membership", _fell_qset, "{0} mismatches"),
        Case("fell.canonical_limits", _fell_limits, "constant -> itself, escaping -> window, alternating -> diverges"),
        Case("fell.orbit_continuity", _fell_orbit_continuity, "translates converge to the translate limit"),
        Case("fell.p_invariance", _fell_p_invariance, "{0} translations left the compactification"),
        Case("fell.mutation_strict_inequality", _fell_mutation, "boundary case distinguishes"),
        Case("toeplitz.covariance", _covariance, "V_a* pi(x) V_a = pi(alpha_a(x))", "bounded", ROUNDING_TOL),
        Case(
            "toeplitz.isometry_laws", _isometry_laws, "shift semigroup laws on the truncation", "bounded", ROUNDING_TOL
        ),
        Case("toeplitz.intertwine", _intertwine, "V_a* x = alpha_a(x) V_a* exactly", "bounded", ROUNDING_TOL),
        Case(
            "toeplitz.symbol_product_interior",
            _symbol_product_interior,
            "Toeplitz semi-multiplicativity away from the boundary",
            "bounded",
            ROUNDING_TOL,
        ),
        Case(
            "toeplitz.adjoint_symbol",
            _adjoint_symbol,
            "W_f* = W_{{f reflected}} on the whole window",
            "bounded",
            ROUNDING_TOL,
        ),
        Case(
            "toeplitz.mutation_shift_direction",
            _toeplitz_mutation,
            "wrong-direction shift covariance residual {0:.3e} (must be flagged)",
            "mutant",
            SHIFT_DIRECTION_GAP,
        ),
        Case(
            "groupoid.algebra",
            _groupoid_algebra,
            "associativity/involution, Lambda(phi*psi) = Lambda(phi)Lambda(psi), Lambda(phi*) = Lambda(phi)*, "
            "Lambda(R_2 phi) = V_2* Lambda(phi); {1} Banach violations, {2} isometry violations",
            "bounded",
            ALGEBRA_TOL,
        ),
        Case("groupoid.lambda_bound", _lambda_bound, "{0} norm-bound violations"),
        Case(
            "groupoid.central_identity", _central_identity, "Lambda(f~) = W_{{f^}} entrywise", "bounded", ROUNDING_TOL
        ),
        Case(
            "groupoid.star_hom_interior",
            _star_hom_interior,
            "Lambda(phi*psi) = Lambda(phi)Lambda(psi) inside the margin",
            "bounded",
            ROUNDING_TOL,
        ),
        Case("groupoid.units_agree", _units_agree, "{0} membership mismatches"),
        Case("groupoid.shift_laws", _shift_laws, "R_0 = id and R_a R_b = R_{{a+b}}", "bounded", ROUNDING_TOL),
        Case("groupoid.hat_laws", _hat_laws, "hat is an involution", "bounded", ZERO_TOL),
        Case(
            "groupoid.mutation_unreflected_hat",
            _groupoid_mutation,
            "skipping the reflection breaks the representation identity by {0:.3e}",
            "mutant",
            UNREFLECTED_GAP,
        ),
        Case("fibers.kernel_identity", _kernel_identity, "{0} failures over {draws} draws"),
        Case(
            "fibers.quotient_oracle", _quotient_oracle, "norm formula matches the direct sup", "bounded", ROUNDING_TOL
        ),
        Case("fibers.cstar_seminorm", _cstar_seminorm, "{0} seminorm violations"),
        Case("fibers.usc_infinity", _usc_infinity, "{0} upper-semicontinuity violations"),
        Case(
            "fibers.action_welldefined",
            _fiber_action,
            "decomposition independence; {1} isometry failures",
            "bounded",
            ALGEBRA_TOL,
        ),
        Case("fibers.dilation", _dilation, _listed("dilation laws hold", lambda ms: sorted(set(ms)))),
        Case(
            "fibers.mutation_wrong_window",
            _fibers_mutation,
            "kernel member separates the correct window from the doubled one",
        ),
        Case("homotopy.halfline", _homotopy_halfline, _listed("all clauses pass", lambda ms: ms[:3])),
        Case("homotopy.unitary", _homotopy_unitary, _listed("all clauses pass", lambda ms: ms[:3])),
        Case(
            "homotopy.mutants_flagged",
            _homotopy_mutants,
            lambda half, unit, **_: f"halfline mutant passed={bool(half)}, unitary mutant passed={bool(unit)}",
        ),
    ]
}


def _run_suite(name: str, cfg: SuiteConfig, skip: str | None = None) -> list[CaseResult]:
    prefix = name + "."
    return [run_case(case, cfg) for key, case in CASES.items() if key.startswith(prefix) and key != skip]


def suite_moebius(cfg: SuiteConfig):
    return _run_suite("moebius", cfg)


def suite_jordan(cfg: SuiteConfig):
    return _run_suite("jordan", cfg)


def suite_fell(cfg: SuiteConfig):
    return _run_suite("fell", cfg)


def suite_toeplitz(cfg: SuiteConfig):
    return _run_suite("toeplitz", cfg)


def suite_groupoid(cfg: SuiteConfig):
    return _run_suite("groupoid", cfg)


def suite_fibers(cfg: SuiteConfig):
    return _run_suite("fibers", cfg)


def suite_homotopy(cfg: SuiteConfig):
    skip = {"halfline": "homotopy.unitary", "unitary": "homotopy.halfline"}.get(cfg.model)
    return _run_suite("homotopy", cfg, skip)


# ---------------------------------------------------------------------------
# driver


SUITES = {
    "moebius": suite_moebius,
    "jordan": suite_jordan,
    "fell": suite_fell,
    "toeplitz": suite_toeplitz,
    "groupoid": suite_groupoid,
    "fibers": suite_fibers,
    "homotopy": suite_homotopy,
}


def run(cfg: SuiteConfig, inject_failure: bool = False) -> dict:
    """Run a suite (or all of them); returns the report dict with cases
    sorted by name.  Wall time is reported for the console but excluded from
    the serialized report so identical configurations emit identical bytes.
    """
    if cfg.suite == "all":
        names = sorted(SUITES)
    elif cfg.suite in SUITES:
        names = [cfg.suite]
    else:
        raise InputValidationError(f"unknown suite {cfg.suite!r}")

    start = time.perf_counter()
    cases: list[CaseResult] = []
    for name in names:
        cases.extend(SUITES[name](cfg))
    if inject_failure:
        cases.append(CaseResult("injected_failure", "fail", 1.0, 0.0, "requested failure"))
    cases.sort(key=lambda c: c.name)
    wall = time.perf_counter() - start

    report = {
        "suite": cfg.suite,
        "config": asdict(cfg),
        "cases": [c.as_dict() for c in cases],
    }
    return {"report": report, "wall_time": wall, "failed": any(c.status == "fail" for c in cases)}
