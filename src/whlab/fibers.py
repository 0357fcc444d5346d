"""Fiber constructions over the discrete order compactification.

Surjective side: the desk algebra A is the real piecewise functions on [0,1]
with dyadic breakpoints, acted on by alpha_1(f)(t) = f(t/2) (surjective, not
injective).  Elements are stored as piecewise polynomials so that products
stay exactly representable (a product of piecewise-linear functions is
piecewise quadratic); sup norms are exact up to root-finding of the
per-piece derivative.  The fiber over a point X is the quotient A / I_X by
the ideal of elements crushed in norm along translates converging to X, with
quotient norm

    ||x + I_X|| = ||alpha_n(x)||          (X = n finite)
    ||x + I_X|| = lim_n ||alpha_n(x)||    (X = inf; the limit is |x(0)|)

and the groupoid acts by alpha_{(X, g)} = alpha_a o (alpha_b)^{-1} for any
decomposition g = a - b, a preimage under alpha_b being supplied by the
explicit constant-continuation section.  Two cosets over X are equal when
quotient_norm(X, difference of representatives) vanishes.  The fibers are
checked on their own: groupoid sections take matrix values only.

Injective side: A is the trig polynomials on the circle with
alpha_1(f)(z) = f(z^2) (coefficient dilation; injective, unital, not
surjective).  The dilation of the system is represented exactly by
level-tagged pairs (n, x) standing for alpha_n^{-1}(x), identified along
(n, x) ~ (n+1, alpha_1(x)).  Sup norms are certified upper bounds: grid
maximum over 2^10 points divided by the Bernstein defect 1 - pi*d/1024 for
degree d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError, InputValidationError
from .fell import INF, OmegaPoint

DEFAULT_TOL = 1e-9
TRIG_GRID = 1 << 10


def _point_value(x):
    """Accept a discrete OmegaPoint or a raw value (int >= 0 or inf)."""
    if isinstance(x, OmegaPoint):
        if x.model != "discrete":
            raise InputValidationError("fibers live over the discrete model")
        return x.value
    if x == INF:
        return INF
    n = int(x)
    if n < 0 or n != x:
        raise InputValidationError(f"unit value must be a nonnegative integer or inf: {x}")
    return n


# ---------------------------------------------------------------------------
# piecewise polynomials on [0, 1]


class PiecewisePoly:
    """Real piecewise polynomial on [0,1]: breakpoints plus per-piece
    coefficients in the global variable (ascending powers)."""

    __slots__ = ("breaks", "coefs")

    def __init__(self, breaks, coefs):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or len(breaks) < 2:
            raise InputValidationError("need at least two breakpoints")
        if abs(breaks[0]) > 1e-15 or abs(breaks[-1] - 1.0) > 1e-15:
            raise InputValidationError("breakpoints must span [0, 1]")
        if np.any(np.diff(breaks) <= 0):
            raise InputValidationError("breakpoints must be strictly increasing")
        if len(coefs) != len(breaks) - 1:
            raise InputValidationError("one coefficient array per piece required")
        self.breaks = breaks
        self.coefs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coefs]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_breakpoints(cls, breaks, vals) -> "PiecewisePoly":
        """Piecewise-linear interpolant through (breaks[i], vals[i])."""
        breaks = np.asarray(breaks, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if breaks.shape != vals.shape:
            raise InputValidationError("breaks and vals must have equal length")
        coefs = []
        for i in range(len(breaks) - 1):
            b0, b1 = breaks[i], breaks[i + 1]
            v0, v1 = vals[i], vals[i + 1]
            slope = (v1 - v0) / (b1 - b0)
            coefs.append(np.array([v0 - slope * b0, slope]))
        return cls(breaks, coefs)

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls([0.0, 1.0], [np.zeros(1)])

    @classmethod
    def const(cls, c: float) -> "PiecewisePoly":
        return cls([0.0, 1.0], [np.array([float(c)])])

    # -- evaluation ---------------------------------------------------------

    def _piece_index(self, t: float) -> int:
        i = int(np.searchsorted(self.breaks, t, side="right")) - 1
        return min(max(i, 0), len(self.coefs) - 1)

    def __call__(self, t: float) -> float:
        return float(P.polyval(t, self.coefs[self._piece_index(t)]))

    # -- algebra ------------------------------------------------------------

    def _aligned(self, other: "PiecewisePoly"):
        breaks = np.union1d(self.breaks, other.breaks)
        return breaks, self._refine(breaks), other._refine(breaks)

    def _refine(self, breaks: np.ndarray):
        out = []
        for i in range(len(breaks) - 1):
            mid = 0.5 * (breaks[i] + breaks[i + 1])
            out.append(self.coefs[self._piece_index(mid)])
        return out

    def __add__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            other = PiecewisePoly.const(float(other))
        breaks, a, b = self._aligned(other)
        return PiecewisePoly(breaks, [P.polyadd(x, y) for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return PiecewisePoly(self.breaks, [float(other) * c for c in self.coefs])
        breaks, a, b = self._aligned(other)
        return PiecewisePoly(breaks, [P.polymul(x, y) for x, y in zip(a, b)])

    __rmul__ = __mul__

    def star(self) -> "PiecewisePoly":
        """Involution; the identity map on real scalars."""
        return self

    # -- norms --------------------------------------------------------------

    def sup_abs(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Exact sup of |f| over [lo, hi]: piece endpoints plus interior
        stationary points of each polynomial piece."""
        if not 0.0 <= lo < hi <= 1.0 + 1e-15:
            raise InputValidationError(f"bad subinterval [{lo}, {hi}]")
        best = 0.0
        for i, c in enumerate(self.coefs):
            a = max(lo, float(self.breaks[i]))
            b = min(hi, float(self.breaks[i + 1]))
            if a >= b:
                continue
            best = max(best, abs(P.polyval(a, c)), abs(P.polyval(b, c)))
            if len(c) > 2:
                for r in P.polyroots(P.polyder(c)):
                    if abs(r.imag) < 1e-10 and a < r.real < b:
                        best = max(best, abs(P.polyval(r.real, c)))
        return float(best)

    def value_at_zero(self) -> float:
        return float(P.polyval(0.0, self.coefs[0]))


def random_dyadic_pl(rng: np.random.Generator, level: int = 4, scale: float = 1.0) -> PiecewisePoly:
    """Random piecewise-linear function on the dyadic grid of the given level."""
    breaks = np.linspace(0.0, 1.0, (1 << level) + 1)
    vals = scale * rng.standard_normal(len(breaks))
    return PiecewisePoly.from_breakpoints(breaks, vals)


# ---------------------------------------------------------------------------
# the surjective desk action alpha_1(f)(t) = f(t/2)


def halving_apply(n: int, f: PiecewisePoly) -> PiecewisePoly:
    """alpha_n(f)(t) = f(t / 2^n), exact on the representation."""
    if n < 0:
        raise InputValidationError("the action is a semigroup action: n >= 0")
    if n == 0:
        return f
    scale = float(2 ** n)
    cut = 1.0 / scale
    breaks = [0.0]
    coefs = []
    for i in range(len(f.breaks) - 1):
        b0 = float(f.breaks[i])
        b1 = float(f.breaks[i + 1])
        if b0 >= cut - 1e-18:
            break
        hi = min(b1, cut)
        c = f.coefs[i]
        # substitute t -> t/2^n in global coordinates
        scaled = np.array([ck / scale**k for k, ck in enumerate(c)])
        breaks.append(min(hi * scale, 1.0))
        coefs.append(scaled)
    if abs(breaks[-1] - 1.0) > 1e-15:
        breaks[-1] = 1.0
    return PiecewisePoly(np.array(breaks), coefs)


def halving_section(n: int, f: PiecewisePoly) -> PiecewisePoly:
    """An explicit preimage under alpha_n: squeeze f into [0, 2^{-n}] and
    continue with the constant f(1).  Any section works; the fiber action
    quotients out the ambiguity."""
    if n < 0:
        raise InputValidationError("n >= 0")
    out = f
    for _ in range(n):
        out = _halving_section_once(out)
    return out


def _halving_section_once(f: PiecewisePoly) -> PiecewisePoly:
    breaks = [float(b) / 2.0 for b in f.breaks]
    coefs = []
    for c in f.coefs:
        coefs.append(np.array([ck * (2.0 ** k) for k, ck in enumerate(c)]))
    tail = f(1.0)
    breaks.append(1.0)
    coefs.append(np.array([tail]))
    return PiecewisePoly(np.array(breaks), coefs)


def sup_norm(f: PiecewisePoly) -> float:
    return f.sup_abs(0.0, 1.0)


# ---------------------------------------------------------------------------
# quotient fibers


def quotient_norm(x, f: PiecewisePoly) -> float:
    """||f + I_X||: apply alpha_n and take the sup for finite X = n; at the
    point at infinity the nonincreasing sequence ||alpha_n(f)|| converges to
    |f(0)|, which is the closed form used."""
    v = _point_value(x)
    if v == INF:
        return abs(f.value_at_zero())
    return sup_norm(halving_apply(v, f))


def ideal_contains(x, f: PiecewisePoly, tol: float = DEFAULT_TOL) -> bool:
    return quotient_norm(x, f) <= tol


@dataclass
class QuotientElement:
    """A coset representative in the fiber A / I_X, with its seminorm cached."""

    x: object
    rep: PiecewisePoly
    seminorm: float = field(default=None)

    def __post_init__(self):
        self.x = _point_value(self.x)
        if self.seminorm is None:
            self.seminorm = quotient_norm(self.x, self.rep)


def fiber_action(x, g: int, q: QuotientElement, decomposition=None) -> QuotientElement:
    """alpha_{(X, g)}: A_{X.g} -> A_X through any decomposition g = a - b.

    The representative is pulled back through the explicit section of
    alpha_b and pushed forward by alpha_a; the result is independent of the
    decomposition modulo the ideal, which is what QuotientElement equality
    means.
    """
    v = _point_value(x)
    if not (v == INF or v + g >= 0):
        raise DomainError(f"({x}, {g}) is not a groupoid element")
    src = INF if v == INF else v + g
    if q.x != src:
        raise InputValidationError(f"element lives over {q.x}, expected {src}")
    if decomposition is None:
        a, b = max(g, 0), max(-g, 0)
    else:
        a, b = decomposition
        if a < 0 or b < 0 or a - b != g:
            raise InputValidationError(f"bad decomposition {decomposition} of {g}")
    rep = halving_apply(a, halving_section(b, q.rep))
    return QuotientElement(x=v, rep=rep)


# ---------------------------------------------------------------------------
# trig polynomials and the injective desk action alpha_1(f)(z) = f(z^2)


class TrigPoly:
    """Trigonometric polynomial sum_m c_m z^m on the unit circle."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        for m, c in (coeffs or {}).items():
            c = complex(c)
            if c != 0:
                self.coeffs[int(m)] = c

    @classmethod
    def const(cls, c) -> "TrigPoly":
        return cls({0: c})

    @property
    def degree(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return TrigPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) - c
        return TrigPoly(out)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TrigPoly({m: other * c for m, c in self.coeffs.items()})
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1 + m2
                out[m] = out.get(m, 0.0) + c1 * c2
        return TrigPoly(out)

    __rmul__ = __mul__

    def star(self) -> "TrigPoly":
        """Pointwise complex conjugate: c_m -> conj(c_{-m})."""
        return TrigPoly({-m: np.conj(c) for m, c in self.coeffs.items()})

    def __call__(self, z: complex) -> complex:
        return sum(c * z**m for m, c in self.coeffs.items())

    def dilate(self, n: int) -> "TrigPoly":
        """alpha_n: z -> z^{2^n}, i.e. index dilation by 2^n; exact."""
        if n < 0:
            raise InputValidationError("the action is a semigroup action: n >= 0")
        factor = 1 << n
        return TrigPoly({m * factor: c for m, c in self.coeffs.items()})

    def grid_max(self, grid: int = TRIG_GRID) -> float:
        if not self.coeffs:
            return 0.0
        theta = 2.0 * np.pi * np.arange(grid) / grid
        z = np.exp(1j * theta)
        vals = np.zeros(grid, dtype=np.complex128)
        for m, c in self.coeffs.items():
            vals += c * z**m
        return float(np.max(np.abs(vals)))

    def norm(self, grid: int = TRIG_GRID) -> float:
        """Certified upper bound for the sup norm: grid maximum divided by
        the Bernstein defect 1 - pi d / grid (valid while pi d < grid)."""
        base = self.grid_max(grid)
        defect = np.pi * self.degree / grid
        if defect >= 0.5:
            raise InputValidationError("degree too high for the certification grid")
        return base / (1.0 - defect)

    def coeff_distance(self, other: "TrigPoly") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(m, 0.0) - other.coeffs.get(m, 0.0)) for m in keys),
            default=0.0,
        )


def random_trig(rng: np.random.Generator, degree: int = 3, scale: float = 1.0) -> TrigPoly:
    coeffs = {}
    for m in range(-degree, degree + 1):
        coeffs[m] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
    return TrigPoly(coeffs)


# ---------------------------------------------------------------------------
# the dilation of the injective system


@dataclass(frozen=True)
class DilationElement:
    """The pair (n, x) standing for alpha_n^{-1}(x) in the dilated system,
    identified along (n, x) ~ (n + 1, alpha_1(x))."""

    level: int
    payload: TrigPoly

    def __post_init__(self):
        if self.level < 0:
            raise InputValidationError("level must be a nonnegative integer")


def dilation_embed(n: int, x: TrigPoly) -> DilationElement:
    return DilationElement(level=int(n), payload=x)


def dilation_promote(e: DilationElement, level: int) -> TrigPoly:
    """Payload of e rewritten at a deeper level."""
    if level < e.level:
        raise InputValidationError(f"cannot demote level {e.level} to {level}")
    return e.payload.dilate(level - e.level)


def dilation_equal(e1: DilationElement, e2: DilationElement, tol: float = DEFAULT_TOL) -> bool:
    """Promote both to the common level and compare coefficients."""
    m = max(e1.level, e2.level)
    return dilation_promote(e1, m).coeff_distance(dilation_promote(e2, m)) <= tol


def dilation_norm(e: DilationElement) -> float:
    """Injective *-homomorphisms are isometric, so the norm is the payload's
    (the coefficient dilation indeed never changes the sup norm)."""
    return e.payload.norm()


@dataclass
class FiberCertificate:
    """A fiber element over X presented as a combination of generators
    alpha_g^{-1}(x) with witness levels g in X."""

    x: object
    element: DilationElement
    witnesses: list

    def check(self, tol: float = DEFAULT_TOL) -> bool:
        v = _point_value(self.x)
        for g, _ in self.witnesses:
            if not (v == INF or g <= v):
                return False
        total = DilationElement(0, TrigPoly())
        for g, term in self.witnesses:
            if g >= 0:
                piece = DilationElement(g, term)
            else:
                # alpha_g^{-1} = alpha_{-g} is a plain level-0 element
                piece = DilationElement(0, term.dilate(-g))
            m = max(total.level, piece.level)
            total = DilationElement(
                m, dilation_promote(total, m) + dilation_promote(piece, m)
            )
        return dilation_equal(total, self.element, tol=tol)


def fiber_section_F(x: TrigPoly, f: dict, X) -> FiberCertificate:
    """F_{x,f}(X) = sum over g in supp(f) with g in X of f(g) alpha_g^{-1}(x),
    evaluated in the dilation at the deepest contributing level."""
    v = _point_value(X)
    contributing = [(int(g), complex(c)) for g, c in f.items() if c != 0 and (v == INF or g <= v)]
    if not contributing:
        return FiberCertificate(x=v, element=DilationElement(0, TrigPoly()), witnesses=[])
    level = max(max(g for g, _ in contributing), 0)
    payload = TrigPoly()
    witnesses = []
    for g, c in contributing:
        # (g, x) promoted to the common level: alpha_{level - g}(x)
        payload = payload + c * x.dilate(level - g)
        witnesses.append((g, c * x))
    return FiberCertificate(x=v, element=DilationElement(level, payload), witnesses=witnesses)
