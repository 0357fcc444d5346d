"""Fiber constructions over the discrete order compactification.

Surjective side: the desk algebra A is the real piecewise functions on [0,1]
with dyadic breakpoints, acted on by alpha_1(f)(t) = f(t/2) (surjective, not
injective).  Elements are stored as piecewise polynomials so that products
stay exactly representable: a ``PiecewisePoly`` is its breakpoints, shape
(m + 1,), plus one coefficient array, shape (m, MAX_DEGREE + 1), holding each
piece's ascending coefficients in the global variable, zero-padded.  The
degree cap is 2, the degree of a product of two piecewise-linear functions;
anything above it is rejected.  Sup norms are exact up to rounding: each
quadratic piece has one stationary point, -c1 / (2 c2).  The fiber over a
point X is the quotient A / I_X by the ideal of elements crushed in norm
along translates converging to X, with quotient norm

    ||x + I_X|| = ||alpha_n(x)||          (X = n finite)
    ||x + I_X|| = lim_n ||alpha_n(x)||    (X = inf; the limit is |x(0)|)

and the groupoid acts by alpha_{(X, g)} = alpha_a o (alpha_b)^{-1} for any
decomposition g = a - b, a preimage under alpha_b being supplied by the
explicit constant-continuation section.  Two cosets over X are equal when
quotient_norm(X, difference of representatives) vanishes.  The fibers are
checked on their own: groupoid sections take matrix values only.

Stacks: one ``PiecewisePoly`` may hold a stack of functions on one
breakpoint vector, with coefficients of shape (..., m, MAX_DEGREE + 1).
Arithmetic, evaluation, ``sup_abs``, ``halving_apply``, ``quotient_norm``
and ``ideal_contains`` act per function, with the same float operations as
on each function alone; one function gets a float (or bool) where a stack
gets an array.  An operation with a stack needs shared breakpoints, and two
stacks one shape; anything else is a dimension mismatch.  The section and
the fiber action take one function.  ``random_dyadic_pl(..., size=T)`` draws
the T functions one after another, as T calls would.

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

from .errors import DomainError, InputValidationError
from .fell import INF, discrete_value, integer_value
from .sampling import _shape
from .spectra import _unstack

DEFAULT_TOL = 1e-9
TRIG_GRID = 1 << 10
MAX_DEGREE = 2  # a product of two piecewise-linear functions, the most any caller forms
_POWERS = np.arange(MAX_DEGREE + 1)


# ---------------------------------------------------------------------------
# piecewise polynomials on [0, 1]


def _horner(coefs: np.ndarray, t) -> np.ndarray:
    """Each row of ascending coefficients evaluated at the matching t."""
    out = coefs[..., MAX_DEGREE]
    for k in range(MAX_DEGREE - 1, -1, -1):
        out = coefs[..., k] + out * t
    return out


_SHARED_BREAKS = "dimension mismatch: a stack of functions needs the breakpoints of its operands"


class PiecewisePoly:
    """Real piecewise polynomial on [0,1] of degree <= MAX_DEGREE, or a stack
    of them on one breakpoint vector: the breakpoints plus a
    (..., pieces, MAX_DEGREE + 1) array of coefficients in the global variable
    (ascending powers), whose leading axes are the stack's ``shape``."""

    __slots__ = ("breaks", "coefs")

    def __init__(self, breaks, coefs):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or len(breaks) < 2:
            raise InputValidationError("need at least two breakpoints")
        if abs(breaks[0]) > 1e-15 or abs(breaks[-1] - 1.0) > 1e-15:
            raise InputValidationError("breakpoints must span [0, 1]")
        if (breaks[1:] <= breaks[:-1]).any():
            raise InputValidationError("breakpoints must be strictly increasing")
        coefs = np.asarray(coefs, dtype=float)
        if coefs.shape[-2:] != (len(breaks) - 1, MAX_DEGREE + 1):
            raise InputValidationError(f"one row of {MAX_DEGREE + 1} coefficients per piece required")
        self.breaks = breaks
        self.coefs = coefs

    @classmethod
    def from_breakpoints(cls, breaks, vals) -> "PiecewisePoly":
        """Piecewise-linear interpolant through (breaks[i], vals[..., i]): a
        stack when vals has leading axes."""
        breaks = np.asarray(breaks, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if vals.shape[-1:] != breaks.shape:
            raise InputValidationError("breaks and vals must have equal length")
        slope = (vals[..., 1:] - vals[..., :-1]) / (breaks[1:] - breaks[:-1])
        return cls(breaks, np.stack([vals[..., :-1] - slope * breaks[:-1], slope, np.zeros_like(slope)], axis=-1))

    @property
    def shape(self) -> tuple:
        """The stack shape; () for one function."""
        return self.coefs.shape[:-2]

    def __getitem__(self, index) -> "PiecewisePoly":
        """The function or sub-stack at ``index`` of the stack axes."""
        return PiecewisePoly(self.breaks, self.coefs[index])

    def _piece_index(self, t) -> np.ndarray:
        """The piece holding t: the number of inner breakpoints at or below it."""
        return np.searchsorted(self.breaks[1:-1], t, side="right")

    def __call__(self, t):
        """f(t) for a number t, or elementwise for an array; a stack puts its
        axes first."""
        t = np.asarray(t, dtype=float)
        return _unstack(_horner(self.coefs[..., self._piece_index(t), :], t))

    def _aligned(self, other: "PiecewisePoly"):
        """Common breakpoints and both coefficient arrays on them.  Two single
        functions refine to the union of their breakpoints; an operation with
        a stack needs shared breakpoints, and two stacks need one shape."""
        if self.shape and other.shape and self.shape != other.shape:
            raise InputValidationError(f"dimension mismatch: stacks of shapes {self.shape} and {other.shape}")
        if np.array_equal(self.breaks, other.breaks):
            return self.breaks, self.coefs, other.coefs
        if self.shape or other.shape:
            raise InputValidationError(_SHARED_BREAKS)
        breaks = np.union1d(self.breaks, other.breaks)
        return breaks, self._refine(breaks), other._refine(breaks)

    def _refine(self, breaks: np.ndarray) -> np.ndarray:
        return self.coefs[self._piece_index(0.5 * (breaks[:-1] + breaks[1:]))]

    def __add__(self, other: "PiecewisePoly"):
        breaks, a, b = self._aligned(other)
        return PiecewisePoly(breaks, a + b)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return PiecewisePoly(self.breaks, float(other) * self.coefs)
        breaks, a, b = self._aligned(other)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (2 * MAX_DEGREE + 1,))
        for k in _POWERS:
            out[..., k : k + MAX_DEGREE + 1] += a[..., k : k + 1] * b
        if out[..., MAX_DEGREE + 1 :].any():
            raise InputValidationError(f"product of degree above the cap {MAX_DEGREE}")
        return PiecewisePoly(breaks, out[..., : MAX_DEGREE + 1])

    __rmul__ = __mul__

    def star(self) -> "PiecewisePoly":
        """Involution; the identity map on real scalars."""
        return self

    def sup_abs(self, hi: float = 1.0):
        """Exact sup of |f| over [0, hi]: piece endpoints plus the vertex
        -c1 / (2 c2) of each quadratic piece that falls inside it; an array
        of them for a stack."""
        if not 0.0 < hi <= 1.0 + 1e-15:
            raise InputValidationError(f"bad subinterval [0, {hi}]")
        a = np.maximum(0.0, self.breaks[:-1])
        b = np.minimum(hi, self.breaks[1:])
        live = a < b
        a, b, c = a[live], b[live], self.coefs[..., live, :]
        quadratic = c[..., 2] != 0
        vertex = -c[..., 1] / np.where(quadratic, 2.0 * c[..., 2], 1.0)
        inside = quadratic & (a < vertex) & (vertex < b)
        points = np.array(np.broadcast_arrays(a, b, np.where(inside, vertex, a)))
        return _unstack(np.abs(_horner(c, points)).max(axis=(0, -1), initial=0.0))


def random_dyadic_pl(rng: np.random.Generator, level: int = 4, size=None) -> PiecewisePoly:
    """Random piecewise-linear function on the dyadic grid of the given level;
    a stack of the given size draws its functions one after another, as that
    many calls would."""
    breaks = np.arange((1 << level) + 1) / (1 << level)  # exact, as linspace's would be
    vals = rng.standard_normal(_shape(size) + breaks.shape)
    return PiecewisePoly.from_breakpoints(breaks, vals)


# ---------------------------------------------------------------------------
# the surjective desk action alpha_1(f)(t) = f(t/2)


def halving_apply(n: int, f: PiecewisePoly) -> PiecewisePoly:
    """alpha_n(f)(t) = f(t / 2^n), exact on the representation: the pieces
    that start below 2^-n, stretched onto [0, 1]."""
    if n < 0:
        raise InputValidationError("the action is a semigroup action: n >= 0")
    # ldexp scales by powers of two exactly, and 2^-n underflows to 0 instead of overflowing
    pieces = 1 + np.count_nonzero(f.breaks[1:-1] < np.ldexp(1.0, -n))  # the piece at 0 always reaches in
    breaks = np.concatenate(([0.0], np.ldexp(f.breaks[1:pieces], n), [1.0]))
    return PiecewisePoly(breaks, np.ldexp(f.coefs[..., :pieces, :], -n * _POWERS))


def halving_section(n: int, f: PiecewisePoly) -> PiecewisePoly:
    """An explicit preimage under alpha_n: squeeze f into [0, 2^{-n}] and
    continue with the constant f(1) on n pieces [2^{-k}, 2^{1-k}].  Any
    section works; the fiber action quotients out the ambiguity."""
    if n < 0:
        raise InputValidationError("n >= 0")
    tail = np.zeros((n, MAX_DEGREE + 1))
    tail[:, 0] = f(1.0)
    breaks = np.concatenate((np.ldexp(f.breaks, -n), np.ldexp(1.0, np.arange(1 - n, 1))))
    return PiecewisePoly(breaks, np.concatenate((np.ldexp(f.coefs, n * _POWERS), tail)))


# ---------------------------------------------------------------------------
# quotient fibers


def quotient_norm(x, f: PiecewisePoly):
    """||f + I_X||: apply alpha_n and take the sup for finite X = n; at the
    point at infinity the nonincreasing sequence ||alpha_n(f)|| converges to
    |f(0)|, which is the closed form used.  An array of them for a stack."""
    v = discrete_value(x)
    if v == INF:
        return abs(f(0.0))
    return halving_apply(v, f).sup_abs()


def ideal_contains(x, f: PiecewisePoly, tol: float = DEFAULT_TOL):
    """Whether f lies in I_X within tol; a bool array for a stack."""
    return quotient_norm(x, f) <= tol


@dataclass
class QuotientElement:
    """A coset representative in the fiber A / I_X, with its seminorm cached."""

    x: object
    rep: PiecewisePoly
    seminorm: float = field(init=False)

    def __post_init__(self):
        self.x = discrete_value(self.x)
        self.seminorm = quotient_norm(self.x, self.rep)


def fiber_action(x, g: int, q: QuotientElement, decomposition=None) -> QuotientElement:
    """alpha_{(X, g)}: A_{X.g} -> A_X through any decomposition g = a - b.

    The representative is pulled back through the explicit section of
    alpha_b and pushed forward by alpha_a; the result is independent of the
    decomposition modulo the ideal, which is what QuotientElement equality
    means.
    """
    v = discrete_value(x)
    if not (v == INF or v + g >= 0):
        raise DomainError(f"({x}, {g}) is not a groupoid element")
    src = INF if v == INF else v + g
    if q.x != src:
        raise InputValidationError(f"element lives over {q.x}, expected {src}")
    if decomposition is None:
        a, b = max(g, 0), max(-g, 0)
    else:
        a, b = (integer_value(m) for m in decomposition)
        if a < 0 or b < 0 or a - b != g:
            raise InputValidationError(f"bad decomposition {decomposition} of {g}")
    rep = halving_apply(a, halving_section(b, q.rep))
    return QuotientElement(x=v, rep=rep)


# ---------------------------------------------------------------------------
# trig polynomials and the injective desk action alpha_1(f)(z) = f(z^2)


class TrigPoly:
    """Trigonometric polynomial sum_m c_m z^m on the unit circle; each exponent
    must be an integer (``fell.integer_value``)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        for m, c in (coeffs or {}).items():
            c = complex(c)
            if c != 0:
                # the operations below build int keys, which need no call
                self.coeffs[m if type(m) is int else integer_value(m)] = c

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

    def grid_max(self) -> float:
        """The maximum of |f| over the TRIG_GRID roots of unity."""
        if not self.coeffs:
            return 0.0
        theta = 2.0 * np.pi * np.arange(TRIG_GRID) / TRIG_GRID
        z = np.exp(1j * theta)
        vals = np.zeros(TRIG_GRID, dtype=np.complex128)
        for m, c in self.coeffs.items():
            vals += c * z**m
        return float(np.max(np.abs(vals)))

    def norm(self) -> float:
        """Certified upper bound for the sup norm: grid maximum divided by
        the Bernstein defect 1 - pi d / TRIG_GRID (valid while pi d < TRIG_GRID)."""
        base = self.grid_max()
        defect = np.pi * self.degree / TRIG_GRID
        if defect >= 0.5:
            raise InputValidationError("degree too high for the certification grid")
        return base / (1.0 - defect)

    def coeff_distance(self, other: "TrigPoly") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max(
            (abs(self.coeffs.get(m, 0.0) - other.coeffs.get(m, 0.0)) for m in keys),
            default=0.0,
        )


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


def dilation_promote(e: DilationElement, level: int) -> TrigPoly:
    """Payload of e rewritten at a deeper level."""
    if level < e.level:
        raise InputValidationError(f"cannot demote level {e.level} to {level}")
    return e.payload.dilate(level - e.level)


def dilation_equal(e1: DilationElement, e2: DilationElement) -> bool:
    """Promote both to the common level and compare coefficients within DEFAULT_TOL."""
    m = max(e1.level, e2.level)
    return dilation_promote(e1, m).coeff_distance(dilation_promote(e2, m)) <= DEFAULT_TOL


@dataclass
class FiberCertificate:
    """A fiber element over X presented as a combination of generators
    alpha_g^{-1}(x) with witness levels g in X."""

    x: object
    element: DilationElement
    witnesses: list

    def check(self) -> bool:
        v = discrete_value(self.x)
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
        return dilation_equal(total, self.element)


def fiber_section_F(x: TrigPoly, f: dict, X) -> FiberCertificate:
    """F_{x,f}(X) = sum over g in supp(f) with g in X of f(g) alpha_g^{-1}(x),
    evaluated in the dilation at the deepest contributing level."""
    v = discrete_value(X)
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
