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

Injective side: A is the trig polynomials sum_m c_m z^m on the circle,
each held as a k = 1 ``toeplitz.SymbolFunction`` with f(m) = c_m, acted on by
alpha_1(f)(z) = f(z^2) (coefficient dilation; injective, unital, not
surjective).  The dilation of the system is represented exactly by
level-tagged pairs (n, x) standing for alpha_n^{-1}(x), identified along
(n, x) ~ (n+1, alpha_1(x)).  Sup norms are certified upper bounds: the
maximum over the 2^10 roots of unity, one inverse FFT of the coefficients
folded modulo 2^10, divided by the Bernstein defect 1 - pi*d/1024 for
degree d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputValidationError
from .fell import INF, discrete_value, integer_value
from .sampling import _shape
from .spectra import _unstack
from .toeplitz import SymbolFunction

DEFAULT_TOL = 1e-9
TRIG_GRID = 1 << 10
MAX_DEGREE = 2  # a product of two piecewise-linear functions, the most any caller forms
MAX_DILATED_WIDTH = 1 << 16  # the widest payload dilate builds; the cases reach 385
MAX_EXPONENT = np.iinfo(np.int64).max  # the largest |exponent| the grid arithmetic holds
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


def _coefficients(f: SymbolFunction) -> np.ndarray:
    """The scalar coefficients of a trig polynomial: a k = 1 symbol's values."""
    if f.k != 1:
        raise InputValidationError(f"a trig polynomial has scalar coefficients, got {f.k}x{f.k} values")
    return f.values[:, 0, 0]


def dilate(n: int, f: SymbolFunction) -> SymbolFunction:
    """alpha_n: z -> z^{2^n}, the coefficient of z^m moved to z^{m 2^n}; exact.  The window grows
    2^n-fold, so a level-n payload holds 2^n times the coefficients of level 0, at most MAX_DILATED_WIDTH."""
    if n < 0:
        raise InputValidationError("the action is a semigroup action: n >= 0")
    if len(f.values) - 1 > (MAX_DILATED_WIDTH - 1) >> n:  # (width - 1) 2^n + 1 > MAX_DILATED_WIDTH
        raise InputValidationError(f"alpha_{n} of a {len(f.values)}-wide window exceeds MAX_DILATED_WIDTH")
    if abs(f.offset) + len(f.values) > MAX_EXPONENT >> n:  # |exponents of the result| < (|offset| + width) 2^n
        raise InputValidationError(f"alpha_{n} of a window at offset {f.offset} exceeds MAX_EXPONENT")
    step = 1 << n
    out = np.zeros(((len(f.values) - 1) * step + 1,) + f.values.shape[1:], dtype=np.complex128)
    out[::step] = f.values
    return SymbolFunction(f.offset * step, out)


def on_grid(f: SymbolFunction) -> np.ndarray:
    """f at the TRIG_GRID roots of unity exp(2 pi i j / TRIG_GRID): one inverse
    FFT of the coefficients folded modulo TRIG_GRID."""
    folded = np.zeros(TRIG_GRID, dtype=np.complex128)
    np.add.at(folded, (f.offset + np.arange(len(f.values))) % TRIG_GRID, _coefficients(f))
    return np.fft.ifft(folded, norm="forward")


def grid_max(f: SymbolFunction) -> float:
    """The maximum of |f| over the TRIG_GRID roots of unity."""
    return float(np.abs(on_grid(f)).max())


def trig_norm(f: SymbolFunction) -> float:
    """Certified upper bound for the sup norm: grid maximum divided by the
    Bernstein defect 1 - pi d / TRIG_GRID for degree d (valid while pi d < TRIG_GRID)."""
    defect = np.pi * np.abs(f.support).max(initial=0) / TRIG_GRID
    if defect >= 0.5:
        raise InputValidationError("degree too high for the certification grid")
    return grid_max(f) / (1.0 - defect)


_ZERO = SymbolFunction(0, [[[0.0]]])  # the zero polynomial: a symbol holds at least one value


# ---------------------------------------------------------------------------
# the dilation of the injective system


@dataclass(frozen=True)
class DilationElement:
    """The pair (n, x) standing for alpha_n^{-1}(x) in the dilated system,
    identified along (n, x) ~ (n + 1, alpha_1(x))."""

    level: int
    payload: SymbolFunction

    def __post_init__(self):
        if self.level < 0:
            raise InputValidationError("level must be a nonnegative integer")


def dilation_promote(e: DilationElement, level: int) -> SymbolFunction:
    """Payload of e rewritten at a deeper level."""
    if level < e.level:
        raise InputValidationError(f"cannot demote level {e.level} to {level}")
    return dilate(level - e.level, e.payload)


def dilation_equal(e1: DilationElement, e2: DilationElement) -> bool:
    """Promote both to the common level and compare coefficients within DEFAULT_TOL."""
    m = max(e1.level, e2.level)
    return bool(np.abs((dilation_promote(e1, m) - dilation_promote(e2, m)).values).max() <= DEFAULT_TOL)


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
        total = DilationElement(0, _ZERO)
        for g, term in self.witnesses:
            if g >= 0:
                piece = DilationElement(g, term)
            else:
                # alpha_g^{-1} = alpha_{-g} is a plain level-0 element
                piece = DilationElement(0, dilate(-g, term))
            m = max(total.level, piece.level)
            total = DilationElement(
                m, dilation_promote(total, m) + dilation_promote(piece, m)
            )
        return dilation_equal(total, self.element)


def fiber_section_F(x: SymbolFunction, f: SymbolFunction, X) -> FiberCertificate:
    """F_{x,f}(X) = sum over g in supp(f) with g in X of f(g) alpha_g^{-1}(x),
    evaluated in the dilation at the deepest contributing level, 0 at least;
    f is a scalar (k = 1) symbol."""
    v = discrete_value(X)
    coeffs = _coefficients(f)
    witnesses = [(g, coeffs[g - f.offset] * x) for g in f.support.tolist() if v == INF or g <= v]
    level = max([0] + [g for g, _ in witnesses])
    payload = _ZERO
    for g, term in witnesses:
        # (g, f(g) x) promoted to the common level: alpha_{level - g}(f(g) x)
        payload = payload + dilate(level - g, term)
    return FiberCertificate(x=v, element=DilationElement(level, payload), witnesses=witnesses)
