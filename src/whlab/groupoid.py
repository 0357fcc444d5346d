"""Convolution algebra of the desk-scale Wiener-Hopf groupoid for P = N in Z.

The unit space is the discrete order compactification {0, 1, 2, ...} u {inf}
(the value n stands for the set (-inf..n] in Z, inf for Z itself); the
groupoid is G = {(X, g) : X.g stays in the space}, concretely x + g >= 0 for
finite x.  Sections are finitely supported fiber-valued functions on G with
counting-measure convolution

    (phi * psi)(X, s) = sum_t phi(X, t) . alpha_{(X,t)}( psi(X.t, s - t) ),

involution phi*(X, s) = alpha_{(X,s)}( phi(X.s, -s)* ), the I-norm (max of
row/column l^1 fiber-norm sums over units), the lift f~ and hat f^ of a
symbol, the shifts R_a, and the induced representation Lambda at the base
point X0 = 0, whose truncated matrix has block alpha_b(phi(b, a - b)) at row
b, column a.

Window discipline: every section carries an explicit window certifying where
its values are known (zero off the support); operations whose result needs a
point outside the window fail loudly with the overflowing element instead of
silently truncating.  The point at infinity is a distinguished window symbol;
sums over its full-line fiber are finite because supports are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .toeplitz import EndomorphismAction, SymbolFunction, TruncatedOperator, trivial_action

INF = math.inf


def in_groupoid(x, g: int) -> bool:
    """(X, g) is a groupoid element iff X.g stays in the unit space; for the
    discrete model that is x + g >= 0, equivalently g^{-1} in X."""
    return x == INF or x + g >= 0


@dataclass(frozen=True)
class GroupoidElement:
    """A pair (X, g) with X the value of a discrete unit and g an integer."""

    x: object  # int >= 0 or math.inf
    g: int

    def __post_init__(self):
        if self.x != INF and (self.x < 0 or int(self.x) != self.x):
            raise InputValidationError(f"unit value must be a nonnegative integer or inf: {self.x}")
        if not in_groupoid(self.x, self.g):
            raise InputValidationError(f"({self.x}, {self.g}) leaves the unit space")

    @property
    def source(self):
        """s(X, g) = X.g."""
        return INF if self.x == INF else self.x + self.g

    def inverse(self) -> "GroupoidElement":
        return GroupoidElement(self.source, -self.g)


@dataclass(frozen=True)
class Window:
    """Bound on section supports: both the range and the source of an element
    must lie in {0..max_x} (or at infinity when allowed), and |g| <= max_g."""

    max_x: int
    max_g: int
    include_inf: bool = True

    def contains(self, e: GroupoidElement) -> bool:
        if abs(e.g) > self.max_g:
            return False
        if e.x == INF:
            return self.include_inf
        return e.x <= self.max_x and e.source <= self.max_x

    def unit_values(self):
        vals = list(range(self.max_x + 1))
        if self.include_inf:
            vals.append(INF)
        return vals


class MatrixBundle:
    """Trivial fiber bundle with fiber M_k and groupoid action alpha_g from an
    endomorphism action (negative g only when the action is automorphic)."""

    def __init__(self, act: EndomorphismAction):
        self.action = act
        self.k = act.k

    def zero(self, x):
        return np.zeros((self.k, self.k), dtype=np.complex128)

    def is_zero(self, x, v) -> bool:
        return not np.any(v)

    def mul(self, x, u, v):
        return u @ v

    def star(self, x, u):
        return np.asarray(u).conj().T

    def norm(self, x, u) -> float:
        return float(np.linalg.norm(np.asarray(u, dtype=np.complex128), 2))

    def act(self, x, g: int, v):
        """alpha_{(X,g)} applied to a value over X.g, landing over X."""
        return self.action.apply(g, v)


def trivial_bundle(k: int) -> MatrixBundle:
    return MatrixBundle(trivial_action(k))


@dataclass
class GroupoidSection:
    """Finitely supported fiber-valued function on the groupoid."""

    bundle: object
    window: Window
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for e, v in self.values.items():
            if not isinstance(e, GroupoidElement):
                e = GroupoidElement(*e)
            if not self.window.contains(e):
                raise WindowOverflowError(f"support element ({e.x}, {e.g}) outside window")
            cleaned[e] = v
        self.values = cleaned

    @property
    def support(self) -> list:
        return sorted(
            (e for e, v in self.values.items() if not self.bundle.is_zero(e.x, v)),
            key=lambda e: (e.x == INF, e.x if e.x != INF else -1, e.g),
        )

    def __call__(self, e) -> object:
        if not isinstance(e, GroupoidElement):
            e = GroupoidElement(*e)
        v = self.values.get(e)
        return v if v is not None else self.bundle.zero(e.x)

    def set(self, e, v) -> None:
        if not isinstance(e, GroupoidElement):
            e = GroupoidElement(*e)
        if not self.window.contains(e):
            raise WindowOverflowError(f"element ({e.x}, {e.g}) outside window")
        self.values[e] = v


def convolve(phi: GroupoidSection, psi: GroupoidSection, window: Window | None = None) -> GroupoidSection:
    """Counting-measure convolution; support-driven, so the integral over each
    unit fiber (including the one at infinity) is a finite sum.  Both sections
    must carry the same action (equal generators)."""
    if phi.bundle is not psi.bundle and not np.array_equal(
        phi.bundle.action.generator, psi.bundle.action.generator
    ):
        raise InputValidationError("sections live over different actions")
    window = window or phi.window
    out = GroupoidSection(phi.bundle, window)
    bundle = phi.bundle
    for e1, v1 in phi.values.items():
        if bundle.is_zero(e1.x, v1):
            continue
        for e2, v2 in psi.values.items():
            if e2.x != e1.source or bundle.is_zero(e2.x, v2):
                continue
            target = GroupoidElement(e1.x, e1.g + e2.g)
            if not window.contains(target):
                raise WindowOverflowError(
                    f"product support element ({target.x}, {target.g}) overflows the window"
                )
            term = bundle.mul(e1.x, v1, bundle.act(e1.x, e1.g, v2))
            existing = out.values.get(target)
            out.values[target] = term if existing is None else existing + term
    return out


def involute(phi: GroupoidSection) -> GroupoidSection:
    """phi*(X, s) = alpha_{(X,s)}(phi(X.s, -s)*); the support is inverted and
    windows are inverse-closed by construction."""
    out = GroupoidSection(phi.bundle, phi.window)
    for e, v in phi.values.items():
        inv = e.inverse()
        out.values[inv] = phi.bundle.act(inv.x, inv.g, phi.bundle.star(e.x, v))
    return out


def i_norm(phi: GroupoidSection) -> float:
    """max over units of the l^1 fiber-norm sums along ranges and sources."""
    rows: dict = {}
    cols: dict = {}
    for e, v in phi.values.items():
        nv = phi.bundle.norm(e.x, v)
        rows[e.x] = rows.get(e.x, 0.0) + nv
        cols[e.source] = cols.get(e.source, 0.0) + nv
    best = 0.0
    for d in (rows, cols):
        for total in d.values():
            best = max(best, total)
    return best


def lift_symbol(f: SymbolFunction, window: Window, act: EndomorphismAction | None = None) -> GroupoidSection:
    """The lift f~(X, s) = f(s) over every window unit where (X, s) is a
    groupoid element inside the window."""
    bundle = MatrixBundle(act) if act is not None else trivial_bundle(f.k)
    supp = f.support
    if supp and max(abs(supp[0]), abs(supp[-1])) > window.max_g:
        raise WindowOverflowError("symbol support exceeds the window's g bound")
    out = GroupoidSection(bundle, window)
    for x in window.unit_values():
        for g in supp:
            if in_groupoid(x, g):
                e = GroupoidElement(x, g)
                if window.contains(e):
                    out.values[e] = f.values[g].copy()
    return out


def hat_symbol(f: SymbolFunction) -> SymbolFunction:
    """f^(g) = f(g^{-1}) with trivial modular factor, i.e. pure reflection."""
    return f.reflect()


def lift_and_hat(f: SymbolFunction, window: Window, act: EndomorphismAction | None = None):
    return lift_symbol(f, window, act=act), hat_symbol(f)


def lambda_rep(phi: GroupoidSection, n: int) -> TruncatedOperator:
    """Truncated matrix of the induced representation at the base point 0.

    Row b, column a carries alpha_b(phi(b, a - b)) for b, a in {0..N}; the
    section's window must certify the whole sampled triangle.  Only the
    support is visited, and every alpha_b is read off one power table.
    """
    bundle = phi.bundle
    if not isinstance(bundle, MatrixBundle):
        raise InputValidationError("lambda_rep needs matrix fibers")
    if phi.window.max_x < n or phi.window.max_g < n:
        raise WindowOverflowError(
            f"window (max_x={phi.window.max_x}, max_g={phi.window.max_g}) cannot certify N={n}"
        )
    cells = [(e.x, e.g, v) for e, v in phi.values.items() if e.x != INF and e.x <= n and 0 <= e.x + e.g <= n]
    out = TruncatedOperator.zeros(n, bundle.k)
    if cells:
        bs, gs, values = zip(*cells)
        rows = np.array(bs, dtype=np.int64)
        out.blocks[rows, rows + np.array(gs, dtype=np.int64)] = bundle.action.alpha(rows, values)
    return out


def shift_R(a: int, psi: GroupoidSection) -> GroupoidSection:
    """R_a(psi)(X, s) = alpha_{(X,a)}(psi(X.a, s - a)).

    Support transforms by (y, u) -> (y - a, u + a); finite units below a have
    no preimage and are dropped by the formula itself.
    """
    if a < 0:
        raise InputValidationError("the shift parameter lives in the semigroup (a >= 0)")
    out = GroupoidSection(psi.bundle, psi.window)
    for e, v in psi.values.items():
        if e.x != INF and e.x < a:
            continue
        x = INF if e.x == INF else e.x - a
        target = GroupoidElement(x, e.g + a)
        if not psi.window.contains(target):
            raise WindowOverflowError(
                f"shifted support element ({target.x}, {target.g}) overflows the window"
            )
        out.values[target] = psi.bundle.act(x, a, v)
    return out
