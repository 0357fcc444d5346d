"""Convolution algebra of the desk-scale Wiener-Hopf groupoid for P = N in Z.

The unit space is the discrete order compactification {0, 1, 2, ...} u {inf}
(the value n stands for the set (-inf..n] in Z, inf for Z itself); the
groupoid is G = {(X, g) : X.g stays in the space}, concretely x + g >= 0 for
finite x.  The coefficient algebra is M_k with the semigroup action alpha of
an ``EndomorphismAction``, so (G, M_k, alpha) is the groupoid dynamical
system.  Sections are finitely supported M_k-valued functions on G with
counting-measure convolution

    (phi * psi)(X, s) = sum_t phi(X, t) . alpha_t( psi(X.t, s - t) ),

involution phi*(X, s) = alpha_s( phi(X.s, -s)* ), the I-norm (max of row/column
l^1 sums of spectral norms over units), the lift f~ and hat f^ of a symbol,
the shifts R_a, and the induced representation Lambda at the base point
X0 = 0, whose truncated matrix has block alpha_b(phi(b, a - b)) at row b,
column a.

Window discipline: every section carries an explicit window certifying where
its values are known (zero off the support); operations whose result needs a
point outside the window fail loudly with the overflowing element instead of
silently truncating.  The point at infinity is a distinguished window symbol;
sums over its full-line fiber are finite because supports are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .fell import INF, discrete_value, integer_value
from .toeplitz import EndomorphismAction, SymbolFunction, TruncatedOperator


def in_groupoid(x, g: int) -> bool:
    """(X, g) is a groupoid element iff X.g stays in the unit space; for the
    discrete model that is x + g >= 0, equivalently g^{-1} in X."""
    return x == INF or x + g >= 0


@dataclass(frozen=True)
class GroupoidElement:
    """A pair (X, g) with X the value of a discrete unit and g an integer."""

    x: object  # int >= 0 or INF
    g: int

    def __post_init__(self):
        # elements are built in inner loops, and plain ints (what every
        # builder below passes) need no call
        if type(self.x) is not int or self.x < 0:
            object.__setattr__(self, "x", discrete_value(self.x))
        if type(self.g) is not int:
            object.__setattr__(self, "g", integer_value(self.g))
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
    must lie in {0..max_x} or at infinity, and |g| <= max_g."""

    max_x: int
    max_g: int

    def contains(self, e: GroupoidElement) -> bool:
        if abs(e.g) > self.max_g:
            return False
        return e.x == INF or (e.x <= self.max_x and e.source <= self.max_x)


@dataclass
class GroupoidSection:
    """Finitely supported M_k-valued function on the groupoid, M_k carrying
    the action alpha.  Values given to the constructor or ``set`` are checked
    once, as complex k x k arrays inside the window; the operations below
    build valid values and write ``values`` directly."""

    action: EndomorphismAction
    window: Window
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        given, self.values = self.values, {}
        for e, v in given.items():
            self.set(e, v)

    def __call__(self, e) -> np.ndarray:
        v = self.values.get(_element(e))
        return v if v is not None else np.zeros((self.action.k, self.action.k), dtype=np.complex128)

    def set(self, e, v) -> None:
        e = _element(e)
        if not self.window.contains(e):
            raise WindowOverflowError(f"element ({e.x}, {e.g}) outside window")
        k = self.action.k
        try:
            arr = np.asarray(v)
        except ValueError:  # ragged nested sequences
            arr = np.asarray(None)
        if arr.dtype.kind not in "iufc" or arr.shape != (k, k):
            raise InputValidationError(f"value at ({e.x}, {e.g}) is not a {k}x{k} matrix")
        self.values[e] = arr.astype(np.complex128, copy=False)


def _element(e) -> GroupoidElement:
    return e if isinstance(e, GroupoidElement) else GroupoidElement(*e)


def convolve(phi: GroupoidSection, psi: GroupoidSection) -> GroupoidSection:
    """Counting-measure convolution inside phi's window; support-driven, so
    the integral over each unit fiber (including the one at infinity) is a
    finite sum.  Both sections must carry the same action (equal generators)."""
    act = phi.action
    if act is not psi.action and not np.array_equal(act.generator, psi.action.generator):
        raise InputValidationError("sections live over different actions")
    window = phi.window
    out = GroupoidSection(act, window)
    for e1, v1 in phi.values.items():
        if not np.any(v1):
            continue
        for e2, v2 in psi.values.items():
            if e2.x != e1.source or not np.any(v2):
                continue
            target = GroupoidElement(e1.x, e1.g + e2.g)
            if not window.contains(target):
                raise WindowOverflowError(
                    f"product support element ({target.x}, {target.g}) overflows the window"
                )
            term = v1 @ act.alpha(e1.g, v2)
            existing = out.values.get(target)
            out.values[target] = term if existing is None else existing + term
    return out


def involute(phi: GroupoidSection) -> GroupoidSection:
    """phi*(X, s) = alpha_s(phi(X.s, -s)*); the support is inverted and
    windows are inverse-closed by construction."""
    out = GroupoidSection(phi.action, phi.window)
    for e, v in phi.values.items():
        inv = e.inverse()
        out.values[inv] = phi.action.alpha(inv.g, v.conj().T)
    return out


def i_norm(phi: GroupoidSection) -> float:
    """max over units of the l^1 sums of spectral norms along ranges and sources."""
    rows: dict = {}
    cols: dict = {}
    for e, v in phi.values.items():
        nv = float(np.linalg.norm(v, 2))
        rows[e.x] = rows.get(e.x, 0.0) + nv
        cols[e.source] = cols.get(e.source, 0.0) + nv
    best = 0.0
    for d in (rows, cols):
        for total in d.values():
            best = max(best, total)
    return best


def lift_symbol(f: SymbolFunction, window: Window, act: EndomorphismAction) -> GroupoidSection:
    """The lift f~(X, s) = f(s) over every window unit where (X, s) is a
    groupoid element inside the window."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support
    if supp and max(abs(supp[0]), abs(supp[-1])) > window.max_g:
        raise WindowOverflowError("symbol support exceeds the window's g bound")
    out = GroupoidSection(act, window)
    for x in [*range(window.max_x + 1), INF]:
        for g in supp:
            if in_groupoid(x, g):
                e = GroupoidElement(x, g)
                if window.contains(e):
                    out.values[e] = f.values[g].copy()
    return out


def hat_symbol(f: SymbolFunction) -> SymbolFunction:
    """f^(g) = f(g^{-1}) with trivial modular factor, i.e. pure reflection g -> -g."""
    return SymbolFunction(f.k, {-g: v.copy() for g, v in f.values.items()})


def lambda_rep(phi: GroupoidSection, n: int) -> TruncatedOperator:
    """Truncated matrix of the induced representation at the base point 0.

    Row b, column a carries alpha_b(phi(b, a - b)) for b, a in {0..N}; the
    section's window must certify the whole sampled triangle.  Only the
    support is visited, and every alpha_b is read off one power table.
    """
    if phi.window.max_x < n or phi.window.max_g < n:
        raise WindowOverflowError(
            f"window (max_x={phi.window.max_x}, max_g={phi.window.max_g}) cannot certify N={n}"
        )
    cells = [(e.x, e.g, v) for e, v in phi.values.items() if e.x != INF and e.x <= n and 0 <= e.x + e.g <= n]
    out = TruncatedOperator.zeros(n, phi.action.k)
    if cells:
        bs, gs, values = zip(*cells)
        rows = np.array(bs, dtype=np.int64)
        out.blocks[rows, rows + np.array(gs, dtype=np.int64)] = phi.action.alpha(rows, values)
    return out


def shift_R(a: int, psi: GroupoidSection) -> GroupoidSection:
    """R_a(psi)(X, s) = alpha_a(psi(X.a, s - a)).

    Support transforms by (y, u) -> (y - a, u + a); finite units below a have
    no preimage and are dropped by the formula itself.
    """
    if a < 0:
        raise InputValidationError("the shift parameter lives in the semigroup (a >= 0)")
    out = GroupoidSection(psi.action, psi.window)
    for e, v in psi.values.items():
        if e.x != INF and e.x < a:
            continue
        x = INF if e.x == INF else e.x - a
        target = GroupoidElement(x, e.g + a)
        if not psi.window.contains(target):
            raise WindowOverflowError(
                f"shifted support element ({target.x}, {target.g}) overflows the window"
            )
        out.values[target] = psi.action.alpha(a, v)
    return out
