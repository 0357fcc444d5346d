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

A section is stored by column, as a ``TruncatedOperator`` is by band: column g
holds phi(., g) over the window's units and becomes the band -g of Lambda(phi);
the operations read a column at its elements' sources through ``Window.pull``.

Window discipline: the window certifies where a section's values are known;
operations whose result needs a cell outside the window fail loudly with the
overflowing element instead of silently truncating.  The point at infinity
has a row of its own; sums over its full-line fiber are finite because
supports are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .fell import INF, discrete_value, integer_value
from .spectra import _H, _spectral_norms
from .toeplitz import EndomorphismAction, SymbolFunction, TruncatedOperator


def in_groupoid(x, g: int) -> bool:
    """(X, g) is a groupoid element iff X.g stays in the unit space; for the
    discrete model that is x + g >= 0, equivalently g^{-1} in X."""
    return x == INF or x + g >= 0


@dataclass(frozen=True)
class Window:
    """Bound on section supports: both the range and the source of an element
    must lie in {0..max_x} or at infinity, and |g| <= max_g.  A column of a
    section has max_x + 2 rows: row x is the finite unit x, the last row the
    unit at infinity."""

    max_x: int
    max_g: int

    def cell(self, x, g) -> tuple:
        """The (row, g) of the element (x, g); raises for a pair that is not a
        groupoid element or lies outside the window."""
        # plain ints, what every caller in the package passes, need no call
        if type(x) is not int or x < 0:
            x = discrete_value(x)
        if type(g) is not int:
            g = integer_value(g)
        if not in_groupoid(x, g):
            raise InputValidationError(f"({x}, {g}) leaves the unit space")
        if abs(g) > self.max_g or (x != INF and max(x, x + g) > self.max_x):
            raise WindowOverflowError(f"element ({x}, {g}) outside window")
        return (self.max_x + 1 if x == INF else x, g)

    def element(self, row, g: int) -> tuple:
        """The element (x, g) at a row of column g: ``cell`` inverted."""
        return (INF if row > self.max_x else int(row), g)

    def pull(self, column: np.ndarray, t: int) -> np.ndarray:
        """out[x] = column[x + t], zero where x + t leaves 0..max_x; the row of
        infinity, which every t fixes, is kept.  So column g pulled by t holds
        at row x its value at the source x.t of (x, t)."""
        out = np.zeros_like(column)
        lo = max(0, -t)  # rows lo..hi - 1 have a finite unit x + t; none when |t| > max_x
        hi = max(lo, min(self.max_x + 1, self.max_x + 1 - t))
        out[lo:hi] = column[lo + t : hi + t]
        out[-1] = column[-1]
        return out


@dataclass
class GroupoidSection:
    """Finitely supported M_k-valued function on the groupoid, M_k carrying
    the action alpha: ``columns`` maps each g it carries to the (max_x + 2,
    k, k) stack of its values at (x, g), rows as in ``Window``; a g with no
    column is zero.  ``set`` checks each value once, as a complex k x k array
    inside the window; the operations below write the columns directly."""

    action: EndomorphismAction
    window: Window
    columns: dict = field(default_factory=dict)

    def column(self, g: int) -> np.ndarray:
        """The column of g, a zero one added if the section carries none."""
        if g not in self.columns:
            self.columns[g] = np.zeros((self.window.max_x + 2,) + (self.action.k,) * 2, dtype=np.complex128)
        return self.columns[g]

    def __call__(self, e) -> np.ndarray:
        row, g = self.window.cell(*e)
        return self.columns[g][row] if g in self.columns else np.zeros((self.action.k,) * 2, dtype=np.complex128)

    def set(self, e, v) -> None:
        row, g = self.window.cell(*e)
        k = self.action.k
        try:
            arr = np.asarray(v)
        except ValueError:  # ragged nested sequences
            arr = np.asarray(None)
        if arr.dtype.kind not in "iufc" or arr.shape != (k, k):
            raise InputValidationError(f"value at {tuple(e)} is not a {k}x{k} matrix")
        self.column(g)[row] = arr


def _twisted(act: EndomorphismAction, ms: list, columns: dict) -> dict:
    """alpha_m of every block of each column, m that column's exponent in ms, in one alpha call."""
    if not columns:
        return {}
    stack = np.stack(list(columns.values()))
    return dict(zip(columns, act.alpha(np.repeat(ms, stack.shape[1]).reshape(stack.shape[:2]), stack)))


def convolve(phi: GroupoidSection, psi: GroupoidSection) -> GroupoidSection:
    """Counting-measure convolution inside the sections' common window, support-driven, so the
    integral over each unit fiber (infinity's too) is a finite sum.  Both sections must carry the
    same action (equal unitaries u).  Column t of phi meets each column u of psi pulled by t and
    adds to column t + u, through one alpha call per column t."""
    act = phi.action
    if act is not psi.action and not np.array_equal(act.u, psi.action.u):
        raise InputValidationError("sections live over different actions")
    window = phi.window
    if psi.window != window:
        raise InputValidationError("sections live over different windows")
    out = GroupoidSection(act, window)
    us = sorted(psi.columns)
    live = np.array([np.any(psi.columns[u], axis=(1, 2)) for u in us], dtype=bool).reshape(len(us), window.max_x + 2)
    for t in sorted(phi.columns):  # ascending t: each cell sums its terms in the order of t
        column = phi.columns[t]
        # psi's live units that are sources X.t of phi's live units X, column by column
        meets = live & window.pull(np.any(column, axis=(1, 2)), -t)
        hits = np.flatnonzero(meets.any(axis=1)).tolist()
        for i in hits:
            if abs(t + us[i]) > window.max_g:
                element = window.element(np.flatnonzero(window.pull(meets[i], t))[0], t + us[i])
                raise WindowOverflowError(f"product support element {element} overflows the window")
        sources = {us[i]: window.pull(psi.columns[us[i]], t) for i in hits}
        for u, terms in _twisted(act, [t] * len(hits), sources).items():
            out.columns[t + u] = out.columns.get(t + u, 0) + column @ terms
    return out


def involute(phi: GroupoidSection) -> GroupoidSection:
    """phi*(X, s) = alpha_s(phi(X.s, -s)*): column g, pulled by -g, moves to
    column -g; windows are inverse-closed by construction."""
    adjoints = {-g: _H(phi.window.pull(column, -g)) for g, column in phi.columns.items()}
    return GroupoidSection(phi.action, phi.window, _twisted(phi.action, list(adjoints), adjoints))


def i_norm(phi: GroupoidSection) -> float:
    """max over units of the l^1 sums of spectral norms along ranges and sources;
    column g pulled by -g holds at row y the norms that sum at the source y."""
    gs, zero = sorted(phi.columns), np.zeros(phi.window.max_x + 2)
    norms = _spectral_norms(np.stack([phi.columns[g] for g in gs])) if gs else []
    ranges = sum(norms, zero)
    sources = sum((phi.window.pull(column, -g) for g, column in zip(gs[::-1], norms[::-1])), zero)
    return max(float(sums.max()) for sums in (ranges, sources))


def lift_symbol(f: SymbolFunction, window: Window, act: EndomorphismAction) -> GroupoidSection:
    """The lift f~(X, s) = f(s) at every groupoid element of the window: column s
    holds f(s) on the units max(0, -s)..max_x - max(s, 0) and at infinity."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support
    if np.abs(supp).max(initial=0) > window.max_g:
        raise WindowOverflowError("symbol support exceeds the window's g bound")
    out = GroupoidSection(act, window)
    for s, value in zip(supp.tolist(), f(supp)):
        column = out.column(s)
        column[max(0, -s) : window.max_x + 1 - max(s, 0)] = column[-1] = value
    return out


def hat_symbol(f: SymbolFunction) -> SymbolFunction:
    """f^(g) = f(g^{-1}) with trivial modular factor, the reflection g -> -g."""
    return f.reflected()


def lambda_rep(phi: GroupoidSection, n: int) -> TruncatedOperator:
    """Truncated matrix of the induced representation at the base point 0.

    Row b, column a carries alpha_b(phi(b, a - b)) for b, a in {0..N}; the
    section's window must certify the whole sampled triangle.  Each column g
    with |g| <= N and a nonzero block in the triangle gives the band at
    offset -g, whose row b holds alpha_b(phi(b, g)), read off one power table.
    """
    window = phi.window
    if window.max_x < n or window.max_g < n:
        raise WindowOverflowError(f"window (max_x={window.max_x}, max_g={window.max_g}) cannot certify N={n}")
    bands = {}
    for g in sorted(g for g in phi.columns if abs(g) <= n):  # ascending g: one band order, one order of sums
        band = phi.columns[g][max(0, -g) : n + 1 - max(g, 0)]
        if band.any():
            bands[-g] = band
    return TruncatedOperator.twisted(n, phi.action, bands)


def shift_R(a: int, psi: GroupoidSection) -> GroupoidSection:
    """R_a(psi)(X, s) = alpha_a(psi(X.a, s - a)): column g, pulled by a,
    moves to column g + a; finite units below a have no preimage and are
    dropped by the pull."""
    if a < 0:
        raise InputValidationError("the shift parameter lives in the semigroup (a >= 0)")
    window = psi.window
    pulled = {g + a: window.pull(column, a) for g, column in psi.columns.items()}
    live = {s: column for s, column in pulled.items() if column.any()}
    for s, column in live.items():
        if s > window.max_g:
            element = window.element(np.flatnonzero(np.any(column, axis=(1, 2)))[0], s)
            raise WindowOverflowError(f"shifted support element {element} overflows the window")
    return GroupoidSection(psi.action, window, _twisted(psi.action, [a] * len(live), live))
