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

A section is one array over its window's cells (see ``Window``), zero off the
support; the operations below read and write it by rows, columns or gathers.

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
from .toeplitz import EndomorphismAction, SymbolFunction, TruncatedOperator


def in_groupoid(x, g: int) -> bool:
    """(X, g) is a groupoid element iff X.g stays in the unit space; for the
    discrete model that is x + g >= 0, equivalently g^{-1} in X."""
    return x == INF or x + g >= 0


@dataclass(frozen=True)
class Window:
    """Bound on section supports: both the range and the source of an element
    must lie in {0..max_x} or at infinity, and |g| <= max_g.  Its cells form a
    (max_x + 2, 2 max_g + 1) grid: row x is the finite unit x, the last row
    the unit at infinity, and column j holds g = j - max_g."""

    max_x: int
    max_g: int

    @property
    def shape(self) -> tuple:
        return (self.max_x + 2, 2 * self.max_g + 1)

    def cell(self, x, g) -> tuple:
        """The (row, column) of the element (x, g); raises for a pair that is
        not a groupoid element or lies outside the window."""
        # plain ints, what every caller in the package passes, need no call
        if type(x) is not int or x < 0:
            x = discrete_value(x)
        if type(g) is not int:
            g = integer_value(g)
        if not in_groupoid(x, g):
            raise InputValidationError(f"({x}, {g}) leaves the unit space")
        if abs(g) > self.max_g or (x != INF and max(x, x + g) > self.max_x):
            raise WindowOverflowError(f"element ({x}, {g}) outside window")
        return (self.max_x + 1 if x == INF else x, g + self.max_g)

    def mask(self) -> np.ndarray:
        """The cells that hold a groupoid element: source in {0..max_x}, or the unit at infinity."""
        g = np.arange(-self.max_g, self.max_g + 1)
        source = np.arange(self.max_x + 1)[:, None] + g
        return np.vstack([(source >= 0) & (source <= self.max_x), np.ones_like(g, dtype=bool)])

    def sources(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The source row of each cell: row + g for a finite unit, infinity's row for infinity."""
        inf_row = self.max_x + 1
        return np.where(rows == inf_row, inf_row, rows + cols - self.max_g)


@dataclass
class GroupoidSection:
    """Finitely supported M_k-valued function on the groupoid, M_k carrying
    the action alpha, as a (rows, columns, k, k) array over the window's
    cells.  ``set`` checks each value once, as a complex k x k array inside
    the window; the operations below write ``values`` directly."""

    action: EndomorphismAction
    window: Window
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        k = self.action.k
        self.values = np.zeros(self.window.shape + (k, k), dtype=np.complex128)

    def __call__(self, e) -> np.ndarray:
        return self.values[self.window.cell(*e)]

    def set(self, e, v) -> None:
        cell = self.window.cell(*e)
        k = self.action.k
        try:
            arr = np.asarray(v)
        except ValueError:  # ragged nested sequences
            arr = np.asarray(None)
        if arr.dtype.kind not in "iufc" or arr.shape != (k, k):
            raise InputValidationError(f"value at {tuple(e)} is not a {k}x{k} matrix")
        self.values[cell] = arr

    def support(self) -> np.ndarray:
        """(rows, columns) booleans: the cells with a nonzero value."""
        return np.any(self.values, axis=(-2, -1))


def convolve(phi: GroupoidSection, psi: GroupoidSection) -> GroupoidSection:
    """Counting-measure convolution inside the sections' common window;
    support-driven, so the integral over each unit fiber (including the one
    at infinity) is a finite sum.  Both sections must carry the same action
    (equal generators)."""
    act = phi.action
    if act is not psi.action and not np.array_equal(act.generator, psi.action.generator):
        raise InputValidationError("sections live over different actions")
    window = phi.window
    if psi.window != window:
        raise InputValidationError("sections live over different windows")
    out = GroupoidSection(act, window)
    live = psi.support()
    rows, cols = np.nonzero(phi.support())
    for row, col, src in zip(rows, cols, window.sources(rows, cols)):
        # phi(X, t) meets psi's whole source row: psi(X.t, u) lands at (X, t + u)
        t = col - window.max_g
        hit = np.flatnonzero(live[src])
        if not hit.size:
            continue
        lo, hi = hit[0], hit[-1] + 1
        if lo + t < 0 or hi + t > live.shape[1]:
            g = (lo if lo + t < 0 else hi - 1) + t - window.max_g
            x = INF if row == window.max_x + 1 else int(row)
            raise WindowOverflowError(f"product support element ({x}, {g}) overflows the window")
        terms = act.alpha(np.full(hi - lo, t), psi.values[src, lo:hi])
        out.values[row, lo + t : hi + t] += phi.values[row, col] @ terms
    return out


def involute(phi: GroupoidSection) -> GroupoidSection:
    """phi*(X, s) = alpha_s(phi(X.s, -s)*): each column g of the support
    moves to column -g over the sources; windows are inverse-closed by
    construction."""
    window = phi.window
    out = GroupoidSection(phi.action, window)
    live = phi.support()
    for col in np.flatnonzero(live.any(axis=0)):
        rows = np.flatnonzero(live[:, col])
        s = window.max_g - col  # the g of the inverse elements
        adjoints = phi.values[rows, col].conj().swapaxes(-2, -1)
        out.values[window.sources(rows, col), window.max_g + s] = phi.action.alpha(np.full(rows.size, s), adjoints)
    return out


def i_norm(phi: GroupoidSection) -> float:
    """max over units of the l^1 sums of spectral norms along ranges and sources."""
    rows, cols = np.nonzero(phi.support())
    norms = np.linalg.norm(phi.values[rows, cols], 2, axis=(-2, -1))
    return max(float(np.bincount(units, norms).max(initial=0.0)) for units in (rows, phi.window.sources(rows, cols)))


def lift_symbol(f: SymbolFunction, window: Window, act: EndomorphismAction) -> GroupoidSection:
    """The lift f~(X, s) = f(s) over every window unit where (X, s) is a
    groupoid element inside the window."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support
    if supp and max(abs(supp[0]), abs(supp[-1])) > window.max_g:
        raise WindowOverflowError("symbol support exceeds the window's g bound")
    out = GroupoidSection(act, window)
    cols = np.array(list(f.values), dtype=np.int64) + window.max_g
    symbol = np.array(list(f.values.values())).reshape(-1, act.k, act.k)
    out.values[:, cols] = np.where(window.mask()[:, cols, None, None], symbol, 0)
    return out


def hat_symbol(f: SymbolFunction) -> SymbolFunction:
    """f^(g) = f(g^{-1}) with trivial modular factor, i.e. pure reflection g -> -g."""
    return SymbolFunction(f.k, {-g: v.copy() for g, v in f.values.items()})


def lambda_rep(phi: GroupoidSection, n: int) -> TruncatedOperator:
    """Truncated matrix of the induced representation at the base point 0.

    Row b, column a carries alpha_b(phi(b, a - b)) for b, a in {0..N}; the
    section's window must certify the whole sampled triangle.  The blocks are
    one gather of the section's cells, and alpha_b runs on the nonzero ones,
    read off one power table.
    """
    window = phi.window
    if window.max_x < n or window.max_g < n:
        raise WindowOverflowError(f"window (max_x={window.max_x}, max_g={window.max_g}) cannot certify N={n}")
    b = np.arange(n + 1)[:, None]
    blocks = phi.values[b, b.T - b + window.max_g]
    rows, cols = np.nonzero(np.any(blocks, axis=(-2, -1)))
    blocks[rows, cols] = phi.action.alpha(rows, blocks[rows, cols])
    return TruncatedOperator(n, phi.action.k, blocks)


def shift_R(a: int, psi: GroupoidSection) -> GroupoidSection:
    """R_a(psi)(X, s) = alpha_a(psi(X.a, s - a)).

    Support transforms by (y, u) -> (y - a, u + a); finite units below a have
    no preimage and are dropped by the formula itself.
    """
    if a < 0:
        raise InputValidationError("the shift parameter lives in the semigroup (a >= 0)")
    window = psi.window
    out = GroupoidSection(psi.action, window)
    live = psi.support()
    live[: min(a, window.max_x + 1)] = False
    rows, cols = np.nonzero(live)
    over = cols + a >= live.shape[1]
    if over.any():
        row, col = rows[over][0], cols[over][0]
        x = INF if row == window.max_x + 1 else int(row) - a
        raise WindowOverflowError(f"shifted support element ({x}, {col + a - window.max_g}) overflows the window")
    targets = np.where(rows == window.max_x + 1, rows, rows - a)
    out.values[targets, cols + a] = psi.action.alpha(np.full(rows.size, a), psi.values[rows, cols])
    return out
