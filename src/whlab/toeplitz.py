"""Truncated Wiener-Hopf operators for the discrete model P = N inside Z.

Operators live on l^2({0..N}) tensor M_k and are stored by diagonals: a map
from each offset o = row - col that carries a block to the (N+1-|o|, k, k)
stack of the blocks on that diagonal.  The basic operators are all banded:

* ``rep_pi(x)``      the band 0 with alpha_m(x) at position m,
* ``isometry_V(a)``  the block shift (V_a xi)(m) = xi(m - a), the band a,
* ``wiener_hopf(f)`` the twisted Toeplitz operator with block
                     alpha_m(f(g)) at row m, column m - g: one band per
                     point g of the symbol's support.

Products, adjoints, sums and compressions act band by band; only the dense
views ``blocks`` and ``matrix`` assemble a matrix.  Norms are read through
the Schur test on block norms (``norm_bound``): the square root of the
largest block-norm row sum times the largest column sum bounds the spectral
norm from above, and equals it for a single band, which is the direct sum of
its blocks.  This is the finite-section form of the Wiener bound
||T(a)|| <= ||a||_W (Boettcher-Silbermann, Introduction to Large Truncated
Toeplitz Matrices), so a residual gate that reads it can only tighten.

Every alpha_m, here and in the groupoid module, is read off one power table:
the stack U_0..U_n, U_m = u^m, of k x k powers of the action's unitary u that
``EndomorphismAction.powers`` keeps and extends by one product per new power;
alpha_m(x) = U_m x U_m* and alpha_{-m}(x) = U_m* x U_m.

Truncation convention: a TruncatedOperator is the compression of the
corresponding operator on l^2(N).  Identities about composites (covariance,
isometry laws) are stated for the infinite-lattice product; compressing that
product is NOT the same as multiplying compressions, because the shift pushes
the top of the window out.  Where an identity closes on the lattice, the
composite is therefore evaluated with shift headroom (an enlarged internal
window) and compressed at the end, which reproduces the compression of the
true product exactly.  Products of symbols do leak at the boundary and are
only compared on interior positions (``compress(lo, hi)``).

A symbol f is one (width, k, k) array from an offset, values[i] = f(offset + i).  Its reflection
g -> -g serves the adjoint symbol and, the modular factor of Z being 1, the groupoid's hat map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .fell import integer_value
from .spectra import _H, _spectral_norms, assert_unitary

UNITARY_TOL = 1e-9  # how far u*u may stray from the identity (Frobenius) for u to generate an action

__all__ = [
    "UNITARY_TOL",
    "EndomorphismAction",
    "trivial_action",
    "conjugation_action",
    "SymbolFunction",
    "TruncatedOperator",
    "rep_pi",
    "isometry_V",
    "wiener_hopf",
    "covariance_residual",
]


def _block_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for two stacks of k x k blocks, summed over the inner index
    one term at a time: for small k this beats np.matmul, which makes one
    BLAS call per complex block."""
    out = a[:, :, :1] * b[:, :1]
    for j in range(1, a.shape[-1]):
        out += a[:, :, j : j + 1] * b[:, j : j + 1]
    return out


@dataclass
class EndomorphismAction:
    """Semigroup action of N on M_k by alpha_m = Ad(u^m): x -> u^m x (u*)^m
    for a unitary u, extended to Z by alpha_{-m}(x) = (u*)^m x u^m.

    Every nonzero *-endomorphism of M_k has this form: M_k is simple, so it
    is injective, hence onto, hence inner (Skolem-Noether).  The zero
    endomorphism is out of scope: it has no inverse, and the adjoint symbol
    and the groupoid involution read alpha_m at negative m.
    """

    u: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        # a read-only copy, so that no edit can leave the power table stale
        self.u = assert_unitary(np.array(self.u, dtype=np.complex128), tol=UNITARY_TOL)
        if self.u.ndim != 2:
            raise InputValidationError(f"u must be one k x k matrix, got shape {self.u.shape}")
        self.u.setflags(write=False)
        self.k = self.u.shape[0]
        self._table = np.eye(self.k, dtype=np.complex128)[None]

    def powers(self, n: int) -> np.ndarray:
        """U_0..U_n, U_m = u^m: a read-only view of the action's table, which
        grows on demand by one product per new power, so an entry never
        depends on when it was first asked for."""
        table = self._table
        if len(table) <= n:
            grown = np.empty((n + 1, self.k, self.k), dtype=np.complex128)
            grown[: len(table)] = table
            for m in range(len(table) - 1, n):
                np.matmul(self.u, grown[m], out=grown[m + 1])
            grown.setflags(write=False)
            self._table = table = grown
        return table[: n + 1]

    def alpha(self, ms, xs) -> np.ndarray:
        """alpha_m(x) for a stack of exponents ms, of either sign, and a matching
        stack of k x k values xs (or one value for all): U_m x U_m* for m >= 0
        and U_|m|* x U_|m| for m < 0.  A single exponent and value give one
        matrix."""
        ms = np.asarray(ms, dtype=np.int64)
        try:
            xs = np.asarray(xs, dtype=np.complex128)
        except ValueError as exc:  # values of different shapes
            raise InputValidationError(f"expected {self.k}x{self.k} matrices") from exc
        if xs.shape not in ((self.k, self.k), ms.shape + (self.k, self.k)):
            raise InputValidationError(f"expected a {self.k}x{self.k} matrix")
        steps = np.abs(ms).ravel()
        # the left factor of each product: U_m, or U_|m|* for m < 0
        left = self.powers(int(steps.max(initial=0)))[steps]
        negative = ms.ravel() < 0
        left[negative] = _H(left[negative])
        out = _block_products(_block_products(left, xs.reshape(-1, self.k, self.k)), _H(left))
        return out.reshape(ms.shape + (self.k, self.k))


def trivial_action(k: int) -> EndomorphismAction:
    return EndomorphismAction(np.eye(k))


def conjugation_action(u: np.ndarray) -> EndomorphismAction:
    """alpha_1 = Ad(u): x -> u x u* for a unitary u."""
    return EndomorphismAction(u)


@dataclass
class SymbolFunction:
    """Finitely supported f: Z -> M_k as one (width, k, k) array, values[i] = f(offset + i), zero elsewhere,
    read at one g or an array of g; it keeps a read-only copy of the values, so it never aliases its source."""

    offset: int
    values: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        self.offset = integer_value(self.offset)
        try:
            values = np.array(self.values, dtype=np.complex128)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric values
            raise InputValidationError("symbol values must be a stack of k x k matrices") from exc
        if values.ndim != 3 or values.shape[1] != values.shape[2] or not len(values):
            raise InputValidationError(f"symbol values must be a (width >= 1, k, k) stack, got shape {values.shape}")
        values.setflags(write=False)
        self.values, self.k = values, values.shape[1]

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.flatnonzero(self.values.any(axis=(1, 2)))

    def __call__(self, g) -> np.ndarray:
        i = np.asarray(g) - self.offset
        inside = (i >= 0) & (i < len(self.values))
        return np.where(inside[..., None, None], self.values[np.where(inside, i, 0)], 0)

    def __add__(self, other: "SymbolFunction") -> "SymbolFunction":
        """f + h over the union of the two windows."""
        if other.k != self.k:
            raise InputValidationError("fiber dimensions disagree")
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        out = np.zeros((hi - lo, self.k, self.k), dtype=np.complex128)
        for f in (self, other):
            out[f.offset - lo : f.offset - lo + len(f.values)] += f.values
        return SymbolFunction(lo, out)

    def __sub__(self, other: "SymbolFunction") -> "SymbolFunction":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "SymbolFunction":
        """The scalar multiple c f."""
        return SymbolFunction(self.offset, c * self.values)

    def reflected(self) -> "SymbolFunction":
        """g -> f(-g): the values flipped, from offset 1 - offset - width."""
        return SymbolFunction(1 - self.offset - len(self.values), self.values[::-1])

    def convolve(self, other: "SymbolFunction") -> "SymbolFunction":
        """Plain (untwisted) convolution sum_t f(t) h(g - t), one shifted add per entry of f."""
        if other.k != self.k:
            raise InputValidationError("fiber dimensions disagree")
        width = len(other.values)
        out = np.zeros((len(self.values) + width - 1, self.k, self.k), dtype=np.complex128)
        for i, v in enumerate(self.values):
            out[i : i + width] += v @ other.values
        return SymbolFunction(self.offset + other.offset, out)

    def twisted_reflection(self, act: EndomorphismAction) -> "SymbolFunction":
        """f deg(g) = alpha_{-g}(f(-g)*), the adjoint operator's symbol: one alpha call, then the reflection."""
        twisted = act.alpha(np.arange(self.offset, self.offset + len(self.values)), _H(self.values))
        return SymbolFunction(self.offset, twisted).reflected()


def _rows(n: int, offsets) -> np.ndarray:
    """The row of each block of the bands at ``offsets``, band after band."""
    return np.concatenate([np.arange(max(o, 0), n + 1 + min(o, 0)) for o in offsets])


def _diagonal(cells: np.ndarray, n: int, o: int) -> np.ndarray:
    """The view of band o in the row-major stack of the (N+1)^2 cells of a
    window: cell (row, col) is entry row (N+1) + col, so a diagonal steps by N+2."""
    return cells[max(o, 0) * (n + 1) + max(-o, 0) :: n + 2][: n + 1 - abs(o)]


@dataclass
class TruncatedOperator:
    """Compression of an operator on l^2(N) tensor M_k to positions {0..N},
    stored by diagonals: ``bands`` maps an offset o = row - col to the
    (N+1-|o|, k, k) stack of the blocks on that diagonal, the block of cell
    (row, col) at index min(row, col).  An offset with no band is zero."""

    n: int
    k: int
    bands: dict

    def __post_init__(self):
        cleaned = {}
        for o, band in self.bands.items():
            o = int(o)
            if abs(o) > self.n:
                raise InputValidationError(f"band offset {o} outside -{self.n}..{self.n}")
            band = np.asarray(band, dtype=np.complex128)
            expected = (self.n + 1 - abs(o), self.k, self.k)
            if band.shape != expected:
                raise InputValidationError(f"band {o} must have shape {expected}")
            if not np.isfinite(band).all():
                raise InputValidationError("non-finite block entries")
            cleaned[o] = band
        self.bands = cleaned

    @classmethod
    def identity(cls, n: int, k: int) -> "TruncatedOperator":
        return cls(n, k, {0: np.broadcast_to(np.eye(k, dtype=np.complex128), (n + 1, k, k))})

    @classmethod
    def twisted(cls, n: int, act: EndomorphismAction, values: dict) -> "TruncatedOperator":
        """The operator whose band o holds alpha_r(x) for each value x of the
        stack values[o], r the row of its block; one alpha call for all bands."""
        if not values:
            return cls(n, act.k, {})
        blocks = act.alpha(_rows(n, values), np.concatenate(list(values.values())))
        ends = accumulate(n + 1 - abs(o) for o in values)
        return cls(n, act.k, {o: blocks[end - n - 1 + abs(o) : end] for o, end in zip(values, ends)})

    @property
    def blocks(self) -> np.ndarray:
        """The dense (N+1, N+1, k, k) array of blocks, assembled from the bands."""
        out = np.zeros((self.n + 1, self.n + 1, self.k, self.k), dtype=np.complex128)
        cells = out.reshape(-1, self.k, self.k)
        for o, band in self.bands.items():
            _diagonal(cells, self.n, o)[...] = band
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The assembled ((N+1)k) x ((N+1)k) matrix."""
        return self.blocks.transpose(0, 2, 1, 3).reshape((self.n + 1) * self.k, -1)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.n, self.k, {-o: _H(band) for o, band in self.bands.items()})

    def _same_shape(self, other: "TruncatedOperator") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise InputValidationError("operator shapes disagree")

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_shape(other)
        n, k = self.n, self.k
        out: dict = {}
        for oa, a in self.bands.items():
            for ob, b in other.bands.items():
                # the middle position m runs where row m + oa of self meets column m - ob of other
                lo, hi = max(0, -oa, ob), min(n, n - oa, n + ob) + 1
                if lo >= hi:
                    continue
                # a cell (row, col) sits at index min(row, col) of its band
                ia, ib, ic = lo + min(oa, 0), lo - max(ob, 0), lo + min(oa, -ob)
                o = oa + ob
                if o not in out:
                    out[o] = np.zeros((n + 1 - abs(o), k, k), dtype=np.complex128)
                out[o][ic : ic + hi - lo] += _block_products(a[ia : ia + hi - lo], b[ib : ib + hi - lo])
        return TruncatedOperator(n, k, out)

    def _combine(self, other: "TruncatedOperator", op) -> "TruncatedOperator":
        self._same_shape(other)
        bands = dict(self.bands)
        for o, band in other.bands.items():
            bands[o] = op(bands[o], band) if o in bands else op(0, band)
        return TruncatedOperator(self.n, self.k, bands)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._combine(other, np.subtract)

    def norm_bound(self) -> float:
        """An upper bound on the spectral norm by the Schur test on block norms:
        sqrt(max row sum * max column sum) of the (N+1) x (N+1) matrix of
        block spectral norms; 0 with no band.  A single band sends distinct
        columns to distinct rows, so the operator is the direct sum of its
        blocks and the bound is its exact norm, the largest block norm."""
        if not self.bands:
            return 0.0
        norms = _spectral_norms(np.concatenate(list(self.bands.values())))
        row_sum = np.bincount(_rows(self.n, self.bands), norms).max()
        # the column of a block of band o is its row in the adjoint's band -o
        col_sum = np.bincount(_rows(self.n, [-o for o in self.bands]), norms).max()
        return float(np.sqrt(row_sum * col_sum))

    def compress(self, lo: int, hi: int) -> "TruncatedOperator":
        """The compression to positions lo..hi, renumbered from 0."""
        if not 0 <= lo <= hi <= self.n:
            raise WindowOverflowError(f"positions {lo}..{hi} are not a window inside 0..{self.n}")
        size = hi - lo
        return TruncatedOperator(
            size, self.k, {o: band[lo : hi + 1 - abs(o)] for o, band in self.bands.items() if abs(o) <= size}
        )

    def subwindow(self, m: int) -> "TruncatedOperator":
        """Compress further to positions {0..m}."""
        return self.compress(0, m)


def rep_pi(x, act: EndomorphismAction, n: int) -> TruncatedOperator:
    """Block-diagonal representation with alpha_m(x) at position m: one band."""
    return TruncatedOperator(n, act.k, {0: act.alpha(np.arange(n + 1), x)})


def isometry_V(a: int, n: int, k: int = 1) -> TruncatedOperator:
    """Compression of the shift (V_a xi)(m) = xi(m - a): identity blocks on band a."""
    if a < 0 or a > n:
        raise WindowOverflowError(f"shift {a} outside truncation 0..{n}")
    return TruncatedOperator(n, k, {a: np.broadcast_to(np.eye(k, dtype=np.complex128), (n + 1 - a, k, k))})


def wiener_hopf(f: SymbolFunction, act: EndomorphismAction, n: int) -> TruncatedOperator:
    """Twisted Toeplitz operator: row m, column m-g carries alpha_m(f(g)), one band per g in supp f."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support.tolist()
    if supp and (supp[0] < -n or supp[-1] > n):
        raise WindowOverflowError(f"symbol support {supp[0]}..{supp[-1]} exceeds window [-{n}, {n}]")
    return TruncatedOperator.twisted(n, act, {g: np.broadcast_to(f(g), (n + 1 - abs(g), f.k, f.k)) for g in supp})


def covariance_residual(x, a: int, act: EndomorphismAction, n: int) -> float:
    """|| V_a* pi(x) V_a - pi(alpha_a(x)) || on the truncation.

    The composite is evaluated with headroom a so that the compression equals
    the compression of the infinite-lattice product, where the identity is
    exact; the residual is floating-point zero.
    """
    if a < 0 or a > n:
        raise WindowOverflowError(f"shift {a} outside truncation 0..{n}")
    wide = n + a
    v = isometry_V(a, wide, act.k)
    pix = rep_pi(x, act, wide)
    composite = (v.adjoint() @ pix @ v).subwindow(n)
    expected = rep_pi(act.alpha(a, x), act, n)
    return (composite - expected).norm_bound()
