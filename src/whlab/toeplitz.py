"""Truncated Wiener-Hopf operators for the discrete model P = N inside Z.

Operators live on l^2({0..N}) tensor M_k and are stored by diagonals: a map
from each offset o = row - col that carries a block to the (N+1-|o|, k, k)
stack of the blocks on that diagonal.  The generators are all banded:

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
the stack G^0..G^n that ``EndomorphismAction.powers`` keeps on the action and
extends by one product per new power.

Truncation convention: a TruncatedOperator is the compression of the
corresponding operator on l^2(N).  Identities about composites (covariance,
isometry laws) are stated for the infinite-lattice product; compressing that
product is NOT the same as multiplying compressions, because the shift pushes
the top of the window out.  Where an identity closes on the lattice, the
composite is therefore evaluated with shift headroom (an enlarged internal
window) and compressed at the end, which reproduces the compression of the
true product exactly.  Products of symbols do leak at the boundary and are
only compared on interior positions (``compress(lo, hi)``).

The modular factor is identically 1 here (Z is unimodular); the reflected
symbol needed for adjoints lives in the groupoid module's hat map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .fell import integer_value
from .spectra import operator_norm

__all__ = [
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


@dataclass
class EndomorphismAction:
    """Semigroup action of N on M_k generated by a single endomorphism.

    The generator is a k^2 x k^2 matrix acting on row-major vectorized k x k
    matrices.  Construction validates the *-homomorphism laws on the matrix
    units; the injective flag is computed from the generator.  Negative
    powers exist exactly when the generator is invertible (an automorphism).
    """

    k: int
    generator: np.ndarray
    injective: bool = field(init=False)

    def __post_init__(self):
        # read-only copies, so that no edit can leave the power tables stale
        self.generator = np.array(self.generator, dtype=np.complex128)
        kk = self.k * self.k
        if self.generator.shape != (kk, kk):
            raise InputValidationError(f"generator must be {kk}x{kk}")
        self._validate_star_hom()
        self.injective = bool(np.linalg.matrix_rank(self.generator, tol=1e-9) == kk)
        self._inverse = np.linalg.inv(self.generator) if self.injective else None
        for base in (self.generator, self._inverse):
            if base is not None:
                base.setflags(write=False)
        self._tables = {sign: np.eye(kk, dtype=np.complex128)[None] for sign in (False, True)}

    def _validate_star_hom(self):
        # the image of the matrix unit e_ij is column i*k + j of the generator
        k = self.k
        images = self.generator.T.reshape(k, k, k, k)
        if not np.allclose(images.transpose(1, 0, 2, 3), images.conj().transpose(0, 1, 3, 2), atol=1e-9):
            raise InputValidationError("generator does not preserve the adjoint")
        # e_ij e_lm = delta_jl e_im
        products = np.einsum("ijab,lmbc->ijlmac", images, images)
        expected = np.einsum("jl,imac->ijlmac", np.eye(k), images)
        if not np.allclose(expected, products, atol=1e-9):
            raise InputValidationError("generator is not multiplicative")

    def powers(self, n: int, inverse: bool = False) -> np.ndarray:
        """G^0..G^n for the generator G (its inverse with ``inverse``): a read-only
        view of the action's table, which grows on demand by one product per
        new power, so an entry never depends on when it was first asked for."""
        if inverse and self._inverse is None:
            raise InputValidationError("negative powers need an automorphic action")
        table = self._tables[inverse]
        if len(table) <= n:
            base = self._inverse if inverse else self.generator
            grown = np.empty((n + 1,) + base.shape, dtype=np.complex128)
            grown[: len(table)] = table
            for m in range(len(table) - 1, n):
                np.matmul(base, grown[m], out=grown[m + 1])
            grown.setflags(write=False)
            self._tables[inverse] = table = grown
        return table[: n + 1]

    def alpha(self, ms, xs) -> np.ndarray:
        """alpha_m(x) for a stack of exponents ms, all of one sign, and a matching
        stack of k x k values xs (or one value for all), read off one power table.
        A single exponent and value give one matrix; negative exponents need an
        automorphic action."""
        ms = np.asarray(ms, dtype=np.int64)
        try:
            xs = np.asarray(xs, dtype=np.complex128)
        except ValueError as exc:  # values of different shapes
            raise InputValidationError(f"expected {self.k}x{self.k} matrices") from exc
        if xs.shape not in ((self.k, self.k), ms.shape + (self.k, self.k)):
            raise InputValidationError(f"expected a {self.k}x{self.k} matrix")
        lo, hi = int(ms.min(initial=0)), int(ms.max(initial=0))
        if lo < 0 < hi:
            raise InputValidationError("exponents of both signs need two tables")
        table = self.powers(max(hi, -lo), inverse=lo < 0)
        # one value broadcasts over the stack of powers inside the product
        vecs = xs.reshape(xs.shape[:-2] + (self.k * self.k, 1))
        return (table[np.abs(ms)] @ vecs).reshape(ms.shape + (self.k, self.k))


def trivial_action(k: int) -> EndomorphismAction:
    return EndomorphismAction(k=k, generator=np.eye(k * k))


def conjugation_action(u: np.ndarray) -> EndomorphismAction:
    """alpha_1 = Ad(u): x -> u x u* for a unitary u (an automorphism)."""
    u = np.asarray(u, dtype=np.complex128)
    k = u.shape[0]
    # row-major vec: vec(u x u*) = (u kron conj(u)) vec(x)
    return EndomorphismAction(k=k, generator=np.kron(u, u.conj()))


@dataclass
class SymbolFunction:
    """Finitely supported k x k matrix valued function on Z; each key must be
    an integer (``fell.integer_value``)."""

    k: int
    values: dict

    def __post_init__(self):
        cleaned = {}
        for g, v in self.values.items():
            arr = np.asarray(v, dtype=np.complex128)
            if arr.shape != (self.k, self.k):
                raise InputValidationError(f"value at {g} is not {self.k}x{self.k}")
            cleaned[integer_value(g)] = arr
        self.values = cleaned

    @property
    def support(self) -> list:
        return sorted(g for g, v in self.values.items() if np.any(v != 0))

    def __call__(self, g: int) -> np.ndarray:
        return self.values.get(g, np.zeros((self.k, self.k), dtype=np.complex128))

    def convolve(self, other: "SymbolFunction") -> "SymbolFunction":
        """Plain (untwisted) convolution sum_t f(t) h(g - t)."""
        if other.k != self.k:
            raise InputValidationError("fiber dimensions disagree")
        out: dict = {}
        for t, vt in self.values.items():
            for s, vs in other.values.items():
                g = t + s
                out[g] = out.get(g, 0) + vt @ vs
        return SymbolFunction(self.k, out)

    def twisted_reflection(self, act: EndomorphismAction) -> "SymbolFunction":
        """f deg(g) = alpha_{-g}(f(-g)*), the symbol of the adjoint operator
        (requires an automorphic action)."""
        out = {}
        for g, v in self.values.items():
            out[-g] = act.alpha(g, v.conj().T)
        return SymbolFunction(self.k, out)


def _block_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for two stacks of k x k blocks, summed over the inner index
    one term at a time: for small k this beats np.matmul, which makes one
    BLAS call per complex block."""
    out = a[:, :, :1] * b[:, :1]
    for j in range(1, a.shape[-1]):
        out += a[:, :, j : j + 1] * b[:, j : j + 1]
    return out


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
    def zeros(cls, n: int, k: int) -> "TruncatedOperator":
        return cls(n, k, {})

    @classmethod
    def identity(cls, n: int, k: int) -> "TruncatedOperator":
        return cls(n, k, {0: np.broadcast_to(np.eye(k, dtype=np.complex128), (n + 1, k, k))})

    @classmethod
    def twisted(cls, n: int, act: EndomorphismAction, values: dict) -> "TruncatedOperator":
        """The operator whose band o holds alpha_r(x) for each value x of the
        stack values[o], r the row of its block; one alpha call for all bands."""
        if not values:
            return cls.zeros(n, act.k)
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

    @classmethod
    def from_matrix(cls, n: int, k: int, matrix: np.ndarray) -> "TruncatedOperator":
        """Read an assembled matrix into bands, one per diagonal with a nonzero entry."""
        cells = np.asarray(matrix, dtype=np.complex128).reshape(n + 1, k, n + 1, k).transpose(0, 2, 1, 3)
        cells = cells.reshape(-1, k, k)
        bands = {o: _diagonal(cells, n, o).copy() for o in range(-n, n + 1)}
        return cls(n, k, {o: band for o, band in bands.items() if band.any()})

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.n, self.k, {-o: band.conj().swapaxes(-2, -1) for o, band in self.bands.items()})

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
        norms = operator_norm(np.concatenate(list(self.bands.values())))
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
    """Twisted Toeplitz operator: row m, column m-g carries alpha_m(f(g)),
    one band per point g of the symbol's support."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support
    if supp and (supp[0] < -n or supp[-1] > n):
        raise WindowOverflowError(f"symbol support {supp[0]}..{supp[-1]} exceeds window [-{n}, {n}]")
    return TruncatedOperator.twisted(n, act, {g: f(g)[None].repeat(n + 1 - abs(g), axis=0) for g in supp})


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
