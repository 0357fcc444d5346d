"""Truncated Wiener-Hopf operators for the discrete model P = N inside Z.

Operators live on l^2({0..N}) tensor M_k and are stored as (N+1) x (N+1)
arrays of k x k blocks.  The generators are

* ``rep_pi(x)``      block diagonal with alpha_m(x) at position m,
* ``isometry_V(a)``  the block shift (V_a xi)(m) = xi(m - a),
* ``wiener_hopf(f)`` the twisted Toeplitz operator with block
                     alpha_m(f(g)) at row m, column m - g.

Every alpha_m, here and in the groupoid module, is read off one power table:
the stack G^0..G^n that ``EndomorphismAction.powers`` builds by n products.

Truncation convention: a TruncatedOperator is the compression of the
corresponding operator on l^2(N).  Identities about composites (covariance,
isometry laws) are stated for the infinite-lattice product; compressing that
product is NOT the same as multiplying compressions, because the shift pushes
the top of the window out.  Where an identity closes on the lattice, the
composite is therefore evaluated with shift headroom (an enlarged internal
window) and compressed at the end, which reproduces the compression of the
true product exactly.  Products of symbols do leak at the boundary and are
only compared on interior blocks.

The modular factor is identically 1 here (Z is unimodular); the reflected
symbol needed for adjoints lives in the groupoid module's hat map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputValidationError, WindowOverflowError
from .fell import integer_value

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
        self.generator = np.asarray(self.generator, dtype=np.complex128)
        kk = self.k * self.k
        if self.generator.shape != (kk, kk):
            raise InputValidationError(f"generator must be {kk}x{kk}")
        self._validate_star_hom()
        self.injective = bool(np.linalg.matrix_rank(self.generator, tol=1e-9) == kk)
        self._inverse = np.linalg.inv(self.generator) if self.injective else None

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
        """G^0..G^n for the generator G (its inverse with ``inverse``), stacked by n products."""
        if inverse and self._inverse is None:
            raise InputValidationError("negative powers need an automorphic action")
        base = self._inverse if inverse else self.generator
        table = np.empty((n + 1,) + base.shape, dtype=np.complex128)
        table[0] = np.eye(len(base))
        for m in range(n):
            np.matmul(base, table[m], out=table[m + 1])
        return table

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
        negative = bool(np.any(ms < 0))
        if negative and np.any(ms > 0):
            raise InputValidationError("exponents of both signs need two tables")
        table = self.powers(int(np.max(np.abs(ms), initial=0)), inverse=negative)
        vecs = np.broadcast_to(xs, ms.shape + (self.k, self.k)).reshape(ms.shape + (self.k * self.k, 1))
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


@dataclass
class TruncatedOperator:
    """Compression of an operator on l^2(N) tensor M_k to positions {0..N}."""

    n: int
    k: int
    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=np.complex128)
        expected = (self.n + 1, self.n + 1, self.k, self.k)
        if self.blocks.shape != expected:
            raise InputValidationError(f"blocks must have shape {expected}")
        if not (np.all(np.isfinite(self.blocks.real)) and np.all(np.isfinite(self.blocks.imag))):
            raise InputValidationError("non-finite block entries")

    @classmethod
    def zeros(cls, n: int, k: int) -> "TruncatedOperator":
        return cls(n, k, np.zeros((n + 1, n + 1, k, k), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int, k: int) -> "TruncatedOperator":
        out = cls.zeros(n, k)
        for m in range(n + 1):
            out.blocks[m, m] = np.eye(k)
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The assembled ((N+1)k) x ((N+1)k) matrix."""
        return self.blocks.transpose(0, 2, 1, 3).reshape((self.n + 1) * self.k, -1)

    @classmethod
    def from_matrix(cls, n: int, k: int, matrix: np.ndarray) -> "TruncatedOperator":
        blocks = matrix.reshape(n + 1, k, n + 1, k).transpose(0, 2, 1, 3)
        return cls(n, k, blocks)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.n, self.k, self.blocks.transpose(1, 0, 3, 2).conj())

    def _same_shape(self, other: "TruncatedOperator") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise InputValidationError("operator shapes disagree")

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_shape(other)
        return TruncatedOperator.from_matrix(self.n, self.k, self.matrix @ other.matrix)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_shape(other)
        return TruncatedOperator(self.n, self.k, self.blocks + other.blocks)

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        self._same_shape(other)
        return TruncatedOperator(self.n, self.k, self.blocks - other.blocks)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def subwindow(self, m: int) -> "TruncatedOperator":
        """Compress further to positions {0..m}."""
        if m > self.n:
            raise WindowOverflowError(f"cannot grow window from {self.n} to {m}")
        return TruncatedOperator(m, self.k, self.blocks[: m + 1, : m + 1].copy())

    def interior(self, margin: int) -> np.ndarray:
        """The assembled matrix restricted to rows/columns margin..N-margin."""
        if 2 * margin > self.n:
            raise WindowOverflowError(f"margin {margin} empties the window N={self.n}")
        sub = self.blocks[margin : self.n + 1 - margin, margin : self.n + 1 - margin]
        m = sub.shape[0]
        return sub.transpose(0, 2, 1, 3).reshape(m * self.k, -1)


def rep_pi(x, act: EndomorphismAction, n: int) -> TruncatedOperator:
    """Block-diagonal representation with alpha_m(x) at position m."""
    out = TruncatedOperator.zeros(n, act.k)
    m = np.arange(n + 1)
    out.blocks[m, m] = act.alpha(m, x)
    return out


def isometry_V(a: int, n: int, k: int = 1) -> TruncatedOperator:
    """Compression of the shift (V_a xi)(m) = xi(m - a)."""
    if a < 0 or a > n:
        raise WindowOverflowError(f"shift {a} outside truncation 0..{n}")
    out = TruncatedOperator.zeros(n, k)
    for m in range(a, n + 1):
        out.blocks[m, m - a] = np.eye(k)
    return out


def wiener_hopf(f: SymbolFunction, act: EndomorphismAction, n: int) -> TruncatedOperator:
    """Twisted Toeplitz operator: row m, column m-g carries alpha_m(f(g))."""
    if f.k != act.k:
        raise InputValidationError("symbol and action fiber dimensions disagree")
    supp = f.support
    if supp and (supp[0] < -n or supp[-1] > n):
        raise WindowOverflowError(f"symbol support {supp[0]}..{supp[-1]} exceeds window [-{n}, {n}]")
    out = TruncatedOperator.zeros(n, act.k)
    gs = np.array(list(f.values), dtype=np.int64)
    values = np.array(list(f.values.values())).reshape(-1, act.k, act.k)
    m = np.arange(n + 1)[:, None]
    rows, which = np.nonzero((m >= gs) & (m - gs <= n))
    out.blocks[rows, rows - gs[which]] = act.alpha(rows, values[which])
    return out


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
    return (composite - expected).norm()
