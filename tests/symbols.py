"""Test helpers for symbols written as dicts.

``symbol`` turns a dict g -> k x k value into a ``SymbolFunction`` over the
smallest window that holds its keys.  ``dict_convolve``,
``dict_twisted_reflection`` and ``dict_combine`` are the per-entry dict loops
of the convolution, the twisted reflection and the linear combinations, one
matrix product, alpha call or scaled add per key or pair of keys; they are
the oracle for the array operations of ``SymbolFunction``.
"""

import numpy as np

from whlab.toeplitz import SymbolFunction


def symbol(values: dict, k: int = 1) -> SymbolFunction:
    """The symbol with f(g) = values[g] and zero off the keys."""
    lo = min(values, default=0)
    out = np.zeros((max(values, default=0) - lo + 1, k, k), dtype=np.complex128)
    for g, v in values.items():
        out[g - lo] = v
    return SymbolFunction(lo, out)


def dict_convolve(f: dict, h: dict) -> dict:
    """sum_t f(t) h(g - t), one product per pair of keys."""
    out: dict = {}
    for t, vt in f.items():
        for s, vs in h.items():
            out[t + s] = out.get(t + s, 0) + np.asarray(vt) @ np.asarray(vs)
    return out


def dict_twisted_reflection(f: dict, act) -> dict:
    """f deg(-g) = alpha_g(f(g)*), one alpha call per key."""
    return {-g: act.alpha(g, np.asarray(v).conj().T) for g, v in f.items()}


def dict_combine(f: dict, h: dict, b: complex = 1.0, a: complex = 1.0) -> dict:
    """a f + b h, one scaled add per key."""
    out = {g: a * np.asarray(v) for g, v in f.items()}
    for g, v in h.items():
        out[g] = out.get(g, 0) + b * np.asarray(v)
    return out
