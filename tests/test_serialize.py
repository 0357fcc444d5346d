"""JSON codec round-trips and canonical emission."""

import numpy as np
import pytest

from whlab import fell, serialize
from whlab.errors import InputValidationError
from whlab.fibers import PiecewisePoly, TrigPoly
from whlab.groupoid import Window, delta_section, trivial_bundle
from whlab.jordan import generate_algebra
from whlab.sampling import random_complex, random_hermitian
from whlab.toeplitz import SymbolFunction


def test_matrix_roundtrip(rng):
    m = random_complex(rng, 3)
    obj = serialize.matrix_to_json(m)
    assert obj["d"] == 3
    assert np.allclose(serialize.matrix_from_json(obj), m)


def test_matrix_malformed():
    with pytest.raises(InputValidationError):
        serialize.matrix_from_json({"d": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(InputValidationError):
        serialize.matrix_from_json({"re": [[1.0]]})


def test_algebra_roundtrip(rng):
    alg = generate_algebra([random_hermitian(rng, 2)], dim=2)
    back = serialize.algebra_from_json(serialize.algebra_to_json(alg))
    assert back.dim == alg.dim and back.rank == alg.rank


def test_algebra_basis_of_wrong_size_rejected():
    obj = {"d": 2, "basis": [serialize.matrix_to_json(np.eye(3))]}
    with pytest.raises(InputValidationError):
        serialize.algebra_from_json(obj)


def test_symbol_roundtrip(rng):
    f = SymbolFunction(k=2, values={-1: random_complex(rng, 2), 3: random_complex(rng, 2)})
    back = serialize.symbol_from_json(serialize.symbol_to_json(f))
    assert back.support == f.support
    for g in f.values:
        assert np.allclose(back(g), f(g))


def test_section_roundtrip():
    window = Window(max_x=5, max_g=5)
    s = delta_section(trivial_bundle(1), window, (2, 1), np.array([[1.5 + 2j]]))
    s.set((fell.INF, -3), np.array([[0.5j]]))
    items = serialize.section_to_json(s)
    back = serialize.section_from_json(items, max_x=5, max_g=5)
    for e in s.values:
        assert np.allclose(back(e), s(e))


def test_fiber_valued_section_roundtrip():
    from whlab.fibers import QuotientFiberBundle
    from whlab.groupoid import GroupoidSection

    bundle = QuotientFiberBundle()
    window = Window(max_x=5, max_g=5)
    s = GroupoidSection(bundle, window)
    s.set((2, 1), PiecewisePoly.from_breakpoints([0.0, 0.5, 1.0], [1.0, -1.0, 2.0]))
    items = serialize.section_to_json(s)
    assert items[0]["value"]["fiber"] == "piecewise"
    back = serialize.section_from_json(items, max_x=5, max_g=5, bundle=bundle)
    for t in np.linspace(0, 1, 9):
        assert back((2, 1))(float(t)) == pytest.approx(s((2, 1))(float(t)))


def test_set_sequence_parsing():
    obj = {
        "ambient": "R",
        "window": [-2.0, 2.0],
        "step": 0.5,
        "sets": [
            {"kind": "ray", "endpoint": 0.0},
            {"kind": "interval", "lo": -1.0, "hi": 1.0},
            {"kind": "points", "points": [0.5, 1.5]},
        ],
    }
    seq = serialize.set_sequence_from_json(obj)
    assert len(seq) == 3
    assert seq[0].membership(-1.0) and not seq[0].membership(0.5)
    assert seq[1].membership(0.0) and not seq[1].membership(1.5)
    assert seq[2].membership(0.5) and not seq[2].membership(0.0)
    with pytest.raises(InputValidationError):
        serialize.set_sequence_from_json({"ambient": "R", "window": [0, 1], "sets": [{"kind": "blob"}]})


def test_piecewise_roundtrip():
    f = PiecewisePoly.from_breakpoints([0.0, 0.25, 1.0], [1.0, -2.0, 3.0])
    back = serialize.piecewise_from_json(serialize.piecewise_to_json(f))
    for t in np.linspace(0, 1, 21):
        assert back(float(t)) == pytest.approx(f(float(t)))


def test_trig_roundtrip():
    f = TrigPoly({-2: 1.5 + 0.5j, 0: -1.0, 3: 2j})
    back = serialize.trig_from_json(serialize.trig_to_json(f))
    assert back.coeff_distance(f) == 0.0


def test_canonical_json_is_sorted_and_stable():
    obj = {"b": 1, "a": [1.0, 0.5, None, True], "c": {"y": 2.0, "x": "s"}}
    out = serialize.canonical_json(obj)
    assert out == '{"a":[1.0,0.5,null,true],"b":1,"c":{"x":"s","y":2.0}}'
    assert serialize.canonical_json(obj) == out


def test_canonical_json_float_formatting():
    assert serialize.canonical_json(0.1) == "0.10000000000000001"
    assert serialize.canonical_json(2.0) == "2.0"
    with pytest.raises(InputValidationError):
        serialize.canonical_json(float("inf"))
