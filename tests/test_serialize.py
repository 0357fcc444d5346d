"""Set-sequence parsing and canonical emission."""

import pytest

from whlab import serialize
from whlab.errors import InputValidationError


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
