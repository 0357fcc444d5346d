"""JSON codecs for the file formats the CLI consumes and produces.

Input (``whlab fell converge``):
  set sequence  {"ambient": "R"|"Z", "window": [lo, hi], "step": h,
                 "sets": [{"kind": "ray", "endpoint": x} |
                          {"kind": "interval", "lo": a, "hi": b} |
                          {"kind": "points", "points": [...]}]}

Output: report emission is bit-stable: keys sorted, floats rendered with 17
significant digits, so identical (config, seed) runs produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputValidationError
from .fell import finite_set, interval, ray


def set_sequence_from_json(obj: dict) -> list:
    """The closed sets of a set-sequence object; a malformed field raises
    InputValidationError."""
    try:
        ambient = obj["ambient"]
        window = tuple(float(v) for v in obj["window"])
        step = float(obj.get("step", 1.0))
        out = []
        for item in obj["sets"]:
            kind = item.get("kind")
            if kind == "ray":
                out.append(ray(float(item["endpoint"]), ambient, window, step))
            elif kind == "interval":
                out.append(interval(float(item["lo"]), float(item["hi"]), ambient, window, step))
            elif kind == "points":
                out.append(finite_set(item["points"], ambient, window, step))
            else:
                raise InputValidationError(f"unknown set kind {kind!r}")
        return out
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputValidationError(f"malformed set sequence: {exc}") from exc


# ---------------------------------------------------------------------------
# bit-stable JSON emission


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise InputValidationError("reports must not contain non-finite floats")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{canonical_json(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise InputValidationError(f"cannot serialize {type(obj).__name__}")
