"""Traced in-process driver for `whlab` and the per-layer metrics it yields.

Run as a script, it wraps the public functions of every whlab layer, runs
`whlab.cli.main(argv)` once and writes the recorded spans to an `.npz` file:

    python bench/tracer.py SPANS.npz verify all --seed 3 --out report.json

The process exits with the CLI's own exit code.  Each span carries a name,
start, end and the index of its parent span; spans stay in memory until the
run ends.  `span_totals` and `layer_metrics` turn such files into the
per-layer metrics that `bench/run.py --trace 1` prints.

Wrapping covers every place a wrapped function is reachable from: the
defining module, every module that re-binds it with `from .x import f`, the
`suites.SUITES` table, and `TruncatedOperator.__matmul__` on its class.
Spans are recorded around calls into the program from the benchmark's own
code; nothing under `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "spectra",
    "sampling",
    "jordan",
    "moebius",
    "fell",
    "toeplitz",
    "groupoid",
    "fibers",
    "homotopy",
    "suites",
    "serialize",
    "cli",
)
SUITE_NAMES = ("moebius", "jordan", "fell", "toeplitz", "groupoid", "fibers", "homotopy")
MATMUL = "toeplitz.TruncatedOperator.__matmul__"


def _nonzero_blocks(blocks) -> int:
    """Number of (k x k) blocks of a TruncatedOperator with a nonzero entry."""
    return int(blocks.any(axis=(2, 3)).sum())


class Tracer:
    """Span recorder.  Span indices are taken on entry, so a parent's index
    is always smaller than its children's."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_matmul(self, args, result):
        for op in args[:2]:
            self.counters["toeplitz.matmul.nonzero_blocks"] += _nonzero_blocks(op.blocks)
            self.counters["toeplitz.matmul.blocks"] += op.blocks.shape[0] * op.blocks.shape[1]

    def _observe_lambda_rep(self, args, result):
        self.counters["groupoid.lambda_rep.nonzero_blocks"] += _nonzero_blocks(result.blocks)
        self.counters["groupoid.lambda_rep.cells"] += result.blocks.shape[0] * result.blocks.shape[1]

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"whlab.{layer}") for layer in LAYERS}
        observers = {"groupoid.lambda_rep": self._observe_lambda_rep}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, observers.get(name))
        # re-bound names (`from .spectra import operator_norm`) are separate
        # references to the same function objects
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        table = modules["suites"].SUITES
        for key, fn in table.items():
            table[key] = wrapped.get(fn, fn)
        cls = modules["toeplitz"].TruncatedOperator
        cls.__matmul__ = self.wrap(MATMUL, cls.__matmul__, self._observe_matmul)

    def save(self, path: str, main_s: float) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
            main_s=np.float64(main_s),
        )


def _descends_from(parent, is_target):
    """For each span, whether some ancestor satisfies is_target (pointer jumping)."""
    under = np.zeros(len(parent), dtype=bool)
    has = parent >= 0
    under[has] = is_target[parent[has]]
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return under
        under[live] |= under[anc[live]]
        nxt = np.full_like(anc, -1)
        nxt[live] = anc[anc[live]]
        anc = nxt


def span_totals(path) -> dict:
    """Summable totals of one traced invocation: calls and inclusive seconds
    per wrapped function, self seconds per layer, and the counters.

    A layer's self time is the time inside its wrapped functions minus the
    time of the wrapped calls they make.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        counters = dict(zip((str(k) for k in data["counter_names"]), data["counter_values"].tolist()))
        main_s = float(data["main_s"])

    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    k = len(names)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names])
    layer_self = np.bincount(layer_of[name], weights=dur - child, minlength=len(LAYERS))
    ids = {n: i for i, n in enumerate(names)}
    under_sep = _descends_from(parent, name == ids["moebius.separate_points"])
    counters["moebius.separation_probes"] = int(np.count_nonzero(under_sep & (name == ids["moebius.qset_contains"])))
    return {
        "calls": dict(zip(names, np.bincount(name, minlength=k).tolist())),
        "seconds": dict(zip(names, np.bincount(name, weights=dur, minlength=k).tolist())),
        "self": dict(zip(LAYERS, layer_self.tolist())),
        "counters": counters,
        "main_s": main_s,
    }


def add_totals(a: dict, b: dict) -> dict:
    out = {}
    for key in ("calls", "seconds", "self", "counters"):
        out[key] = {n: a[key].get(n, 0) + b[key].get(n, 0) for n in a[key].keys() | b[key].keys()}
    out["main_s"] = a["main_s"] + b["main_s"]
    return out


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics, as {name: (value, unit)}.  A ratio whose base
    is zero (the layer never ran) is reported as 0."""
    calls, seconds, counters = totals["calls"], totals["seconds"], totals["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": (totals["self"][layer], "s") for layer in LAYERS}
    m.update(
        {
            "spectra.operator_norm.calls": (calls["spectra.operator_norm"], "count"),
            "spectra.operator_norm.us_per_call": (
                1e6 * ratio(seconds["spectra.operator_norm"], calls["spectra.operator_norm"]),
                "us",
            ),
            "spectra.hermitian_eig.calls": (calls["spectra.hermitian_eig"], "count"),
            "spectra.unitary_eig.calls": (calls["spectra.unitary_eig"], "count"),
            "spectra.as_matrix.calls": (calls["spectra.as_matrix"], "count"),
            "spectra.guard.calls": (calls["spectra.assert_hermitian"] + calls["spectra.assert_unitary"], "count"),
            "moebius.boxplus.calls": (calls["moebius.boxplus"], "count"),
            "moebius.qset_contains.calls": (calls["moebius.qset_contains"], "count"),
            "moebius.probes_per_separation": (
                ratio(counters["moebius.separation_probes"], calls["moebius.separate_points"]),
                "ratio",
            ),
            "jordan.generate_algebra.s": (seconds["jordan.generate_algebra"], "s"),
            "toeplitz.matmul.calls": (calls[MATMUL], "count"),
            "toeplitz.matmul.s": (seconds[MATMUL], "s"),
            "toeplitz.matmul.block_fill": (
                ratio(counters.get("toeplitz.matmul.nonzero_blocks", 0), counters.get("toeplitz.matmul.blocks", 0)),
                "share",
            ),
            "toeplitz.wiener_hopf.s": (seconds["toeplitz.wiener_hopf"], "s"),
            "groupoid.lambda_rep.calls": (calls["groupoid.lambda_rep"], "count"),
            "groupoid.lambda_rep.s": (seconds["groupoid.lambda_rep"], "s"),
            "groupoid.lambda_rep.fill": (
                ratio(
                    counters.get("groupoid.lambda_rep.nonzero_blocks", 0),
                    counters.get("groupoid.lambda_rep.cells", 0),
                ),
                "share",
            ),
            "groupoid.convolve.calls": (calls["groupoid.convolve"], "count"),
            "sampling.calls": (sum(v for n, v in calls.items() if n.startswith("sampling.")), "count"),
            "serialize.canonical_json.s": (seconds["serialize.canonical_json"], "s"),
        }
    )
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.s"] = (seconds[f"suites.suite_{suite}"], "s")
    return m


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer()
    tracer.install()
    from whlab import cli

    start = time.perf_counter()
    rc = cli.main(cli_argv)
    main_s = time.perf_counter() - start
    tracer.save(spans_path, main_s)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
