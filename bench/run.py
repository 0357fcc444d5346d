"""End-to-end benchmark of `whlab verify`, with a traced per-layer mode.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout; the program is taken from `src/` of that
checkout.  Each operation is one or more fresh `python -m whlab.cli verify
... --out FILE` processes, because users pay interpreter start, imports and
BLAS warm-up once per invocation.  One client runs one operation at a time (a
closed loop).  Operation i of a run gets `--seed S+i`; operation 0 runs twice,
and the two reports must be byte-identical.  Another operation starts while
half the median operation still fits in the `--seconds` window.

Every report is checked: exit code, parse, echoed config, the expected case
names, and every case `pass`.  A case counts as failed when its status is not
`pass`, or when its operation crashed or failed one of these checks; the
final line's `attempted` and `failed` count cases, so their ratio is the
`case_fail_share`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs the operation at seed S once untraced and then at least twice under
`bench/tracer.py`, checks that the traced reports and `.calls` counts repeat
exactly, and prints the per-layer metrics.  The last line of stdout is the
result JSON; the lines before it are the environment and every metric with
its unit.  Per-operation progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# A suite and the config fields it overrides; unspecified fields keep the CLI
# defaults below.
WORKLOADS = {
    # The run users make.  Per-call overhead of spectra on d <= 4 matrices,
    # reached through moebius, dominates; batching and guard de-duplication
    # show here.
    "verify-all": [("all", {})],
    # Dense truncated Toeplitz work at N = 64: lambda_rep's (N+1)^2 cell scan
    # and BLAS-threaded matmuls.  spectra is nearly idle, so a spectra change
    # must read as no change here.
    "wiener-hopf-n64": [("groupoid", {"n": 64}), ("toeplitz", {"n": 64})],
    # The same spectra/moebius kernels on larger matrices with few trials, so
    # arithmetic outweighs call overhead; also most of jordan's work.
    "large-dim": [("moebius", {"dim": 8, "trials": 10}), ("jordan", {"dim": 6, "trials": 10})],
}

CLI_DEFAULTS = {"dim": 4, "trials": 40, "tol": 1e-9, "n": 16, "grid_step": 0.25, "model": None}
FLAGS = {"dim": "--dim", "trials": "--trials", "tol": "--tol", "n": "--N", "grid_step": "--grid-step", "model": "--model"}

EXPECTED_CASES = {
    "fell": [
        "fell.canonical_limits",
        "fell.mutation_strict_inequality",
        "fell.orbit_continuity",
        "fell.p_invariance",
        "fell.qset_vs_membership",
    ],
    "fibers": [
        "fibers.action_welldefined",
        "fibers.cstar_seminorm",
        "fibers.dilation",
        "fibers.kernel_identity",
        "fibers.mutation_wrong_window",
        "fibers.quotient_oracle",
        "fibers.usc_infinity",
    ],
    "groupoid": [
        "groupoid.algebra",
        "groupoid.central_identity",
        "groupoid.hat_laws",
        "groupoid.lambda_bound",
        "groupoid.mutation_unreflected_hat",
        "groupoid.shift_laws",
        "groupoid.star_hom_interior",
        "groupoid.units_agree",
    ],
    "homotopy": ["homotopy.halfline", "homotopy.mutants_flagged", "homotopy.unitary"],
    "jordan": ["jordan.closure_idempotent", "jordan.cone_axioms", "jordan.mutation_order_sign"],
    "moebius": [
        "moebius.action_law",
        "moebius.cayley_equivariance",
        "moebius.contraction_chart",
        "moebius.contraction_range",
        "moebius.invertibility_margin",
        "moebius.mutation_sign_flip",
        "moebius.pair_roundtrip",
        "moebius.pair_translation",
        "moebius.qset_a2",
        "moebius.separate_points",
        "moebius.z_stability",
    ],
    "toeplitz": [
        "toeplitz.adjoint_symbol",
        "toeplitz.covariance",
        "toeplitz.intertwine",
        "toeplitz.isometry_laws",
        "toeplitz.mutation_shift_direction",
        "toeplitz.symbol_product_interior",
    ],
}
EXPECTED_CASES["all"] = sorted(name for names in EXPECTED_CASES.values() for name in names)

END_TO_END_UNITS = {
    "verify_s": "s",
    "verify_s_tail": "s",
    "verify_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PER_OP = 2
MIN_OPS = 3  # operation 0, its determinism repeat, one more seed
MIN_TRACED_OPS = 2
HARD_LIMIT_S = 170.0  # the whole run, children included, ends before this
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Run:
    """One benchmark run: its scratch directory, child environment and deadline."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.hard_deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ)
        # the program receives only the generated config
        self.env.pop("WHLAB_TOL", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.counter = 0

    def spawn(self, argv: list) -> tuple[int, float, str]:
        """Run a child to completion; returns (exit code, wall seconds, stderr tail)."""
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return -1, time.perf_counter() - t0, "timed out"
        wall = time.perf_counter() - t0
        return proc.returncode, wall, proc.stderr.decode(errors="replace")[-400:]

    def path(self, stem: str) -> Path:
        self.counter += 1
        return self.workdir / f"{self.counter:04d}-{stem}"


def verify_argv(suite: str, overrides: dict, seed: int, out: Path, extra=()) -> list:
    argv = ["verify", suite, "--seed", str(seed)]
    for key, value in overrides.items():
        argv += [FLAGS[key], str(value)]
    return argv + list(extra) + ["--out", str(out)]


def check_report(raw: bytes | None, rc: int, suite: str, overrides: dict, seed: int) -> tuple[int, str | None]:
    """Failed-case count of one invocation and the reason the whole
    invocation failed (None when its structure checks pass)."""
    expected = EXPECTED_CASES[suite]
    if rc not in (0, 1):
        return len(expected), f"exit code {rc}"
    try:
        report = json.loads(raw)
        echoed = report["config"]
        names = [c["name"] for c in report["cases"]]
        statuses = [c["status"] for c in report["cases"]]
    except (TypeError, ValueError, KeyError):
        return len(expected), "report missing or malformed"
    config = {**CLI_DEFAULTS, **overrides, "suite": suite, "seed": seed}
    if echoed != config:
        return len(expected), f"echoed config {echoed} != {config}"
    if names != expected:
        return len(expected), f"case names differ from the {len(expected)} expected for {suite!r}"
    bad = sum(status != "pass" for status in statuses)
    if (rc == 1) != (bad > 0):
        return len(expected), f"exit code {rc} with {bad} failing cases"
    return bad, None


def run_operation(run: Run, invocations, seed: int, traced: bool = False, extra=()) -> dict:
    """One operation: its invocations in order, each a fresh process."""
    wall = 0.0
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    outputs = []
    for suite, overrides in invocations:
        out = run.path(f"{suite}.json")
        argv = verify_argv(suite, overrides, seed, out, extra)
        if traced:
            spans = run.path(f"{suite}.npz")
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans)] + argv
        else:
            spans = None
            cmd = [sys.executable, "-m", "whlab.cli"] + argv
        rc, seconds, err = run.spawn(cmd)
        wall += seconds
        outputs.append((suite, overrides, rc, out, spans, err))
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    expected = failed = 0
    reports, problems, spans_files = [], [], []
    for suite, overrides, rc, out, spans, err in outputs:
        raw = out.read_bytes() if out.exists() else None
        bad, problem = check_report(raw, rc, suite, overrides, seed)
        expected += len(EXPECTED_CASES[suite])
        failed += bad
        reports.append(raw)
        spans_files.append(spans)
        if problem:
            problems.append(f"{suite}: {problem}; stderr: {err.strip()[-200:]}")
    return {
        "seed": seed,
        "wall": wall,
        "cpu": cpu,
        "expected": expected,
        "failed": failed,
        "problems": problems,
        "reports": reports,
        "spans": spans_files,
    }


def fail_operation(op: dict, problem: str) -> None:
    """Mark every expected case of an operation failed."""
    op["failed"] = op["expected"]
    op["problems"].append(problem)


def time_setup(run: Run, count: int = SETUP_PER_OP) -> list:
    """Wall seconds for a fresh interpreter to import whlab.cli and exit.
    Taken before every operation, so the samples spread over the run."""
    samples = []
    for _ in range(count):
        rc, wall, err = run.spawn([sys.executable, "-c", "import whlab.cli"])
        if rc != 0:
            raise RuntimeError(f"importing whlab.cli failed: {err.strip()}")
        samples.append(wall)
    return samples


def environment(run: Run) -> dict:
    """Machine and library versions, measured in a child like the operations."""
    probe = (
        "import json, platform, numpy\n"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': cfg.get('name'), 'blas_version': cfg.get('version')}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=run.env, capture_output=True, text=True, timeout=60
    )
    env = json.loads(proc.stdout) if proc.returncode == 0 else {"probe_error": proc.stderr.strip()[-200:]}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env.update(
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        cpu_model=cpu_model,
        blas_thread_vars={k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    )
    return env


class Window:
    """The measurement window.  Another step starts only when half the
    median step so far still fits, so a run ends near its deadline on
    average rather than always one step late."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.steps = []
        self.began = 0.0

    def begin(self) -> None:
        self.began = time.perf_counter()

    def end(self) -> None:
        self.steps.append(time.perf_counter() - self.began)

    def has_room(self) -> bool:
        return time.perf_counter() + statistics.median(self.steps) / 2 < self.deadline


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, beyond) of the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum (p100)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 11 if n >= 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def run_untraced(run: Run, invocations, seed: int, seconds: float, started: float, extra=()) -> tuple[list, list]:
    time_setup(run, 1)  # unmeasured: fills the byte-code caches users already have
    setup = []
    window = Window(started + seconds)
    ops = []
    while len(ops) < MIN_OPS or window.has_room():
        window.begin()
        setup += time_setup(run)
        op_seed = seed + max(len(ops) - 1, 0)
        op = run_operation(run, invocations, op_seed, extra=extra)
        if len(ops) == 1 and op["reports"] != ops[0]["reports"]:
            fail_operation(op, f"seed {op_seed} repeated gave different report bytes")
        ops.append(op)
        window.end()
        print(f"op {len(ops) - 1} seed {op_seed}: {op['wall']:.3f} s wall, {op['cpu']:.3f} s cpu, "
              f"{op['failed']}/{op['expected']} failed {op['problems']}", file=sys.stderr, flush=True)
    return setup, ops


def end_to_end(setup: list, ops: list) -> dict:
    walls = [op["wall"] for op in ops]
    value, pct, beyond = tail(walls)
    print(f"verify_s_tail is p{pct:g} of {len(walls)} operations ({beyond} beyond it)")
    metrics = {
        "verify_s": statistics.median(walls),
        "verify_s_tail": value,
        "verify_cpu_s": statistics.median(op["cpu"] for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(run: Run, invocations, seed: int, seconds: float, started: float) -> tuple[dict, list]:
    from tracer import add_totals, layer_metrics, span_totals

    time_setup(run, 1)  # unmeasured: fills the byte-code caches users already have
    setup = []
    window = Window(started + seconds)
    untraced, traced = [], []
    # untraced and traced operations alternate, so both see the same machine
    while len(traced) < MIN_TRACED_OPS or window.has_room():
        window.begin()
        setup += time_setup(run)
        untraced.append(run_operation(run, invocations, seed))
        op = run_operation(run, invocations, seed, traced=True)
        if op["reports"] != untraced[0]["reports"] or untraced[-1]["reports"] != untraced[0]["reports"]:
            fail_operation(op, "report bytes differ between runs of one seed, traced or not")
        parts = [span_totals(p) for p in op["spans"] if p.exists()]
        if len(parts) == len(invocations):
            op["totals"] = parts[0]
            for part in parts[1:]:
                op["totals"] = add_totals(op["totals"], part)
            first = traced[0].get("totals") if traced else None
            if first and (op["totals"]["calls"], op["totals"]["counters"]) != (first["calls"], first["counters"]):
                fail_operation(op, "call counts differ between traced runs of one seed")
        else:
            fail_operation(op, "traced run wrote no spans")
        traced.append(op)
        window.end()
        print(f"seed {seed}: untraced {untraced[-1]['wall']:.3f} s, traced {op['wall']:.3f} s wall, "
              f"{op['failed']}/{op['expected']} failed {op['problems']}", file=sys.stderr, flush=True)

    per_op = [layer_metrics(op["totals"]) for op in traced if "totals" in op]
    metrics = {}
    for name, (value, unit) in (per_op[0] if per_op else {}).items():
        if unit == "s" or unit == "us":
            value = statistics.median(m[name][0] for m in per_op)
        metrics[name] = (value, unit)
    if per_op:
        main_s = statistics.median(op["totals"]["main_s"] for op in traced if "totals" in op)
        plain = statistics.median(op["wall"] for op in untraced) - len(invocations) * statistics.median(setup)
        metrics["trace.overhead_s"] = (main_s - plain, "s")
    return metrics, untraced + traced


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")


def measure(invocations, seed: int, seconds: float, trace: bool, extra=()) -> dict:
    """One run of a workload; returns the result object of the last line."""
    started = time.perf_counter()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workdir, started)
        print(json.dumps({"environment": environment(run)}))
        if trace:
            metrics, ops = run_traced(run, invocations, seed, seconds, started)
        else:
            setup, ops = run_untraced(run, invocations, seed, seconds, started, extra)
            metrics = end_to_end(setup, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    expected = sum(op["expected"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    print(f"case_fail_share: {failed / expected!r} share ({failed} of {expected} cases)")
    print_metrics(metrics)
    for op in ops:
        for problem in op["problems"]:
            print(f"seed {op['seed']}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": expected,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "whlab" / "cli.py").is_file():
        print(f"error: no whlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
