"""Command-line driver.

    whlab verify <suite> [--dim D] [--trials T] [--seed S] [--tol E]
                 [--N n] [--grid-step h] [--model M] [--out FILE]
    whlab fell converge --input sets.json [--out FILE]

Suites: moebius, jordan, fell, toeplitz, groupoid, fibers, homotopy, all.
The default tolerance comes from the WHLAB_TOL environment variable when set.

Cases that take --tol: moebius.action_law, moebius.cayley_equivariance,
moebius.qset_a2, fibers.kernel_identity and fibers.usc_infinity.  Every other
case judges against a named constant of whlab.suites (MARGIN_FLOOR,
CONTRACTION_TOL, PAIR_TOL, ALGEBRA_TOL, SEMINORM_TOL, ROUNDING_TOL, ZERO_TOL
and the three mutation gaps); the README maps each case to its constant.  --N is a floor: the Toeplitz and groupoid cases truncate at
max(N, 16) or max(N, 24), groupoid.algebra always at 14 and
groupoid.lambda_bound always at 12; groupoid.shift_laws ignores --N (its
window is fixed at 14).

Exit codes: 0 success, 1 verification failure, 2 usage error (unknown suite,
unreadable input, malformed JSON, a --tol, WHLAB_TOL or --grid-step that is not
a positive finite number, --dim, --trials or --N below 1), 3 report write
failure.  Reports are emitted as canonical JSON (sorted keys, floats with 17
significant digits), so a fixed (config, seed) pair produces byte-identical
files; wall time is printed to the console only.

Threads: the checks run on matrices of at most a few hundred rows, where a
BLAS thread pool buys no speed and spends CPU, and where a product's rounding
can depend on how many threads split it.  So importing this module sets each
BLAS/OpenMP thread variable that is not already set to 1, before numpy is
loaded; a value set in the environment wins.  In a process that loaded numpy
earlier, with OPENBLAS_NUM_THREADS unset, its pool read no variable: there
main() holds the OpenBLAS of a numpy wheel at one thread for the run, through
OpenBLAS's own setter.  A report's bytes then do not depend on the core count
unless such a variable is set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# a numpy loaded before this module started its BLAS pool without the variables below
_PIN_LOADED_POOL = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
# before the imports that load numpy: its BLAS reads these once, at load time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import serialize, suites
from .errors import InputValidationError, WhlabError
from .fell import fell_limit

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

SUITE_CHOICES = sorted(suites.SUITES) + ["all"]


def _default_tol() -> float:
    raw = os.environ.get("WHLAB_TOL")
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputValidationError(f"WHLAB_TOL is not a number: {raw!r}") from exc
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_CHOICES)
    verify.add_argument("--dim", type=int, default=4, help="maximum matrix dimension swept")
    verify.add_argument("--trials", type=int, default=40)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--N", dest="n", type=int, default=16, help="truncation level")
    verify.add_argument("--grid-step", type=float, default=0.25)
    verify.add_argument("--model", choices=["halfline", "unitary"], default=None)
    verify.add_argument("--out", default=None, help="write the JSON report here")
    verify.add_argument(
        "--inject-failure",
        action="store_true",
        help="append an always-failing case (exercise the failure exit path)",
    )

    fell_cmd = sub.add_parser("fell", help="Fell topology utilities")
    fell_sub = fell_cmd.add_subparsers(dest="fell_command", required=True)
    converge = fell_sub.add_parser("converge", help="test a closed-set sequence for convergence")
    converge.add_argument("--input", required=True, help="set-sequence JSON file")
    converge.add_argument("--out", default=None)

    return parser


def _emit(report_obj: dict, path: str | None) -> int:
    payload = serialize.canonical_json(report_obj) + "\n"
    if path is None:
        sys.stdout.write(payload)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _run_verify(args) -> int:
    try:
        cfg = suites.SuiteConfig(
            suite=args.suite,
            dim=args.dim,
            trials=args.trials,
            seed=args.seed,
            tol=args.tol if args.tol is not None else _default_tol(),
            n=args.n,
            grid_step=args.grid_step,
            model=args.model,
        )
        outcome = suites.run(cfg, inject_failure=args.inject_failure)
    except InputValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = outcome["report"]
    for case in report["cases"]:
        line = f"[{case['status']:>4}] {case['name']}"
        if case["max_error"] is not None and case["tolerance"] is not None:
            line += f"  max_error={case['max_error']:.3e}  tol={case['tolerance']:.1e}"
        if case["details"]:
            line += f"  ({case['details']})"
        print(line, file=sys.stderr)
    print(f"wall_time: {outcome['wall_time']:.2f}s", file=sys.stderr)

    emit_status = _emit(report, args.out)
    if emit_status != EXIT_OK:
        return emit_status
    return EXIT_VERIFICATION if outcome["failed"] else EXIT_OK


def _run_fell_converge(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        print(f"usage error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"usage error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        seq = serialize.set_sequence_from_json(obj)
        result = fell_limit(seq)
    except WhlabError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = {
        "suite": "fell_converge",
        "converged": result.converged,
        "grid": [float(p) for p in result.grid],
        "liminf": [bool(b) for b in result.liminf_mask],
        "limsup": [bool(b) for b in result.limsup_mask],
    }
    verdict = "converged" if result.converged else "diverges"
    print(f"sequence {verdict}", file=sys.stderr)
    return _emit(report, args.out)


def _bundled_openblas_threads():
    """The get and set thread-count functions of the OpenBLAS that the numpy
    wheel bundles, or None for another BLAS."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # the library numpy already loaded
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """One OpenBLAS thread for the run when numpy's pool missed the variables
    (see the module docstring); the earlier count afterwards."""
    threads = _bundled_openblas_threads() if _PIN_LOADED_POOL else None
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _one_blas_thread():
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "fell":
            return _run_fell_converge(args)
    parser.error("unknown command")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
