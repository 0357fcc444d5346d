"""Command-line driver contract tests: exit codes, determinism, file I/O."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from whlab import cli


def run_cli(args):
    return cli.main(args)


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "nonsense"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "args, env_tol",
    [
        (["--tol", "nan"], None),
        (["--tol", "inf"], None),
        ([], "nan"),
        ([], "abc"),
        (["--grid-step", "nan"], None),
        (["--N", "-1"], None),
    ],
)
def test_bad_input_is_usage_error(args, env_tol, monkeypatch, capsys):
    if env_tol is not None:
        monkeypatch.setenv("WHLAB_TOL", env_tol)
    assert run_cli(["verify", "fell"] + args) == cli.EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err


def test_jordan_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "jordan", "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["suite"] == "jordan"
    assert all(case["status"] == "pass" for case in report["cases"])
    names = [case["name"] for case in report["cases"]]
    assert names == sorted(names)


def test_report_bytes_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["verify", "fell", "--seed", "11", "--out", str(a)]) == cli.EXIT_OK
    assert run_cli(["verify", "fell", "--seed", "11", "--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_homotopy_model_flag(tmp_path):
    out = tmp_path / "h.json"
    code = run_cli(["verify", "homotopy", "--model", "halfline", "--trials", "10", "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    names = [case["name"] for case in report["cases"]]
    assert "homotopy.halfline" in names
    assert "homotopy.unitary" not in names


def test_injected_failure_exit_code_and_file(tmp_path):
    out = tmp_path / "fail.json"
    code = run_cli(["verify", "jordan", "--inject-failure", "--out", str(out)])
    assert code == cli.EXIT_VERIFICATION
    report = json.loads(out.read_text())
    statuses = {case["name"]: case["status"] for case in report["cases"]}
    assert statuses["injected_failure"] == "fail"


def test_unwritable_output_is_io_error(tmp_path):
    code = run_cli(["verify", "jordan", "--out", str(tmp_path)])  # a directory
    assert code == cli.EXIT_IO


def test_env_tolerance_default(tmp_path, monkeypatch):
    out = tmp_path / "env.json"
    monkeypatch.setenv("WHLAB_TOL", "1e-7")
    assert run_cli(["verify", "jordan", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["tol"] == 1e-7


def test_fell_converge_roundtrip(tmp_path):
    payload = {
        "ambient": "R",
        "window": [-5.0, 5.0],
        "step": 0.25,
        "sets": [{"kind": "ray", "endpoint": 1.0} for _ in range(6)],
    }
    src = tmp_path / "sets.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "conv.json"
    assert run_cli(["fell", "converge", "--input", str(src), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["converged"] is True
    assert len(report["grid"]) == len(report["liminf"]) == len(report["limsup"])


def test_fell_converge_divergent(tmp_path):
    payload = {
        "ambient": "R",
        "window": [-5.0, 5.0],
        "step": 0.25,
        "sets": [{"kind": "ray", "endpoint": float(n % 2)} for n in range(12)],
    }
    src = tmp_path / "sets.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "conv.json"
    assert run_cli(["fell", "converge", "--input", str(src), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["converged"] is False


def test_fell_converge_missing_file():
    assert run_cli(["fell", "converge", "--input", "/nonexistent/sets.json"]) == cli.EXIT_USAGE


def test_fell_converge_malformed_json(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    assert run_cli(["fell", "converge", "--input", str(src)]) == cli.EXIT_USAGE


RAY = {"kind": "ray", "endpoint": 0.0}


@pytest.mark.parametrize(
    "obj",
    [
        {"ambient": "R", "window": [0, 1], "sets": [{"kind": "blob"}]},
        {"ambient": "R", "window": [0, 1], "sets": [{"kind": "ray"}]},
        {"ambient": "R", "window": [0, 1], "sets": [3]},
        {"ambient": "R", "window": [0, 1], "sets": 5},
        {"ambient": "R", "window": [0, 1], "step": float("nan"), "sets": [RAY]},
        {"ambient": "R", "window": [0, 1], "step": "inf", "sets": [RAY]},
        {"ambient": "R", "window": [0, "inf"], "sets": [RAY]},
        {"ambient": "Z", "window": ["-inf", 3], "sets": [RAY]},
        {"ambient": "R", "window": [0, 1], "sets": [{"kind": "points", "points": ["a"]}]},
        {"ambient": "R", "window": [0, 1], "sets": [{"kind": "ray", "endpoint": "x"}]},
        # finite windows whose grid is not: (hi - lo) / step overflows, or
        # numpy would be asked for 2e15 points
        {"ambient": "R", "window": [-1e308, 1e308], "step": 1.0, "sets": [{"kind": "ray", "endpoint": 0}]},
        {"ambient": "Z", "window": [-1e15, 1e15], "step": 1.0, "sets": [{"kind": "ray", "endpoint": 0}]},
    ],
    ids=["unknown-kind", "ray-without-endpoint", "set-is-number", "sets-is-number",
         "nan-step", "infinite-step", "infinite-window", "infinite-integer-window",
         "non-numeric-point", "non-numeric-endpoint", "overflowing-grid", "huge-integer-grid"],
)
def test_fell_converge_bad_schema(obj, tmp_path, capsys):
    src = tmp_path / "bad2.json"
    src.write_text(json.dumps(obj))
    assert run_cli(["fell", "converge", "--input", str(src)]) == cli.EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err


def test_json_goes_to_stdout_without_out(capsys):
    code = run_cli(["verify", "jordan", "--trials", "5"])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["suite"] == "jordan"


def test_empty_cases_report_is_valid_json(tmp_path):
    from whlab import serialize

    out = tmp_path / "empty.json"
    assert cli._emit({"suite": "demo", "cases": []}, str(out)) == cli.EXIT_OK
    assert json.loads(out.read_text()) == {"suite": "demo", "cases": []}
    assert serialize.canonical_json({"suite": "demo", "cases": []}) == '{"cases":[],"suite":"demo"}'


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fresh_python(args, **blas):
    """Run a fresh interpreter on this checkout with no BLAS thread variable
    set but the given ones; returns its stdout."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(blas)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_pins_blas_threads_unless_set():
    probe = "import os, whlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(["-c", probe]) == "1\n"
    assert _fresh_python(["-c", probe], OPENBLAS_NUM_THREADS="3") == "3\n"


# a dense SVD of a multi-band residual rounds differently under a threaded
# BLAS: at N = 64, seed 0, its report bytes differed between one and two
# OpenBLAS threads; block Schur bounds have no such dependence
TOEPLITZ_N64 = ["verify", "toeplitz", "--N", "64", "--seed", "0"]


def test_report_bytes_do_not_depend_on_the_blas_pool():
    args = ["-m", "whlab.cli", *TOEPLITZ_N64]
    assert _fresh_python(args, OPENBLAS_NUM_THREADS="1") == _fresh_python(args, OPENBLAS_NUM_THREADS="2")


def test_a_process_that_loaded_numpy_first_writes_the_same_bytes():
    # numpy's pool started before whlab.cli could set a variable, as under a tracing harness
    run = "import sys, numpy, whlab.cli; sys.exit(whlab.cli.main(sys.argv[1:]))"
    assert _fresh_python(["-c", run, *TOEPLITZ_N64]) == _fresh_python(["-m", "whlab.cli", *TOEPLITZ_N64])
