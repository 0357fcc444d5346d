"""Smoke test of the benchmark harness itself, at trivial sizes.

    python -m pytest -q bench/test_bench.py

Each workload runs with `--dim 1 --trials 1 --N 4` appended to its config,
untraced and traced; the printed metrics must be exactly those of
BENCHMARK.json, each with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

TRIVIAL = {"dim": 1, "trials": 1, "n": 4}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def trivial(invocations):
    return [(suite, {**overrides, **TRIVIAL}) for suite, overrides in invocations]


def run_main(capsys, workload: str, trace: int) -> tuple[list, dict]:
    rc = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        workloads={workload: trivial(run.WORKLOADS[workload])},
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    lines, result = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines)
    assert "case_fail_share: 0.0 share" in "\n".join(lines)


def test_injected_failure_raises_case_fail_share(capsys):
    result = run.measure(trivial(run.WORKLOADS["large-dim"]), 5, 0, False, extra=["--inject-failure"])
    lines = capsys.readouterr().out.splitlines()
    share = next(float(line.split()[1]) for line in lines if line.startswith("case_fail_share: "))
    assert share > 0
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.BENCH.name) / "run.py"), "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
