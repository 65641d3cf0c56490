"""Smoke test of the benchmark harness at a tiny size.

Kept out of the package's test suite by its file name; run it with

    python3 -m pytest perfbench/smoke_check.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit_and_the_gate_passes(workload, trace):
    result = _result(_run(workload, trace))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    if trace:
        again = _result(_run(workload, trace))["metrics"]
        counts = {k for k, m in result["metrics"].items() if m["unit"] in ("count", "bytes")}
        assert {k: result["metrics"][k]["value"] for k in counts} == {
            k: again[k]["value"] for k in counts
        }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("study", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
