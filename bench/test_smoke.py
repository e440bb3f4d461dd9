"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, traced and untraced, and checks that
the result line names every metric of BENCHMARK.json with its unit and
that every job's output passed its check.  Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    completed = run_bench(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
