"""The benchmark's own test: quick mode answers correctly and prints every
metric BENCHMARK.json names. No timing assertions.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import shapes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, json.loads(context)["context"]["failures"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "non_kulikov", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("k", range(4))
def test_octahedron_ladder_is_a_sphere(k):
    cx = shapes.octahedron(k)
    assert (len(cx[0]), len(cx[2])) == (4 ** (k + 1) + 2, 8 * 4**k)
    assert shapes.euler_characteristic(cx) == 2


def test_quotients_and_grids_have_the_built_euler_characteristic():
    assert shapes.euler_characteristic(shapes.projective_plane(2)) == 1
    assert shapes.euler_characteristic(shapes.torus_grid(8, 8)) == 0
    assert shapes.euler_characteristic(shapes.klein_bottle(4, 16)) == 0
    assert len(shapes.klein_bottle(16, 16)[2]) == 512
