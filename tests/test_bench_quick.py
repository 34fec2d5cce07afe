"""The benchmark's quick mode, run with tracing so the harness cannot rot.

The tracer binds library functions and methods by name, so this fails when
one of them is renamed or deleted without the benchmark. No timing
assertions: only correctness, the failure count and the metric names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# cli_cold's benchmark process only imports k3degen.cli, and its tracer must still find every module
@pytest.mark.parametrize("workload", ["type3_ladder", "non_kulikov", "arithmetic_queries", "cli_cold"])
def test_traced_quick_run(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--quick", "--trace", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "type3_ladder":  # one classification and one rank (of d2's residual) per fiber
        assert metrics["sncfiber.classify_calls_per_op"]["value"] == 1.0
        assert metrics["linalg.exact_rank_calls"]["value"] == 1.0
    if workload == "arithmetic_queries":  # the arithmetic tracers still find what they wrap
        assert metrics["autorders.is_prime_calls"]["value"] > 0
        assert metrics["cyclotomic.euler_phi_calls"]["value"] > 0
