"""Smoke tests of the benchmark harness: short runs of each workload.

The theorem1-loo run checks the batched trainer's leave-one-out retrains
against the independent reference loop in ``bench/oracles.py``; the
compression-sweep run checks the four compression metrics and every
influence profile against the oracles' direct computations; the
dp-cli-pipeline run checks the command-line path, whose tanh model is the
only workload output that exercises clipped tanh training and the tanh Gram
kernel. All three prove that the harness itself still runs. Their timings
are not used.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one_second(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_theorem1_loo_run_is_correct():
    result = run_one_second("theorem1-loo")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_compression_sweep_run_is_correct():
    result = run_one_second("compression-sweep")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_dp_cli_pipeline_run_is_correct():
    result = run_one_second("dp-cli-pipeline")
    assert result["correct"] is True
    assert result["failed"] == 0
