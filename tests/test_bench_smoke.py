"""Smoke tests of the benchmark harness: short runs of each workload, started
together.

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

import pytest

ROOT = Path(__file__).resolve().parent.parent


WORKLOADS = ("theorem1-loo", "compression-sweep", "dp-cli-pipeline")


@pytest.fixture(scope="module")
def runs() -> dict:
    """One-second runs of every workload, started together so their set-up
    overlaps: each workload's (returncode, stdout, stderr)."""
    children = {
        workload: subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in WORKLOADS
    }
    try:
        outputs = {w: c.communicate(timeout=300) for w, c in children.items()}
        return {w: (children[w].returncode, *outputs[w]) for w in WORKLOADS}
    finally:
        for child in children.values():
            child.kill()
            child.wait()


def result_of(runs: dict, workload: str) -> dict:
    returncode, stdout, stderr = runs[workload]
    assert returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])


def test_theorem1_loo_run_is_correct(runs):
    result = result_of(runs, "theorem1-loo")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_compression_sweep_run_is_correct(runs):
    result = result_of(runs, "compression-sweep")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_dp_cli_pipeline_run_is_correct(runs):
    result = result_of(runs, "dp-cli-pipeline")
    assert result["correct"] is True
    assert result["failed"] == 0
