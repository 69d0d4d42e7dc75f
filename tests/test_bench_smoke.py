"""Smoke test of the benchmark harness: one short theorem1-loo run.

The run checks the batched trainer's leave-one-out retrains against the
independent reference loop in ``bench/oracles.py`` and proves that the
harness itself still runs. Its timings are not used.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_theorem1_loo_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theorem1-loo",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
