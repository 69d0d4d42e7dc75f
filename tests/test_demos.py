"""Smoke test of a demo script: it runs end to end and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(script: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    return subprocess.run(
        [sys.executable, f"demos/{script}"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_metrics_tour_demo_runs():
    """At lambda = 1 every language is the shared latent set, so retrieval,
    CKA and RSA all read 1."""
    proc = run_demo("01_metrics_tour.py")
    assert proc.returncode == 0, proc.stderr
    row = next(line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["1.00"])
    assert row[1:4] == ["1.0000", "1.0000", "1.0000"]


def test_influence_profiles_demo_runs():
    proc = run_demo("03_influence_profiles.py")
    assert proc.returncode == 0, proc.stderr
    assert "lambda = 1.00: InfU = 1.0000" in proc.stdout


def test_dp_training_demo_runs():
    proc = run_demo("02_dp_training_and_accounting.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = lines[2:lines.index("")]  # after the header and its rule
    assert [row.split()[0] for row in table] == ["inf", "16.0", "8.0", "2.0", "0.5"]
