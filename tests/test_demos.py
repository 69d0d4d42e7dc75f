"""Smoke test of a demo script: it runs end to end and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_influence_profiles_demo_runs():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    proc = subprocess.run(
        [sys.executable, "demos/03_influence_profiles.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda = 1.00: InfU = 1.0000" in proc.stdout
