"""The package's public surface: the names ``import mlpriv`` exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mlpriv

PUBLIC = {
    "Checkpoint", "CheckpointSet", "EmbeddingSet", "InfluenceProfile", "LabeledDataset",
    "Manifest", "MetricReport", "ModelSpec", "PrivacySpending", "SynthSpec",
    "TrainConfig", "Variant", "epsilon_for", "evaluate", "gen_classification_data",
    "gen_parallel_set", "influence_profiles", "isoscore", "linear_cka",
    "linguistic_fairness_gap", "load_set", "pairwise_report", "plant_outlier",
    "retrieval_precision", "rsa_score", "sigma_for", "spearman_rho", "train", "train_many",
}


def test_all_is_the_public_surface_and_every_name_resolves():
    assert len(mlpriv.__all__) == len(PUBLIC) == 29
    assert set(mlpriv.__all__) == PUBLIC
    assert all(getattr(mlpriv, name, None) is not None for name in mlpriv.__all__)


def test_only_the_cli_writes_text_tables():
    """The CSV formats live in one module: only cli.py imports csv."""
    importers = []
    for path in sorted(Path(mlpriv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "csv" in modules:
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_import_leaves_scipy_out():
    """A fresh interpreter imports the package and its CLI without scipy;
    the accountant imports scipy.special on its first curve."""
    code = "import sys, mlpriv, mlpriv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(mlpriv.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
