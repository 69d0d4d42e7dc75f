"""The package's public surface: the names ``import mlpriv`` exports."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def test_import_leaves_scipy_out(tmp_path):
    """A fresh interpreter imports the package and its CLI, answers both
    accountant queries and trains to a target epsilon without loading any
    scipy module: numpy is the one runtime dependency."""
    (tmp_path / "synth.cfg").write_text("num_languages = 2\ntuples = 12\ndim = 4\nseed = 0\n")
    (tmp_path / "train.cfg").write_text(
        "base_lr = 0.1\ntotal_steps = 20\nwarmup_steps = 0\nbatch_size = 4\nseed = 0\n"
        "target_epsilon = 8.0\n"
    )
    code = textwrap.dedent("""
        import contextlib, io, sys
        from mlpriv.cli import main
        query = ["--q", "0.05", "--steps", "1000", "--delta", "1e-5"]
        runs = [["accountant", *query, "--sigma", "1.2"], ["accountant", *query, "--epsilon", "4.0"],
                ["synth", "--config", "synth.cfg", "--out", "data"],
                ["train", "--config", "train.cfg", "--data", "data", "--out", "run"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(mlpriv.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[0, 0, 0, 0] []"


def test_numpy_is_the_only_runtime_dependency():
    """Every module src/mlpriv imports is the standard library's, numpy's or
    the package's own, and pyproject.toml declares numpy alone."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "mlpriv"}
    imported = set()
    for path in sorted(Path(mlpriv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= allowed, sorted(imported - allowed)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with (Path(mlpriv.__file__).parents[2] / "pyproject.toml").open("rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]
