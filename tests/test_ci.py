"""The CI workflow's references into the test suite."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_the_tier1_workflow_names_is_defined():
    """The workflow's comments and its AVX-512 error message name the byte
    tests that hold only on the pinned kernels; a renamed test would leave
    them pointing at nothing."""
    named = set(re.findall(r"\btest_\w+", (ROOT / ".github/workflows/tier1.yml").read_text()))
    defined = {
        node.name
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert named, "the workflow names no test"
    assert named <= defined, f"named in tier1.yml but not defined under tests/: {named - defined}"
