"""The demos and ``sim1090.__all__`` name only what the package still has.

No test runs the demos, so a public name deleted from sim1090 could break
one unnoticed; this reads each demo's ``from sim1090... import`` lines
without running the demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sim1090

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "sim1090":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}: {node.module} has no {missing}"


def test_package_exports_resolve():
    missing = [name for name in sim1090.__all__ if not hasattr(sim1090, name)]
    assert not missing, f"sim1090.__all__ names {missing}, which the package lacks"
