"""Every package module uses each name it imports, and the CLI imports
no SciPy subpackage it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scalarfield"


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path as p\n"
                          "from x import y, z as w\nprint(y)\n") \
        == ["math", "p", "w"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_cli_loads_no_quadrature_or_solver_subpackages():
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and more
    probe = ("import sys, scalarfield.cli; print(' '.join(m for m in "
             "('scipy.integrate', 'scipy.optimize', 'scipy.sparse') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
