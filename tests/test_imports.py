"""Every package module uses each name it imports, and the CLI imports
no SciPy subpackage it does not use."""

import ast
import json
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


def loaded_after(code: str, modules, *args: str) -> list[str]:
    """Those of `modules` in sys.modules once `code` has run in a fresh
    process (args become sys.argv[1:])."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {tuple(modules)!r} "
             "if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_loads_no_quadrature_or_solver_subpackages():
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and more;
    # LAPACK and the Bessel functions load only where a command calls them
    assert loaded_after("import scalarfield.cli", (
        "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special",
        "scipy.linalg")) == []


@pytest.mark.parametrize("N, command, loaded", [
    (1, "solve", []),
    (1, "eigen", []),
    (1, "kappa-star", []),
    (1, "verify", []),
    (1, "branch", ["scipy.linalg"]),
    (2, "solve", ["scipy.special"]),
])
def test_command_loads_only_what_it_calls(tmp_path, N, command, loaded):
    # N = 1 kernels are exponentials and its matvec two cumulative sums;
    # only factorizing a Jacobian needs LAPACK, only N = 2 needs K0/K1
    grid = ({"nodes_height": 300} if N == 1
            else {"nodes_lateral": 8, "nodes_height": 10})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"N": N}, "grid": grid,
        "continuation": {"max_points": 12}, "output_dir": str(tmp_path)}))
    run = ("import sys\nfrom scalarfield.cli import run_command\n"
           "assert run_command(sys.argv[1:]) == 0")
    suite = ["--suite", "all"] if command == "verify" else []
    assert loaded_after(run, ("scipy.special", "scipy.linalg"), command,
                        "--config", str(config), *suite) == loaded
