"""Every package module uses each name it imports, and the CLI loads only
the modules a command calls: the SciPy extension modules it needs, never
the scipy, scipy.linalg or scipy.special packages, never numpy.random, and
none of scalarfield's continuation, verify or exponents modules unless the
command uses them."""

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


def run_fresh(code: str, *args: str) -> str:
    """The last line `code` prints in a fresh process (args become
    sys.argv[1:])."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def loaded_after(code: str, *args: str) -> list[str]:
    """The SciPy modules and numpy.random, where they are in sys.modules
    once `code` has run in a fresh process."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m == 'numpy.random')))")
    return json.loads(run_fresh(probe, *args))


def test_cli_loads_no_quadrature_or_solver_subpackages():
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and more;
    # LAPACK and the Bessel functions load only where a command calls them
    assert loaded_after("import scalarfield.cli") == []


FBLAS, FLAPACK = "scipy.linalg._fblas", "scipy.linalg._flapack"
SPECIAL = "scipy.special._special_ufuncs"
# the scalarfield modules only some commands call
OPTIONAL = ("scalarfield.continuation", "scalarfield.exponents",
            "scalarfield.verify")


def command_config(tmp_path, N) -> str:
    cfg = {"problem": {"N": N}, "grid": {"nodes_height": 300},
           "continuation": {"max_points": 12}, "output_dir": str(tmp_path)}
    if N == 2:
        # kappa* is near 15 on this coarse grid
        cfg.update(grid={"nodes_lateral": 8, "nodes_height": 10},
                   solver={"bracket": [0.5, 30.0]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    return str(config)


RUN = ("import sys\nfrom scalarfield.cli import run_command\n"
       "assert run_command(sys.argv[1:]) == 0")


@pytest.mark.parametrize("N, command, loaded", [
    (1, "solve", []),
    (1, "eigen", []),
    (1, "kappa-star", []),
    (1, "verify", []),
    (1, "branch", [FLAPACK]),
    (2, "solve", [FBLAS, SPECIAL]),
    (2, "eigen", [FBLAS, SPECIAL]),
    (2, "kappa-star", [FBLAS, SPECIAL]),
    (2, "verify", [SPECIAL]),
    (2, "branch", [FBLAS, SPECIAL]),
])
def test_command_loads_only_what_it_calls(tmp_path, N, command, loaded):
    # N = 1 kernels are exponentials and its matvec two cumulative sums;
    # only factorizing an N = 1 Jacobian needs LAPACK (a dense one is
    # solved by GMRES on the Green product), only N = 2 needs K0/K1, and
    # only a dense product BLAS dsymv.  Each comes from its extension module
    # alone: no command imports the scipy, scipy.linalg or scipy.special
    # packages.  verify samples a fixed point set, so no command loads
    # numpy.random either
    suite = (["--suite", "all" if N == 1 else "kernels"]
             if command == "verify" else [])
    assert loaded_after(RUN, command, "--config", command_config(tmp_path, N),
                        *suite) == loaded


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("command", ["solve", "eigen", "kappa-star"])
def test_solver_commands_load_no_branch_or_verify_code(tmp_path, N, command):
    probe = (f"{RUN}\nimport json\nprint(json.dumps(sorted("
             f"m for m in {OPTIONAL!r} if m in sys.modules)))")
    assert json.loads(run_fresh(probe, command, "--config",
                                command_config(tmp_path, N))) == []


def test_direct_load_gives_scipys_own_functions():
    # the extension modules loaded alone are the ones a later public import
    # of scipy.linalg.blas, scipy.linalg.lapack and scipy.special finds and
    # exposes
    code = """
from scalarfield.kernels import _special
from scalarfield.operators import _blas, _lapack
loaded = {name: _lapack(name) for name in ("dgttrf", "dgttrs")}
loaded.update((name, _special(name)) for name in ("k0", "k1"))
loaded["dsymv"] = _blas("dsymv")
import sys
assert "scipy.linalg" not in sys.modules and "scipy.special" not in sys.modules
import scipy.linalg.blas, scipy.linalg.lapack, scipy.special
print(sorted(name for name, f in loaded.items()
             if f is getattr(scipy.linalg.lapack, name, None)
             or f is getattr(scipy.linalg.blas, name, None)
             or f is getattr(scipy.special, name, None)))
"""
    assert run_fresh(code) == str(sorted(
        ["dgttrf", "dgttrs", "dsymv", "k0", "k1"]))


FALLBACK = """
import importlib.util, sys, types
import numpy as np
from scalarfield import kernels
if sys.argv[1] == "no-file":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = (
        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
elif sys.argv[1] == "no-attribute":
    kernels._scipy_module = types.ModuleType
from scalarfield.operators import (_blas, _tridiagonal_factors,
                                   _tridiagonal_solve)
n = 50
factors = _tridiagonal_factors(np.full(n - 1, -1.0), np.linspace(3.0, 4.0, n))
x = _tridiagonal_solve(factors, np.linspace(-1.0, 2.0, n))
k0 = kernels.bessel_k0(np.geomspace(1e-3, 40.0, 1000))
a = np.add.outer(np.arange(n), np.arange(n)) / n
y = _blas("dsymv")(1.0, a, np.linspace(-1.0, 2.0, n))
public = sorted(m for m in ("scipy.linalg.blas", "scipy.linalg.lapack",
                            "scipy.special") if m in sys.modules)
print(",".join(public) or "-", x.tobytes().hex(), k0.tobytes().hex(),
      y.tobytes().hex())
"""


@pytest.mark.parametrize("failure", ["no-file", "no-attribute"])
def test_public_fallback_gives_the_same_bytes(failure):
    # where the file route fails, the public modules serve the same BLAS,
    # LAPACK and K0
    direct = run_fresh(FALLBACK, "direct").split()
    fallback = run_fresh(FALLBACK, failure).split()
    assert direct[0] == "-"
    assert fallback[0] == "scipy.linalg.blas,scipy.linalg.lapack,scipy.special"
    assert fallback[1:] == direct[1:]
