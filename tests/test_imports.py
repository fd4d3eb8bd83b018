"""Every package module uses each name it imports, and the CLI loads only
the modules a command calls: the SciPy extension modules it needs, never
the scipy, scipy.linalg or scipy.special packages, never numpy.random, and
none of scalarfield's continuation, verify or exponents modules unless the
command uses them.  Where NumPy's OpenBLAS has the BLAS and LAPACK routines
the operators call, no command loads SciPy's BLAS, LAPACK or OpenBLAS."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scalarfield.kernels import _numpy_routines

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
    return state_after(code, *args)[0]


# the OpenBLAS library files mapped into a process, which /proc/self/maps
# lists on Linux; None elsewhere
OPENBLAS_MAPPED = """
def openblas_mapped():
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
"""


def state_after(code: str, *args: str) -> tuple[list[str], list | None]:
    """(`loaded_after`, the OpenBLAS files mapped, None off Linux) once
    `code` has run in a fresh process."""
    probe = (f"{code}\nimport json, sys\n{OPENBLAS_MAPPED}\n"
             "print(json.dumps([sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m == 'numpy.random'), "
             "openblas_mapped()]))")
    return tuple(json.loads(run_fresh(probe, *args)))


# True where NumPy's OpenBLAS serves the operators' dsymv, gttrf and gttrs
NUMPY_ROUTE = _numpy_routines() is not None


@pytest.fixture(scope="module")
def numpy_openblas():
    """The OpenBLAS files `import numpy` maps, None off Linux."""
    return state_after("import numpy")[1]


def test_cli_loads_no_quadrature_or_solver_subpackages():
    # scipy.integrate alone pulls in scipy.optimize, scipy.sparse and more;
    # LAPACK and the Bessel functions load only where a command calls them
    assert loaded_after("import scalarfield.cli") == []


FBLAS, FLAPACK = "scipy.linalg._fblas", "scipy.linalg._flapack"
SPECIAL = "scipy.special._special_ufuncs"
# what a command loads besides where SciPy's wrappers serve BLAS and LAPACK
SCIPY_ROUTE = {(1, "branch"): [FLAPACK], (2, "solve"): [FBLAS],
               (2, "eigen"): [FBLAS], (2, "kappa-star"): [FBLAS],
               (2, "branch"): [FBLAS]}
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
    (1, "branch", []),
    (2, "solve", [SPECIAL]),
    (2, "eigen", [SPECIAL]),
    (2, "kappa-star", [SPECIAL]),
    (2, "verify", [SPECIAL]),
    (2, "branch", [SPECIAL]),
])
def test_command_loads_only_what_it_calls(tmp_path, N, command, loaded,
                                          numpy_openblas):
    # N = 1 kernels are exponentials and its matvec two cumulative sums;
    # only factorizing an N = 1 Jacobian needs LAPACK (a dense one is
    # solved by GMRES on the Green product), only N = 2 needs K0/K1, and
    # only a dense product BLAS dsymv.  K0/K1 come from their extension
    # module alone, and BLAS and LAPACK from NumPy's OpenBLAS, or else from
    # SciPy's extension modules alone: no command imports the scipy,
    # scipy.linalg or scipy.special packages.  verify samples a fixed point
    # set, so no command loads numpy.random either
    suite = (["--suite", "all" if N == 1 else "kernels"]
             if command == "verify" else [])
    modules, openblas = state_after(
        RUN, command, "--config", command_config(tmp_path, N), *suite)
    if not NUMPY_ROUTE:
        loaded = sorted(loaded + SCIPY_ROUTE.get((N, command), []))
    assert modules == loaded
    if NUMPY_ROUTE and openblas is not None:
        # SciPy's own libscipy_openblas is not mapped: one BLAS, NumPy's
        assert openblas == numpy_openblas


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("command", ["solve", "eigen", "kappa-star"])
def test_solver_commands_load_no_branch_or_verify_code(tmp_path, N, command):
    probe = (f"{RUN}\nimport json\nprint(json.dumps(sorted("
             f"m for m in {OPTIONAL!r} if m in sys.modules)))")
    assert json.loads(run_fresh(probe, command, "--config",
                                command_config(tmp_path, N))) == []


def test_direct_load_gives_scipys_own_functions():
    # the extension module loaded alone is the one a later public import
    # of scipy.special finds and exposes
    code = """
from scalarfield.kernels import _special
loaded = {name: _special(name) for name in ("k0", "k1")}
import sys
assert "scipy.special" not in sys.modules
import scipy.special
print(sorted(name for name, f in loaded.items()
             if f is getattr(scipy.special, name, None)))
"""
    assert run_fresh(code) == str(["k0", "k1"])


# the route's BLAS, LAPACK and K0 results, after the failures named in
# sys.argv[1]: no-numpy (NumPy's library cannot be opened), no-file or
# no-attribute (SciPy's extension modules cannot be loaded alone)
FALLBACK = """
import ctypes, importlib.util, sys, types
import numpy as np
failures = sys.argv[1].split(",")
if "no-numpy" in failures:
    def no_library(*args, **kwargs):
        raise OSError("no library")
    ctypes.CDLL = no_library
from scalarfield import kernels
if "no-file" in failures:
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = (
        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
elif "no-attribute" in failures:
    kernels._scipy_module = types.ModuleType
from scalarfield.operators import (_fortran_factors, _symv,
                                   _tridiagonal_factors, _tridiagonal_solve)
n = 50
factors = _tridiagonal_factors(np.full(n - 1, -1.0), np.linspace(3.0, 4.0, n))
x = _tridiagonal_solve(factors, _fortran_factors(factors),
                       np.linspace(-1.0, 2.0, n))
k0 = kernels.bessel_k0(np.geomspace(1e-3, 40.0, 1000))
a = np.add.outer(np.arange(n), np.arange(n)) / n
y = _symv(a, np.linspace(-1.0, 2.0, n))
scipy = sorted(m for m in ("scipy.linalg._fblas", "scipy.linalg._flapack",
                           "scipy.linalg.blas", "scipy.linalg.lapack",
                           "scipy.special") if m in sys.modules)
print(",".join(scipy) or "-", x.tobytes().hex(), k0.tobytes().hex(),
      y.tobytes().hex())
"""


@pytest.mark.parametrize("failure", ["no-file", "no-attribute"])
def test_public_fallback_gives_the_same_bytes(failure):
    # where NumPy's library and the file route both fail, the public
    # modules serve the same BLAS, LAPACK and K0
    direct = run_fresh(FALLBACK, "direct").split()
    fallback = run_fresh(FALLBACK, f"no-numpy,{failure}").split()
    assert direct[0] == ("-" if NUMPY_ROUTE else f"{FBLAS},{FLAPACK}")
    assert fallback[0] == (f"{FBLAS},{FLAPACK},scipy.linalg.blas,"
                           "scipy.linalg.lapack,scipy.special")
    assert fallback[1:] == direct[1:]


def test_scipy_extension_fallback_gives_the_same_bytes(numpy_openblas):
    # where NumPy's library cannot be opened, SciPy's BLAS and LAPACK
    # extension modules, loaded alone, serve the same bytes, and bring
    # SciPy's own OpenBLAS with them: the mapped-library check of
    # test_command_loads_only_what_it_calls sees a second BLAS
    direct = run_fresh(FALLBACK, "direct").split()
    assert run_fresh(FALLBACK, "no-numpy").split() == [
        f"{FBLAS},{FLAPACK}", *direct[1:]]
    _, openblas = state_after(FALLBACK, "no-numpy")
    if NUMPY_ROUTE and openblas is not None:
        assert set(openblas) > set(numpy_openblas)
