import tracemalloc

import numpy as np
import pytest

from scalarfield import assemble_green, build_grid, poisson_trace
from scalarfield.kernels import _special
from scalarfield.operators import _assemble_dense, _blas, _lapack


@pytest.fixture(scope="session")
def grid_line():
    """N = 1 reference grid: half line truncated at 20, 1000 graded nodes."""
    return build_grid(1, 20.0, 20.0, 1, 1000)


@pytest.fixture(scope="session")
def K_line(grid_line):
    return assemble_green(grid_line)


@pytest.fixture(scope="session")
def K_line_dense(grid_line):
    """The dense N = 1 Green matrix: the reference for K_line."""
    return _assemble_dense(grid_line)


@pytest.fixture(scope="session")
def Pmu_line(grid_line):
    return poisson_trace(grid_line, {"type": "point_mass", "mass": 1.0})


def soliton(heights, kappa, p=3.0):
    """Exact minimal solution on the half line for p = 3: sqrt(2) sech(x + a)
    with sech(a) = kappa / sqrt(2)."""
    assert p == 3.0
    a = np.arccosh(np.sqrt(2.0) / kappa)
    return np.sqrt(2.0) / np.cosh(heights + a)


def dense_rho(dense, u, p):
    """Independent oracle for `linearized_spectrum`'s rho: the largest
    eigenvalue of D S D, D = (W p u^{p-1})^{1/2}, by LAPACK's dense
    symmetric eigensolver (numpy.linalg.eigvalsh), from the bare kernel S of
    a dense `KernelMatrix`.  Rows and columns where D vanishes hold only
    zeros, so they are left out."""
    d = np.sqrt(dense.grid.quad_weights * p
                * np.maximum(u.values, 0.0) ** (p - 1.0))
    keep = d > 0.0
    d = d[keep]
    B = d[:, None] * dense.kernel[np.ix_(keep, keep)] * d
    return float(np.linalg.eigvalsh(B)[-1])


def dense_jacobian(dense, u, p):
    """Independent oracle for a Jacobian solve: the n x n matrix
    I - S diag(w p u^{p-1}) of a dense `KernelMatrix`, for
    numpy.linalg.solve."""
    m = dense.grid.quad_weights * p * np.maximum(u.values, 0.0) ** (p - 1.0)
    return np.eye(dense.grid.n_nodes) - dense.kernel * m


def peak_allocation(fn, *args, **kwargs):
    """(fn's result, the most bytes it held at once beyond what it found),
    counted by tracemalloc, which sees every NumPy buffer.

    scalarfield loads SciPy's BLAS, LAPACK and K0/K1 extension modules on
    first use; its loader is run here first, so their one-time module state
    is not counted as arrays the call holds."""
    _blas("dsymv")
    for name in ("dgttrf", "dgttrs"):
        _lapack(name)
    for name in ("k0", "k1"):
        _special(name)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base
