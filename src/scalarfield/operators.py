"""Discrete integral operators on a half-space grid.

The Green operator is assembled as a dense matrix with the quadrature
weights folded in, so application is a plain matrix-vector product.  For
the axisymmetric grids (N = 2, 3) each column represents a mirror pair or
a full ring of sources, and the matrix entry carries the pair/ring average
of the kernel.  The singular quadrature diagonal is handled by averaging
the kernel over sub-points of the cell instead of evaluating at the
(coincident) midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import warnings

import numpy as np
from scipy.integrate import quad
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .discretization import Field, Grid
from .kernels import fundamental_E, poisson_P

MAX_MATRIX_BYTES = 4 * 2 ** 30

# kernel evaluations per assembly block; bounds every assembly temporary
_BLOCK_ENTRIES = 500_000
# columns per block when jacobian writes its Fortran-ordered J
_JACOBIAN_COLUMNS = 64

_GAUSS_ANGLES = 32
_GAUSS_ANGLES_DIAGONAL = 256
_SPECTRUM_ITERS = 20_000
_SVD_TOL = 1e-10
_SVD_ITERS = 500


class IterationLimitError(RuntimeError):
    """An iterative method ran out of its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateLinearizationError(ValueError):
    """The linearized operator at a state has no dominant eigenpair to find."""


@dataclass(frozen=True)
class KernelMatrix:
    """Dense Green matrix; entries[i, j] = (averaged kernel)(x_i, x_j) * w_j."""

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.entries.shape != (n, n):
            raise ValueError(f"entries shape {self.entries.shape} does not match "
                             f"grid with {n} nodes")


def _gauss_on_0_pi(n: int):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * np.pi * (t + 1.0), 0.5 * w  # weights sum to 1 (average over angle)


def _avg_green(N: int, rho_x, z_x, rho_y, z_y, n_angles: int = _GAUSS_ANGLES):
    """Ring/pair-averaged Green kernel between axisymmetric nodes.

    All four coordinate arrays broadcast together; heights must be positive
    and the configurations must keep the direct distance positive.
    """
    dz = z_x - z_y
    sz = z_x + z_y
    if N == 1:
        return 0.5 * (np.exp(-np.abs(dz)) - np.exp(-sz))
    if N == 2:
        d_near = np.hypot(rho_x - rho_y, dz)
        d_far = np.hypot(rho_x + rho_y, dz)
        m_near = np.hypot(rho_x - rho_y, sz)
        m_far = np.hypot(rho_x + rho_y, sz)
        return 0.5 * ((fundamental_E(2, d_near) - fundamental_E(2, m_near))
                      + (fundamental_E(2, d_far) - fundamental_E(2, m_far)))
    phi, w_phi = _gauss_on_0_pi(n_angles)
    shape = np.broadcast_shapes(np.shape(rho_x), np.shape(z_x),
                                np.shape(rho_y), np.shape(z_y))
    rho_x, rho_y = np.broadcast_to(rho_x, shape), np.broadcast_to(rho_y, shape)
    dz, sz = np.broadcast_to(dz, shape), np.broadcast_to(sz, shape)
    lat2 = (rho_x[..., None] ** 2 + rho_y[..., None] ** 2
            - 2.0 * rho_x[..., None] * rho_y[..., None] * np.cos(phi))
    direct = np.sqrt(lat2 + dz[..., None] ** 2)
    mirror = np.sqrt(lat2 + sz[..., None] ** 2)
    vals = fundamental_E(3, direct) - fundamental_E(3, mirror)
    return vals @ w_phi


def check_matrix_budget(n: int, copies: int) -> None:
    """Refuse a grid whose `copies` dense n x n float64 matrices, held at
    once, would exceed MAX_MATRIX_BYTES."""
    need = copies * 8 * n * n
    if need > MAX_MATRIX_BYTES:
        raise ValueError(f"{copies} dense {n} x {n} matrices need {need:,} "
                         f"bytes; the memory budget is {MAX_MATRIX_BYTES:,} "
                         "bytes")


def _cell_average(N: int, rho, z, cell_sizes):
    """Kernel average over four sub-points of each cell: the singular
    diagonal, where the midpoint rule would evaluate at coincident points."""
    if N == 1:
        offsets = np.array([-0.375, -0.125, 0.125, 0.375])
        return _avg_green(1, None, z[:, None], None,
                          z[:, None] + cell_sizes[:, :1] * offsets).mean(axis=1)
    sr = np.array([-0.25, -0.25, 0.25, 0.25])
    sz = np.array([-0.25, 0.25, -0.25, 0.25])
    return _avg_green(N, rho[:, None], z[:, None],
                      rho[:, None] + cell_sizes[:, :1] * sr,
                      z[:, None] + cell_sizes[:, 1:2] * sz,
                      n_angles=_GAUSS_ANGLES_DIAGONAL).mean(axis=1)


def assemble_green(grid: Grid) -> KernelMatrix:
    """Build the dense Green matrix for the grid's own dimension.

    Rows are filled in blocks of about _BLOCK_ENTRIES kernel evaluations
    (times the angle count for N = 3), diagonal included, so no temporary
    grows with n x n; the block size does not change a bit of the result.
    """
    n = grid.n_nodes
    check_matrix_budget(n, copies=1)
    N = grid.dimension
    z = grid.heights
    rho = np.zeros(n) if N == 1 else grid.radii

    entries = np.empty((n, n))
    block = max(1, _BLOCK_ENTRIES // (n * (_GAUSS_ANGLES if N == 3 else 1)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        idx = np.arange(lo, hi)
        # dodge the singular diagonal; those entries are overwritten below
        z_cols = np.broadcast_to(z[None, :], (hi - lo, n)).copy()
        z_cols[np.arange(hi - lo), idx] += 1.0
        entries[lo:hi] = _avg_green(N, rho[idx, None], z[idx, None],
                                    rho[None, :], z_cols)
        entries[idx, idx] = _cell_average(N, rho[lo:hi], z[lo:hi],
                                          grid.cell_sizes[lo:hi])

    entries *= grid.quad_weights[None, :]
    return KernelMatrix(grid=grid, entries=entries)


def apply_green(K: KernelMatrix, f: Field) -> Field:
    if f.grid.n_nodes != K.grid.n_nodes:
        raise ValueError(f"field on {f.grid.n_nodes}-node grid cannot be applied "
                         f"to a {K.grid.n_nodes}-node kernel matrix")
    return Field(K.grid, K.entries @ f.values)


def _radial_profile(mu_spec: dict):
    radii = np.asarray(mu_spec["radii"], dtype=float)
    values = np.asarray(mu_spec["values"], dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
        raise ValueError("radial_density needs matching 1-d 'radii' and 'values'")
    if np.any(np.diff(radii) <= 0.0) or radii[0] < 0.0:
        raise ValueError("'radii' must be increasing and nonnegative")
    if np.any(values < 0.0):
        raise ValueError("radial density values must be nonnegative")
    return radii, values


def poisson_trace(grid: Grid, mu_spec: dict) -> Field:
    """Harmonic-type extension of the boundary measure onto the grid nodes.

    mu_spec is either {"type": "point_mass", "mass": m} (a Dirac mass at the
    boundary origin) or {"type": "radial_density", "radii": [...],
    "values": [...]} (a radially symmetric density, linearly interpolated,
    zero beyond the last radius).
    """
    if not isinstance(mu_spec, dict) or "type" not in mu_spec:
        raise ValueError("mu_spec must be a dict with a 'type' key")
    kind = mu_spec["type"]
    N = grid.dimension

    if kind == "point_mass":
        mass = float(mu_spec.get("mass", 1.0))
        if mass <= 0.0:
            raise ValueError("point mass must be positive")
        loc = mu_spec.get("location")
        if loc is not None and np.any(np.asarray(loc, dtype=float) != 0.0):
            raise ValueError("axisymmetric grids only support a point mass "
                             "at the boundary origin")
        return Field(grid, mass * poisson_P(N, grid.nodes))

    if kind == "radial_density":
        if N == 1:
            raise ValueError("radial_density needs N >= 2; the half-line "
                             "boundary is a single point (use point_mass)")
        radii, values = _radial_profile(mu_spec)
        r_max = float(radii[-1])
        density = lambda s: np.interp(s, radii, values, left=values[0], right=0.0)
        out = np.empty(grid.n_nodes)
        if N == 2:
            for i, (r_i, z_i) in enumerate(zip(grid.radii, grid.heights)):
                def f(s, r_i=r_i, z_i=z_i):
                    return density(s) * (poisson_P(2, (r_i - s, z_i))
                                         + poisson_P(2, (r_i + s, z_i)))
                pts = [r_i] if 0.0 < r_i < r_max else None
                out[i], _ = quad(f, 0.0, r_max, points=pts, limit=200)
        else:
            # the angular kernel peaks sharply near phi = 0 for nodes close
            # to the boundary, so the angle is integrated adaptively too
            for i, (r_i, z_i) in enumerate(zip(grid.radii, grid.heights)):
                def f(s, r_i=r_i, z_i=z_i):
                    def ring(phi):
                        lat2 = (r_i * r_i + s * s
                                - 2.0 * r_i * s * np.cos(phi))
                        rho_ = np.sqrt(lat2 + z_i * z_i)
                        return (2.0 * z_i * np.exp(-rho_) * (1.0 + rho_)
                                / (4.0 * np.pi * rho_ ** 3))
                    angular, _ = quad(ring, 0.0, np.pi, limit=100,
                                      epsabs=1e-12, epsrel=1e-9)
                    return density(s) * s * 2.0 * angular
                pts = [r_i] if 0.0 < r_i < r_max else None
                out[i], _ = quad(f, 0.0, r_max, points=pts, limit=200)
        return Field(grid, out)

    raise ValueError(f"unknown boundary measure type {kind!r}")


@dataclass(frozen=True)
class EigenResult:
    """Dominant eigenvalue data of the linearized operator at a state u."""

    rho: float          # dominant eigenvalue of h -> G[p u^{p-1} h]
    lambda_: float      # 1 / rho, the stability margin of u
    eigenfield: Field
    iterations: int
    residual: float


def linearized_spectrum(K: KernelMatrix, u: Field, p: float,
                        tol: float = 1e-8) -> EigenResult:
    """Power iteration for the dominant eigenpair of h -> G[p u^{p-1} h]."""
    weights = p * np.maximum(u.values, 0.0) ** (p - 1.0)
    if not np.any(weights > 0.0):
        raise DegenerateLinearizationError(
            "linearization weight p u^(p-1) vanishes identically")
    M = K.entries * weights[None, :]
    psi = np.ones(K.grid.n_nodes)
    rho = 0.0
    residual = np.inf
    for it in range(1, _SPECTRUM_ITERS + 1):
        v = M @ psi
        rho = float(v[np.argmax(np.abs(v))])
        if rho == 0.0:
            raise DegenerateLinearizationError(
                "linearized operator annihilated the iterate")
        residual = float(np.max(np.abs(v - rho * psi)))
        if residual <= tol * np.max(np.abs(psi)):
            psi = v / rho
            return EigenResult(rho=rho, lambda_=1.0 / rho,
                               eigenfield=Field(K.grid, psi),
                               iterations=it, residual=residual)
        psi = v / rho
    raise IterationLimitError(
        f"power iteration did not reach tol={tol:g} in {_SPECTRUM_ITERS} steps "
        f"(residual {residual:.3e})", residual=residual)


def jacobian(K: KernelMatrix, u: Field, p: float) -> np.ndarray:
    """Jacobian I - G diag(p u^{p-1}) of the fixed-point residual at u.

    J is Fortran-ordered, so lu_factor(J, overwrite_a=True) factorizes it in
    place instead of copying it first.
    """
    neg_weights = -p * np.maximum(u.values, 0.0) ** (p - 1.0)
    n = K.grid.n_nodes
    J = np.empty((n, n), order="F")
    # column blocks keep both the C-ordered reads and the F-ordered writes
    # cache-friendly; one strided pass over the whole matrix is slower
    for lo in range(0, n, _JACOBIAN_COLUMNS):
        cols = slice(lo, lo + _JACOBIAN_COLUMNS)
        np.multiply(K.entries[:, cols], neg_weights[cols], out=J[:, cols])
    J[np.diag_indices_from(J)] += 1.0
    return J


def smallest_singular_value(J: np.ndarray) -> float:
    """Smallest singular value of J by inverse power iteration on J^T J.

    Returns 0.0 if J is numerically singular.
    """
    n = J.shape[0]
    if J.shape != (n, n):
        raise ValueError("J must be square")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(J, check_finite=False)
        x = np.ones(n) / np.sqrt(n)
        sigma = np.inf
        for _ in range(_SVD_ITERS):
            y = lu_solve(lu, x, trans=1, check_finite=False)
            v = lu_solve(lu, y, trans=0, check_finite=False)
            norm = np.linalg.norm(v)
            if not np.isfinite(norm) or norm == 0.0:
                return 0.0
            new_sigma = 1.0 / np.sqrt(norm)
            x = v / norm
            if abs(new_sigma - sigma) <= _SVD_TOL * max(new_sigma, 1e-300):
                return new_sigma
            sigma = new_sigma
    return sigma
