"""Truncated, graded grids for the half space and weighted norms.

N = 1 uses the half line (0, H).  N = 2, 3 use axisymmetric (lateral radius,
height) grids; each node represents a full ring (for N = 3) or a mirror pair
(for N = 2), and the corresponding surface measure is folded into the
quadrature weight.  Heights are graded toward the boundary: cell edges at
H * (k/n)^g, nodes at cell midpoints, midpoint-rule weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest grid extent: the kernels square node heights, radii and their sums
_MAX_EXTENT = np.sqrt(np.finfo(float).max) / 4.0


@dataclass(frozen=True, eq=False)
class Grid:
    dimension: int
    nodes: np.ndarray        # (n, N); for N >= 2 the lateral part is (radius, 0[, ...])
    quad_weights: np.ndarray  # (n,) volume weights incl. the ring/pair factor
    cell_sizes: np.ndarray   # (n, 1) height width for N=1, (n, 2) = (dr, dz) else
    extent_lateral: float
    extent_height: float
    grading: float

    def __post_init__(self):
        for name in ("nodes", "quad_weights", "cell_sizes"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def heights(self) -> np.ndarray:
        return self.nodes[:, -1]

    @property
    def radii(self) -> np.ndarray:
        if self.dimension == 1:
            raise ValueError("half-line grid has no lateral radius")
        return self.nodes[:, 0]

    def volume(self) -> float:
        """Volume of the truncated domain (exact, for weight-sum checks)."""
        R, H = self.extent_lateral, self.extent_height
        if self.dimension == 1:
            return H
        if self.dimension == 2:
            return 2.0 * R * H
        return np.pi * R * R * H


def build_grid(dimension: int, R: float, H: float, nodes_lateral: int,
               nodes_height: int, grading: float = 2.0) -> Grid:
    """Tensor midpoint grid; grading >= 1 concentrates height nodes near the wall."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dimension!r}")
    if R <= 0.0 or H <= 0.0:
        raise ValueError("grid extents must be positive")
    if H > _MAX_EXTENT:
        raise ValueError(f"grid height H = {H:g} is above {_MAX_EXTENT:.4g}, "
                         "where squared distances between nodes overflow")
    if dimension > 1 and R > _MAX_EXTENT:
        raise ValueError(f"grid radius R = {R:g} is above {_MAX_EXTENT:.4g}, "
                         "where squared distances between nodes overflow")
    if nodes_height < 2 or (dimension > 1 and nodes_lateral < 2):
        raise ValueError("need at least 2 nodes per direction")
    if grading < 1.0:
        raise ValueError("grading must be >= 1")

    z_edges = H * (np.arange(nodes_height + 1) / nodes_height) ** grading
    z_mid, z_w = 0.5 * (z_edges[:-1] + z_edges[1:]), np.diff(z_edges)
    if z_mid[0] < np.finfo(float).tiny:    # 1/width and coth(width) overflow
        raise ValueError(f"grading {grading:g} puts the lowest node at height "
                         f"{z_mid[0]:.3g}, below the smallest normal float")
    if dimension == 1:
        nodes = z_mid[:, None]
        weights = z_w
        cells = z_w[:, None]
    else:
        r_edges = R * np.arange(nodes_lateral + 1) / nodes_lateral
        r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
        r_w = np.diff(r_edges)
        if dimension == 2:
            ring = 2.0 * r_w                      # mirror pair +/- radius
        else:
            ring = 2.0 * np.pi * r_mid * r_w      # circumference of the ring
        rr, zz = np.meshgrid(r_mid, z_mid, indexing="ij")
        nodes = np.zeros((nodes_lateral * nodes_height, dimension))
        nodes[:, 0] = rr.ravel()
        nodes[:, -1] = zz.ravel()
        with np.errstate(over="ignore"):    # tested below, not warned of
            weights = (ring[:, None] * z_w[None, :]).ravel()
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"grid radius R = {R:g} with height H = {H:g} "
                             "overflows the ring weights 2 pi r dr dz")
        cells = np.column_stack([
            np.broadcast_to(r_w[:, None], rr.shape).ravel(),
            np.broadcast_to(z_w[None, :], rr.shape).ravel(),
        ])
    return Grid(dimension=dimension, nodes=nodes, quad_weights=weights,
                cell_sizes=cells, extent_lateral=float(R), extent_height=float(H),
                grading=float(grading))


def weight_h(t):
    """Boundary weight h(t) = min(t, 1); continuous and nondecreasing."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("weight_h is defined for positive heights")
    out = np.minimum(t, 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal values on a grid, with the weighted norms attached."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(f"field length {vals.shape} does not match "
                             f"grid with {self.grid.n_nodes} nodes")
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "Field":
        return Field(self.grid, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def norm(self, q: float, alpha: float = 0.0) -> float:
        return weighted_norm(self, q, alpha)


def weighted_norm(f: Field, q: float, alpha: float = 0.0) -> float:
    """Quadrature value of the h(x_N)^alpha-weighted L^q norm on the grid."""
    if q < 1.0:
        raise ValueError("q must be at least 1")
    h = weight_h(f.grid.heights)
    integrand = np.abs(f.values) ** q * h ** (q * alpha)
    return float(np.sum(f.grid.quad_weights * integrand) ** (1.0 / q))
