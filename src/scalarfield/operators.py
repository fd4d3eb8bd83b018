"""Discrete integral operators on a half-space grid.

The Green operator carries the quadrature weights, so applying it is one
`matvec`.  For N = 2, 3 it is a dense matrix: each column represents a
mirror pair or a full ring of sources, and the entry carries the pair/ring
average of the kernel.  For N = 1 it is exact and O(n): the sampled kernel
is semiseparable, so a product is two cumulative sums, and its inverse is
tridiagonal in closed form (`HalfLineGreen`).  Either way the singular
quadrature diagonal averages the kernel over sub-points of the cell instead
of evaluating it at the (coincident) midpoint.  The dense N = 2 matrix is assembled from one kernel
slab per lateral offset, since on the uniform lateral grid a pair average
depends on the two columns only through their offsets, and each symmetric
slab value is evaluated once; N = 3 (and the dense
N = 1 reference) is evaluated row block by row block.  A mirror pair is
the two-angle ring {0, pi}.  The radial Poisson trace is a fixed graded
Gauss-Legendre sum, ~1e-14 relative off a tight adaptive quadrature on the
default grids; no adaptive quadrature is left in this module.  `lu_factor` /
`lu_solve` are the package's only factorization of the Jacobian `jacobian`
returns for either operator; they take SciPy's LAPACK wrappers on their
first call from the extension module scipy.linalg._flapack alone (see
`kernels._scipy_module`), so no command imports the scipy.linalg package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .discretization import Field, Grid
from .kernels import _scipy_attr, fundamental_E, poisson_P

MAX_MATRIX_BYTES = 4 * 2 ** 30
# length-n float64 vectors a half-line command holds at once besides the
# fields it keeps: grid, operator and Jacobian factors, iterates, output
# columns (tracemalloc reads 31-42 per command at 2·10^4 nodes)
HALF_LINE_VECTORS = 64

# kernel evaluations per assembly block; bounds every assembly temporary
_BLOCK_ENTRIES = 500_000
# columns per block when jacobian writes its Fortran-ordered J
_JACOBIAN_COLUMNS = 64
# largest height span of one chunk of the N = 1 matvec: its scaled
# exponentials stay within e^{+-300}, far inside float64's e^{+-709}
_CHUNK_SPAN = 300.0
# a LAPACK wrapper by name: dgttrf, dgttrs, dgetrf, dgetrs
_lapack = functools.partial(_scipy_attr, "linalg._flapack", "linalg.lapack")

_GAUSS_ANGLES = 32
_GAUSS_ANGLES_DIAGONAL = 256
_TRACE_ORDER = 12  # points per Gauss-Legendre panel of the radial trace
_PAIR = (np.array([0.0, np.pi]), np.array([0.5, 0.5]))
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
    # a dense LU and tangent cost ~28 chord steps (864 nodes); a point takes ~15
    refactorize = False

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.entries.shape != (n, n):
            raise ValueError(f"entries shape {self.entries.shape} does not match "
                             f"grid with {n} nodes")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ x

    def jacobian(self, weights: np.ndarray) -> np.ndarray:
        """I - K diag(weights), Fortran-ordered, so lu_factor overwrites it
        instead of copying it first."""
        n = self.grid.n_nodes
        J = np.empty((n, n), order="F")
        neg_weights = -weights
        # column blocks keep both the C-ordered reads and the F-ordered writes
        # cache-friendly; one strided pass over the whole matrix is slower
        for lo in range(0, n, _JACOBIAN_COLUMNS):
            cols = slice(lo, lo + _JACOBIAN_COLUMNS)
            np.multiply(self.entries[:, cols], neg_weights[cols], out=J[:, cols])
        J[np.diag_indices_from(J)] += 1.0
        return J


def _tridiagonal_factors(lower, diag, upper):
    """LAPACK gttrf factors of a tridiagonal matrix; overwrites its bands."""
    if diag.size == 2:
        # SciPy's gttrf/gttrs wrappers reject n = 2: border with a unit row
        lower, upper = np.append(lower, 0.0), np.append(upper, 0.0)
        diag = np.append(diag, 1.0)
    *factors, _ = _lapack("dgttrf")(lower, diag, upper, overwrite_dl=1,
                                    overwrite_d=1, overwrite_du=1)
    return tuple(factors)


def _tridiagonal_solve(factors, b, trans="N"):
    dgttrs = _lapack("dgttrs")
    n = b.size
    if factors[1].size > n:
        return dgttrs(*factors, np.append(b, 0.0), trans=trans)[0][:n]
    return dgttrs(*factors, b, trans=trans)[0]


def _carried_cumsum(v: np.ndarray, chunks) -> None:
    """Cumulative sum of v in place, chunk by chunk: a chunk (lo, hi, carry)
    starts from carry times the previous chunk's last sum."""
    for lo, hi, carry in chunks:
        if lo:
            v[lo] += carry * v[lo - 1]
        np.add.accumulate(v[lo:hi], out=v[lo:hi])


@dataclass(frozen=True)
class HalfLineGreen:
    """The N = 1 Green matrix K = (S + diag c) W, applied and factorized in O(n).

    S_ij = sinh(z_min) e^{-z_max} samples the half-line Green kernel and W
    holds the quadrature weights; c moves the diagonal from S_ii to the
    sub-cell average s = S_ii + c.  S is semiseparable: with
    a = sinh(z) e^{-z} and y = W x,

        K x = L + a V + s y,
        L = e^{-z} cumsum(e^{z} a y),   V = e^{z} revcumsum(e^{-z} y),

    both sums excluding j = i (exclusive scans: each sum's input is shifted
    by one node), so a product is two cumulative sums and the diagonal is
    added, not corrected by a difference that cancels in wide cells.  Each
    term's exponent is taken relative to the first (L) or last (V) height
    of the chunk its scan position lies in; chunks span at most _CHUNK_SPAN
    in height and carry their last sum on to the next, so nothing overflows
    at any height.  The scaled weights are built once, when the operator is
    assembled.

    S^{-1} = T is tridiagonal, which gives the Jacobians:
    T_{i,i+1} = -1/sinh(z_{i+1} - z_i) and
    T_ii = coth(z_i - z_{i-1}) + coth(z_{i+1} - z_i), with z_0 = 0 and the
    last coth (of an infinite difference) equal to 1.
    """

    grid: Grid
    t_diag: np.ndarray
    t_off: np.ndarray           # T_{i,i+1} = T_{i+1,i}
    correction: np.ndarray      # c = sub-cell average - S_ii
    l_in: np.ndarray            # e^{z_{i-1} - z_first} a_{i-1} w_{i-1}, i >= 1
    l_out: np.ndarray           # e^{z_first - z}
    v_in: np.ndarray            # e^{z_last - z_{i+1}} w_{i+1}, i < n - 1
    v_out: np.ndarray           # a e^{z - z_last}
    diag_weights: np.ndarray    # s w
    l_chunks: tuple             # (lo, hi, carry) from the bottom up
    v_chunks: tuple             # the same from the top down, reversed indices

    # an O(n) Jacobian, gttrf and tangent solve cost ~1 chord step (300-20 000 nodes)
    refactorize = True

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        out[0] = 0.0
        np.multiply(self.l_in, x[:-1], out=out[1:])
        _carried_cumsum(out, self.l_chunks)
        out *= self.l_out
        high = np.empty(x.shape)
        high[-1] = 0.0
        np.multiply(self.v_in, x[1:], out=high[:-1])
        _carried_cumsum(high[::-1], self.v_chunks)
        high *= self.v_out
        out += high
        np.multiply(self.diag_weights, x, out=high)
        out += high
        return out

    def t_times(self, b: np.ndarray) -> np.ndarray:
        out = self.t_diag * b
        out[:-1] += self.t_off * b[1:]
        out[1:] += self.t_off * b[:-1]
        return out

    def jacobian(self, weights: np.ndarray) -> TridiagonalJacobian:
        """J = I - K diag(weights) = S A with A = T - M - T diag(c) M,
        M = diag(w * weights); A is tridiagonal."""
        m = self.grid.quad_weights * weights
        scale = 1.0 - self.correction * m       # A = T diag(scale) - M
        return TridiagonalJacobian(green=self,
                                   lower=self.t_off * scale[:-1],
                                   diag=self.t_diag * scale - m,
                                   upper=self.t_off * scale[1:])


@dataclass(frozen=True)
class TridiagonalJacobian:
    """The N = 1 Jacobian J = S A, held as A's three bands; lu_factor
    overwrites them."""

    green: HalfLineGreen
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)


@dataclass(frozen=True)
class _TridiagonalLU:
    green: HalfLineGreen
    factors: tuple              # gttrf factors of A

    def solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        # J^{-1} b = A^{-1} (T b) and J^{-T} b = T (A^{-T} b)
        if trans:
            return self.green.t_times(_tridiagonal_solve(self.factors, b, "T"))
        return _tridiagonal_solve(self.factors, self.green.t_times(b))


GreenOperator = KernelMatrix | HalfLineGreen


@functools.cache
def _gauss_legendre(order: int):
    """The order-point Gauss-Legendre rule on (-1, 1), computed once per
    order and shared, so its arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, order: int):
    """Composite order-point Gauss-Legendre nodes and weights on the panels
    between consecutive edges (last axis); zero-width panels add nothing."""
    x, w = _gauss_legendre(order)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    shape = np.shape(edges)[:-1] + (-1,)
    return ((edges[..., :-1, None] + half * (x + 1.0)).reshape(shape),
            (half * w).reshape(shape))


def _lateral_sq(gap, rho_x, rho_y, phi):
    """|x' - y'|^2 for radii rho_x, rho_y at angle phi apart, given their
    exact gap = +-(rho_x - rho_y); no cancellation."""
    return gap ** 2 + 4.0 * rho_x * rho_y * np.sin(0.5 * phi) ** 2


def _avg_green(N: int, rho_x, z_x, rho_y, z_y, n_angles: int = _GAUSS_ANGLES):
    """Ring/pair-averaged Green kernel between axisymmetric nodes.

    All four coordinate arrays broadcast together; heights must be positive
    and the configurations must keep the direct distance positive.
    """
    dz = z_x - z_y
    if N == 1:
        # (e^-|dz| - e^-(z_x + z_y)) / 2, without its cancellation near the
        # boundary
        nearer = np.minimum(z_x, z_y)
        return -0.5 * np.expm1(-2.0 * nearer) * np.exp(-np.abs(dz))
    phi, w_phi = (_PAIR if N == 2
                  else gauss_panels(np.array([0.0, np.pi]), n_angles))
    lat2 = _lateral_sq((rho_x - rho_y)[..., None], rho_x[..., None],
                       rho_y[..., None], phi)
    direct = np.sqrt(lat2 + dz[..., None] ** 2)
    mirror = np.sqrt(lat2 + (z_x + z_y)[..., None] ** 2)
    vals = fundamental_E(N, direct) - fundamental_E(N, mirror)
    return vals @ w_phi / np.sum(w_phi)


def check_matrix_budget(n: int, copies: int) -> None:
    """Refuse a grid whose `copies` dense n x n float64 matrices, held at
    once, would exceed MAX_MATRIX_BYTES."""
    need = copies * 8 * n * n
    if need > MAX_MATRIX_BYTES:
        raise ValueError(f"{copies} dense {n} x {n} matrices need {need:,} "
                         f"bytes; the memory budget is {MAX_MATRIX_BYTES:,} "
                         "bytes")


def check_memory_budget(dimension: int, n: int, copies: int,
                        fields: int) -> None:
    """Refuse an n-node problem whose arrays, held at once, would exceed
    MAX_MATRIX_BYTES; it needs only the node count, not the grid.

    A dense grid (N = 2, 3) counts `copies` n x n matrices; its vectors are
    negligible beside them.  A half-line grid holds no matrix: it counts
    HALF_LINE_VECTORS length-n vectors plus the `fields` a command keeps.
    """
    if dimension > 1:
        check_matrix_budget(n, copies)
        return
    vectors = HALF_LINE_VECTORS + fields
    need = vectors * 8 * n
    if need > MAX_MATRIX_BYTES:
        raise ValueError(f"{vectors} vectors of {n:,} nodes need {need:,} "
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


def _half_line_green(grid: Grid) -> HalfLineGreen:
    z, w = grid.heights, grid.quad_weights
    gaps = np.diff(z, prepend=0.0)              # z_i - z_{i-1}, z_0 = 0
    coth = 1.0 / np.tanh(gaps)
    t_diag = coth + np.append(coth[1:], 1.0)
    # -1/sinh(gap), written so that a huge gap gives -0 without overflow
    t_off = 2.0 * np.exp(-gaps[1:]) / np.expm1(-2.0 * gaps[1:])
    a = -0.5 * np.expm1(-2.0 * z)               # sinh(z) e^{-z} = S_ii
    cell = _cell_average(1, None, z, grid.cell_sizes)
    # chunk edges: each chunk spans at most _CHUNK_SPAN in height
    edges = [0]
    while edges[-1] < z.size:
        edges.append(int(np.searchsorted(z, z[edges[-1]] + _CHUNK_SPAN,
                                         "right")))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    first, last = z[lo], z[hi - 1]
    chunk = np.repeat(np.arange(lo.size), hi - lo)
    # a chunk's carry moves the previous sum into its own exponent frame
    l_carry = np.exp(-np.diff(first, prepend=first[0]))
    v_carry = np.exp(-np.diff(last, append=last[-1]))
    n = z.size
    return HalfLineGreen(
        grid=grid, t_diag=t_diag, t_off=t_off, correction=cell - a,
        # scan position i holds node i - 1 (L) or i + 1 (V), scaled in the
        # frame of position i's chunk
        l_in=np.exp(z[:-1] - first[chunk[1:]]) * (a * w)[:-1],
        l_out=np.exp(first[chunk] - z),
        v_in=np.exp(last[chunk[:-1]] - z[1:]) * w[1:],
        v_out=a * np.exp(z - last[chunk]),
        diag_weights=cell * w,
        l_chunks=tuple(zip(lo.tolist(), hi.tolist(), l_carry.tolist())),
        v_chunks=tuple(zip((n - hi).tolist(), (n - lo).tolist(),
                           v_carry.tolist()))[::-1])


def assemble_green(grid: Grid) -> GreenOperator:
    """The Green operator of the grid's own dimension.

    N = 1 gets the O(n) `HalfLineGreen`, with no n x n array anywhere.
    N = 2, 3 get the dense `KernelMatrix`; `_assemble_dense` also builds it
    for N = 1, as the reference the tests compare `HalfLineGreen` with.
    """
    if grid.dimension == 1:
        return _half_line_green(grid)
    return _assemble_dense(grid)


def _assemble_dense(grid: Grid) -> KernelMatrix:
    """Dense Green matrix for any dimension.

    N = 2 is built from one kernel slab per lateral offset (`_fill_plane`),
    N = 1, 3 row block by row block (`_fill_rows`).  Either way no temporary
    grows with n x n, and the block size does not change a bit of the result.
    """
    n = grid.n_nodes
    check_matrix_budget(n, copies=1)
    entries = np.empty((n, n))
    if grid.dimension == 2:
        _fill_plane(grid, entries)
    else:
        _fill_rows(grid, entries)
    entries *= grid.quad_weights[None, :]
    return KernelMatrix(grid=grid, entries=entries)


def _fill_rows(grid: Grid, entries: np.ndarray) -> None:
    """Bare kernel rows in blocks of about _BLOCK_ENTRIES kernel evaluations
    (times the angle count for N = 3), diagonal included."""
    n = grid.n_nodes
    N = grid.dimension
    z = grid.heights
    rho = np.zeros(n) if N == 1 else grid.radii
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


def _fill_plane(grid: Grid, entries: np.ndarray) -> None:
    """Bare N = 2 kernel from one height-by-height slab per lateral offset.

    Node (a, i) sits at radius (a + 1/2) dr and height z_i, a < nl, i < nh,
    on build_grid's uniform lateral midpoints.  Its mirror-pair average with
    (b, j) depends on a and b only through the offsets |a - b| (the direct
    pair) and a + b + 1 (the mirrored pair):

        block (a, b) = (T_|a-b| + T_(a+b+1)) / 2,
        T_d[i, j] = E(hypot(d dr, z_i - z_j)) - E(hypot(d dr, z_i + z_j)),

    so 2 nl slabs of nh x nh hold every kernel value of the nl^2 blocks.
    T_d is exactly symmetric, and so is the bare matrix.  The slabs are built
    for blocks of height rows lo:hi, about _BLOCK_ENTRIES kernel pairs each,
    and only for the columns from lo on: each T_d[i, j] is evaluated once,
    for i <= j, and mirrored to j < i inside the block; the columns left of
    the block are the transposes of rows already filled.  The singular
    diagonal is the sub-cell average.
    """
    heights = grid.heights
    nl = int(np.count_nonzero(heights == heights[0]))
    nh = grid.n_nodes // nl
    z = heights[:nh]
    lateral = (grid.cell_sizes[0, 0] * np.arange(2 * nl))[:, None]
    columns = np.arange(nl)
    direct = np.abs(columns[:, None] - columns[None, :])
    mirrored = columns[:, None] + columns[None, :] + 1
    out = entries.reshape(nl, nh, nl, nh)       # out[a, i, b, j]
    block = max(1, _BLOCK_ENTRIES // (2 * nl * nh))
    for lo in range(0, nh, block):
        hi = min(lo + block, nh)
        rows, cols = np.triu_indices(hi - lo, 0, nh - lo)
        zi, zj = z[lo + rows], z[lo + cols]
        source = np.hypot(lateral, zi - zj)
        # dodge the singular d = 0, i = j entries; the diagonal is
        # overwritten below
        source[0, rows == cols] = 1.0
        upper = fundamental_E(2, source)
        upper -= fundamental_E(2, np.hypot(lateral, zi + zj, out=source))
        slabs = np.empty((2 * nl, hi - lo, nh - lo))
        slabs[:, rows, cols] = upper
        below = np.tril_indices(hi - lo, -1)
        slabs[:, below[0], below[1]] = slabs[:, below[1], below[0]]
        for a in range(nl):
            pair = slabs[direct[a]]
            pair += slabs[mirrored[a]]
            pair *= 0.5
            out[a, lo:hi, :, lo:] = pair.transpose(1, 0, 2)
            out[a, lo:hi, :, :lo] = out[:, :lo, a, lo:hi].transpose(2, 0, 1)
    np.fill_diagonal(entries, _cell_average(2, grid.radii, heights,
                                            grid.cell_sizes))


def apply_green(K: GreenOperator, f: Field) -> Field:
    if f.grid.n_nodes != K.grid.n_nodes:
        raise ValueError(f"field on {f.grid.n_nodes}-node grid cannot be applied "
                         f"to a {K.grid.n_nodes}-node Green operator")
    return Field(K.grid, K.matvec(f.values))


def _radial_profile(mu_spec: dict):
    radii = np.asarray(mu_spec["radii"], dtype=float)
    values = np.asarray(mu_spec["values"], dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
        raise ValueError("radial_density needs matching 1-d 'radii' and 'values'")
    if not (np.isfinite(radii).all() and np.isfinite(values).all()):
        raise ValueError("radial density 'radii' and 'values' must be finite")
    if np.any(np.diff(radii) <= 0.0) or radii[0] < 0.0:
        raise ValueError("'radii' must be increasing and nonnegative")
    if np.any(values < 0.0):
        raise ValueError("radial density values must be nonnegative")
    return radii, values


def _doublings(near, far):
    """near * 2^k for k = 0 .. L - 1, with the fewest L that reach every far."""
    levels = 1 + int(np.max(np.ceil(np.log2(far / near)), initial=0))
    return near * 2.0 ** np.arange(levels)


def _radial_trace(grid: Grid, radii, values) -> np.ndarray:
    """P[mu] at every node for a radial density mu: composite Gauss-Legendre
    in the offset t = s - r_i with edges at the knots and
    clip(+-(h_i/2) 2^k, -r_i, r_max - r_i), h_i = min(z_i, 1) (P's pole
    distance, capped at its decay length), and, for N = 3, in phi with edges
    0, min((c/2) 2^k, pi), pi, where c is the distance of the kernel's
    complex pole from phi = 0.  In t the lateral gap r_i - s is exact
    however far out r_i is.  Zero-weight points are dropped; a block of
    about _BLOCK_ENTRIES kernel values is one poisson_P call."""
    N, n = grid.dimension, grid.n_nodes
    r, z, r_max = grid.radii[:, None], grid.heights[:, None], radii[-1]
    steps = _doublings(np.minimum(0.5 * z, 0.5),
                       np.maximum(r, np.abs(r_max - r)))
    t, w = gauss_panels(np.sort(np.hstack([
        np.append(0.0, radii) - r,
        np.clip(-steps, -r, r_max - r), np.clip(steps, -r, r_max - r)])),
        _TRACE_ORDER)
    s = r + t
    # ring measure x average: 2 x pair mean, 2 pi s x (integral on (0, pi))/pi
    w *= np.interp(s, radii, values) * (2.0 if N == 2 else 2.0 * s)
    node, col = np.nonzero(w)
    s, t, w = s[node, col], t[node, col], w[node, col]
    r, z = r[node, 0], z[node, 0]
    c = np.sqrt((t * t + z * z) / (r * s))
    angle_steps = _doublings(0.5, np.pi / c)
    ring = np.empty(s.size)
    block = max(1, _BLOCK_ENTRIES // (
        2 if N == 2 else _TRACE_ORDER * (angle_steps.size + 1)))
    for lo in range(0, s.size, block):
        pairs = slice(lo, lo + block)
        phi, w_phi = _PAIR if N == 2 else gauss_panels(np.pad(
            np.minimum(c[pairs, None] * angle_steps, np.pi), ((0, 0), (1, 1)),
            constant_values=(0.0, np.pi)), _TRACE_ORDER)
        lat = np.sqrt(_lateral_sq(t[pairs, None], r[pairs, None],
                                  s[pairs, None], phi))
        x = np.zeros(lat.shape + (N,))
        x[..., 0], x[..., -1] = lat, z[pairs, None]
        ring[pairs] = np.sum(poisson_P(N, x) * w_phi, axis=-1)
    return np.bincount(node, weights=w * ring, minlength=n)


def poisson_trace(grid: Grid, mu_spec: dict) -> Field:
    """Harmonic-type extension of the boundary measure onto the grid nodes.

    mu_spec is either {"type": "point_mass", "mass": m} (a Dirac mass at the
    boundary origin) or {"type": "radial_density", "radii": [...],
    "values": [...]} (a radially symmetric density, linearly interpolated,
    zero beyond the last radius), summed by `_radial_trace`.
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
        return Field(grid, _radial_trace(grid, *_radial_profile(mu_spec)))

    raise ValueError(f"unknown boundary measure type {kind!r}")


@dataclass(frozen=True)
class EigenResult:
    """Dominant eigenvalue data of the linearized operator at a state u."""

    rho: float          # dominant eigenvalue of h -> G[p u^{p-1} h]
    lambda_: float      # 1 / rho, the stability margin of u
    eigenfield: Field
    iterations: int
    residual: float


def linearized_spectrum(K: GreenOperator, u: Field, p: float,
                        tol: float = 1e-8) -> EigenResult:
    """Power iteration for the dominant eigenpair of h -> G[p u^{p-1} h],
    one K.matvec per step."""
    weights = p * np.maximum(u.values, 0.0) ** (p - 1.0)
    if not np.any(weights > 0.0):
        raise DegenerateLinearizationError(
            "linearization weight p u^(p-1) vanishes identically")
    psi = np.ones(K.grid.n_nodes)
    rho = 0.0
    residual = np.inf
    for it in range(1, _SPECTRUM_ITERS + 1):
        v = K.matvec(weights * psi)
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


def jacobian(K: GreenOperator, u: Field, p: float):
    """Jacobian I - G diag(p u^{p-1}) of the fixed-point residual at u, in
    the form lu_factor takes.

    For a dense K it is the n x n matrix, Fortran-ordered.  For N = 1 it is
    a `TridiagonalJacobian`: J = S A with A = T - M - T diag(c) M and
    M = diag(w p u^{p-1}), in the notation of `HalfLineGreen`.
    """
    return K.jacobian(p * np.maximum(u.values, 0.0) ** (p - 1.0))


def lu_factor(J):
    """LU factors of a Jacobian from `jacobian`; J is overwritten.

    A dense J is factorized by LAPACK getrf, in place when it is
    Fortran-ordered; the tridiagonal A of the N = 1 Jacobian by gttrf, in
    O(n).  A singular J is not reported here: its solves come out with
    non-finite entries.
    """
    if isinstance(J, TridiagonalJacobian):
        return _TridiagonalLU(J.green, _tridiagonal_factors(J.lower, J.diag,
                                                            J.upper))
    lu, piv, _ = _lapack("dgetrf")(J, overwrite_a=1)
    return lu, piv


def lu_solve(lu, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve J x = b (trans=0) or J^T x = b (trans=1) with lu_factor's result."""
    if isinstance(lu, _TridiagonalLU):
        return lu.solve(b, trans)
    return _lapack("dgetrs")(*lu, b, trans=trans)[0]


def smallest_singular_value(J) -> float:
    """Smallest singular value of a Jacobian by inverse power iteration on
    J^T J; J is factorized in place, as by lu_factor.

    Returns 0.0 if J is numerically singular.
    """
    n = J.shape[0]
    if J.shape != (n, n):
        raise ValueError("J must be square")
    with np.errstate(all="ignore"):
        lu = lu_factor(J)
        x = np.ones(n) / np.sqrt(n)
        sigma = np.inf
        for _ in range(_SVD_ITERS):
            y = lu_solve(lu, x, trans=1)
            v = lu_solve(lu, y, trans=0)
            norm = np.linalg.norm(v)
            if not np.isfinite(norm) or norm == 0.0:
                return 0.0
            new_sigma = 1.0 / np.sqrt(norm)
            x = v / norm
            if abs(new_sigma - sigma) <= _SVD_TOL * max(new_sigma, 1e-300):
                return new_sigma
            sigma = new_sigma
    return sigma
