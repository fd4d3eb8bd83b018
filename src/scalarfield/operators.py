"""Discrete integral operators on a half-space grid.

Either Green operator applies K = S W, the sampled kernel S times the
diagonal W of quadrature weights, in one `matvec`.  For N = 2, 3 it is the
dense `KernelMatrix`, which keeps the bare kernel S: each column represents
a mirror pair or a full ring of sources, and the entry carries the
pair/ring average of the kernel.  That S is exactly symmetric, so a product
is one BLAS dsymv of S with w * x, which reads one triangle of S.  For
N = 1 it is exact and O(n): the sampled kernel is semiseparable, so a
product is two cumulative sums, and its inverse is tridiagonal in closed
form (`HalfLineGreen`).  Either way the singular quadrature diagonal
averages the kernel over sub-points of the cell instead of evaluating it at
the (coincident) midpoint.  The dense N = 2 matrix is assembled from one
kernel slab per lateral offset, since on the uniform lateral grid a pair
average depends on the two columns only through their offsets; N = 3 (and
the dense N = 1 reference) is evaluated row block by row block.  Both
evaluate each symmetric pair once and mirror it.  A mirror pair is the
two-angle ring {0, pi}.  The radial Poisson trace is a fixed graded
Gauss-Legendre sum, ~1e-14 relative off a tight adaptive quadrature on the
default grids; no adaptive quadrature is left in this module.  `lu_factor` /
`lu_solve` are the package's only solver of the Jacobian `jacobian`
returns: LAPACK gttrf factors in O(n) for N = 1, GMRES on the Green
product for a dense one, which is never formed (`KrylovJacobian`).  The
matvec's BLAS dsymv and LAPACK gttrf/gttrs are those of the OpenBLAS NumPy
has already loaded, called through ctypes with the Fortran ABI and 64-bit
integers (`kernels._numpy_routines`), so a command loads no second BLAS.  A
NumPy whose library lacks them makes the operators take SciPy's wrappers
instead, on first use, from the extension modules scipy.linalg._fblas and
scipy.linalg._flapack alone (see `kernels._scipy_module`); no command
imports the scipy.linalg package.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .discretization import Field, Grid
from .kernels import _numpy_routines, _scipy_attr, fundamental_E, poisson_P

MAX_MATRIX_BYTES = 4 * 2 ** 30
# length-n vectors a command holds besides its fields, dense matrix and
# GMRES basis: grid, operator, Jacobian factors, iterates, output, Lanczos
# vectors and products (tracemalloc: 31-61 per N = 1 command at 2·10^4 nodes)
HALF_LINE_VECTORS = 64

# kernel evaluations per assembly block; bounds every assembly temporary
_BLOCK_ENTRIES = 500_000
# largest height span of one chunk of the N = 1 matvec: its scaled
# exponentials stay within e^{+-300}, far inside float64's e^{+-709}
_CHUNK_SPAN = 300.0
# SciPy's LAPACK wrapper by name, where NumPy's library lacks the routine:
# dgttrf, dgttrs
_lapack = functools.partial(_scipy_attr, "linalg._flapack", "linalg.lapack")
# SciPy's BLAS wrapper by name, likewise: dsymv
_blas = functools.partial(_scipy_attr, "linalg._fblas", "linalg.blas")


def _integer(value: int):
    """A Fortran integer argument of NumPy's ILP64 OpenBLAS."""
    return ctypes.byref(ctypes.c_int64(value))


def _ref(a: np.ndarray):
    """A Fortran array argument: a reference to the first element of a
    writable C-contiguous array of at least one element."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


_INT_1 = _integer(1)
_DOUBLE_1 = ctypes.byref(ctypes.c_double(1.0))
_DOUBLE_0 = ctypes.byref(ctypes.c_double(0.0))

_GAUSS_ANGLES = 32
_GAUSS_ANGLES_DIAGONAL = 256
_TRACE_ORDER = 12  # points per Gauss-Legendre panel of the radial trace
_PAIR = (np.array([0.0, np.pi]), np.array([0.5, 0.5]))
# Green products one linearized_spectrum call may take
_SPECTRUM_ITERS = 20_000
# Lanczos vectors held before a restart, each with its Green product
_KRYLOV_BASIS = 8
# a dense Jacobian solve's GMRES tolerance and its cap on Green products
_GMRES_TOL = 1e-13
_GMRES_ITERS = 100


class IterationLimitError(RuntimeError):
    """An iterative method ran out of its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateLinearizationError(ValueError):
    """The linearized operator at a state has no dominant eigenpair to find."""


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense Green operator K = S W.  It stores the bare kernel S, exactly
    symmetric: kernel[i, j] = (averaged kernel)(x_i, x_j), with no
    quadrature weight; W = diag(grid.quad_weights) is applied to vectors.
    S is a writable C-ordered float64 array, whose buffer BLAS reads."""

    grid: Grid
    kernel: np.ndarray

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.kernel.shape != (n, n):
            raise ValueError(f"kernel shape {self.kernel.shape} does not match "
                             f"grid with {n} nodes")
        flags = self.kernel.flags
        if not (self.kernel.dtype == np.float64 and flags.c_contiguous
                and flags.writeable):
            raise ValueError("kernel must be a writable C-ordered float64 "
                             "array")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _symv(self.kernel, self.grid.quad_weights * x)

    def jacobian(self, weights: np.ndarray) -> KrylovJacobian:
        """I - S E, E = diag(w * weights), applied by Green products."""
        return KrylovJacobian(self, self.grid.quad_weights * weights)


@dataclass(frozen=True, eq=False)
class KrylovJacobian:
    """The dense Jacobian J = I - S E of a `KernelMatrix`, never formed:
    J x = x - S (e x), one BLAS dsymv."""

    K: KernelMatrix
    e: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x - _symv(self.K.kernel, self.e * x)

    def factor(self) -> KrylovJacobian:
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with J x = b by unrestarted GMRES from 0 (Saad & Schultz, SIAM
        J. Sci. Stat. Comput. 7, 1986) with modified Gram-Schmidt and Givens
        rotations.  It stops at a residual of _GMRES_TOL (|b|_2 + |x|_2), a
        backward error bound as |J| ~ 1, which an LU solve meets beside a
        fold, where x is large.  A zero pivot, or _GMRES_ITERS products short
        of it, gives non-finite entries."""
        beta = float(np.linalg.norm(b))
        if beta == 0.0:
            return np.zeros(b.shape)
        basis, rotations = [b / beta], []
        R = np.zeros((_GMRES_ITERS, _GMRES_ITERS))
        g = np.append(beta, np.zeros(_GMRES_ITERS))     # rotated beta e_1
        with np.errstate(all="ignore"):
            for j in range(_GMRES_ITERS):
                v = self.matvec(basis[j])
                h = R[:j + 1, j]
                for i, q in enumerate(basis):
                    h[i] = np.dot(q, v)
                    v -= h[i] * q
                norm = np.linalg.norm(v)
                for i, (c, s) in enumerate(rotations):
                    h[i], h[i + 1] = (c * h[i] + s * h[i + 1],
                                      c * h[i + 1] - s * h[i])
                r = np.hypot(h[j], norm)
                if not r > 0.0:
                    break
                rotations.append((h[j] / r, norm / r))
                h[j], g[j], g[j + 1] = r, g[j] * h[j] / r, -g[j] * norm / r
                y = np.linalg.solve(R[:j + 1, :j + 1], g[:j + 1])
                if abs(g[j + 1]) <= _GMRES_TOL * (beta + np.linalg.norm(y)):
                    return y @ basis
                basis.append(v / norm)
        return np.full(b.shape, np.nan)


def _symv(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S x for the symmetric n x n S of a `KernelMatrix` and a float64 x of
    shape (n,), by one BLAS dsymv, which reads one triangle of S."""
    routines = _numpy_routines()
    if routines is None:
        # S.T is S, and Fortran-ordered, so dsymv reads it without a copy
        return _blas("dsymv")(1.0, S.T, x)
    if x.shape != S.shape[:1] or x.dtype != np.float64:
        raise ValueError(f"a {x.dtype} vector of shape {x.shape} does not "
                         f"match a float64 kernel of shape {S.shape}")
    y = np.zeros(x.size)
    n = _integer(x.size)
    # S's rows are Fortran's columns of S.T = S: uplo U reads the triangle
    # SciPy's dsymv(1.0, S.T, x) reads, so the rounding is the same
    routines["dsymv"](b"U", n, _DOUBLE_1, _ref(S), n, _ref(x), _INT_1,
                      _DOUBLE_0, _ref(y), _INT_1, 1)
    return y


def _tridiagonal_factors(off, diag):
    """LAPACK gttrf's factors dl, d, du, du2, ipiv of the symmetric
    tridiagonal matrix with bands off and diag; overwrites diag, not off."""
    routines = _numpy_routines()
    if routines is None:
        if diag.size == 2:
            # SciPy's gttrf/gttrs wrappers reject n = 2: border with a unit
            # row
            off, diag = np.append(off, 0.0), np.append(diag, 1.0)
        *factors, _ = _lapack("dgttrf")(off, diag, off, overwrite_d=1)
        return tuple(factors)
    if diag.dtype != np.float64:
        raise ValueError(f"a {diag.dtype} diagonal is not float64")
    # dl, du and du2 take n - 1, n - 1 and n - 2 entries; one more each,
    # so none is empty
    n = diag.size
    factors = (np.append(off, 0.0), diag, np.append(off, 0.0),
               np.empty(max(n - 1, 1)), np.empty(n, np.int64))
    routines["dgttrf"](*_fortran_factors(factors), _integer(0))
    return factors


def _fortran_factors(factors) -> tuple | None:
    """n and references to the gttrf factors, as NumPy's gttrf and gttrs
    take them; None where SciPy's wrappers serve."""
    if _numpy_routines() is None:
        return None
    return (_integer(factors[1].size), *map(_ref, factors))


def _tridiagonal_solve(factors, fortran, b):
    """x with A x = b, from the gttrf factors of A and their
    `_fortran_factors`."""
    if fortran is None:
        dgttrs = _lapack("dgttrs")
        n = b.size
        if factors[1].size > n:
            return dgttrs(*factors, np.append(b, 0.0))[0][:n]
        return dgttrs(*factors, b)[0]
    x = np.array(b, dtype=float)
    if x.shape != factors[1].shape:
        raise ValueError(f"right-hand side shape {x.shape} does not match "
                         f"{factors[1].size} unknowns")
    n, *refs = fortran
    _numpy_routines()["dgttrs"](b"N", n, _INT_1, *refs, _ref(x), n,
                                _integer(0), 1)
    return x


def _carried_cumsum(v: np.ndarray, chunks) -> None:
    """Cumulative sum of v in place, chunk by chunk: a chunk (lo, hi, carry)
    starts from carry times the previous chunk's last sum."""
    for lo, hi, carry in chunks:
        if lo:
            v[lo] += carry * v[lo - 1]
        np.add.accumulate(v[lo:hi], out=v[lo:hi])


@dataclass(frozen=True, eq=False)
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

    S^{-1} = T is tridiagonal and symmetric:
    T_{i,i+1} = -1/sinh(z_{i+1} - z_i) and
    T_ii = coth(z_i - z_{i-1}) + coth(z_{i+1} - z_i), with z_0 = 0 and the
    last coth (of an infinite difference) equal to 1.  A Jacobian
    J = I - (S + C) E, C = diag(c) < 0 (the sub-cell average lies below
    S_ii), E = diag(w * weights) >= 0, is solved through one gttrf of T - D,
    with Lambda = (I - C E)^{-1} in (0, 1] and D = Lambda E:

        J^{-1} b = Lambda (b + (T - D)^{-1} D b).
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

    def jacobian(self, weights: np.ndarray) -> TridiagonalJacobian:
        """J = I - (S + C) E, E = diag(w * weights), as T - D, Lambda, E."""
        e = self.grid.quad_weights * weights
        lam = 1.0 / (1.0 - self.correction * e)
        return TridiagonalJacobian(off=self.t_off, diag=self.t_diag - lam * e,
                                   lam=lam, e=e)


@dataclass(frozen=True, eq=False)
class TridiagonalJacobian:
    """The N = 1 Jacobian of `HalfLineGreen`: T - D (off is the operator's
    own T_{i,i+1}; lu_factor overwrites diag), Lambda and E."""

    off: np.ndarray
    diag: np.ndarray
    lam: np.ndarray
    e: np.ndarray

    def factor(self) -> _TridiagonalLU:
        return _TridiagonalLU(_tridiagonal_factors(self.off, self.diag),
                              self.lam, self.e)


@dataclass(frozen=True, eq=False)
class _TridiagonalLU:
    factors: tuple              # gttrf factors of T - D, ipiv last
    lam: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        # gttrs's references to the factors, made once for all solves
        object.__setattr__(self, "_fortran", _fortran_factors(self.factors))

    def __reduce__(self):
        # a copy makes its references to its own factors
        return type(self), (self.factors, self.lam, self.e)

    def solve(self, b: np.ndarray) -> np.ndarray:
        # see `HalfLineGreen`; a singular T - D gives non-finite entries,
        # returned without a warning
        with np.errstate(all="ignore"):
            return self.lam * (b + _tridiagonal_solve(
                self.factors, self._fortran, self.lam * self.e * b))


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
    # a sum, not a BLAS dot: a dot's rounding depends on where the pair sits
    # in the call, and the matrix must not depend on the assembly blocks
    vals *= w_phi
    return np.sum(vals, axis=-1) / np.sum(w_phi)


def check_memory_budget(dimension: int, n: int, fields: int) -> None:
    """Refuse an n-node problem whose arrays, held at once, would exceed
    MAX_MATRIX_BYTES: HALF_LINE_VECTORS length-n vectors and the `fields` a
    command keeps, and on a dense grid (N = 2, 3) its one n x n matrix and
    a full GMRES basis.  It needs only the node count, not the grid."""
    vectors = HALF_LINE_VECTORS + fields
    if dimension > 1:
        vectors += n + _GMRES_ITERS + 1
    need = vectors * 8 * n
    if need > MAX_MATRIX_BYTES:
        raise ValueError(f"{vectors:,} vectors of {n:,} nodes need {need:,} "
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
    """Dense bare kernel for any dimension.

    N = 2 is built from one kernel slab per lateral offset (`_fill_plane`),
    N = 1, 3 row block by row block (`_fill_rows`).  Either way no temporary
    grows with n x n, and the block size does not change a bit of the result.
    """
    n = grid.n_nodes
    check_memory_budget(2, n, 0)        # a dense operator, whatever N
    kernel = np.empty((n, n))
    if grid.dimension == 2:
        _fill_plane(grid, kernel)
    else:
        _fill_rows(grid, kernel)
    return KernelMatrix(grid=grid, kernel=kernel)


def _fill_rows(grid: Grid, kernel: np.ndarray) -> None:
    """Bare kernel rows in blocks of about _BLOCK_ENTRIES kernel evaluations
    (times the angle count for N = 3), diagonal included.  A block of rows
    lo:hi evaluates only its pairs i <= j, from column lo on, and mirrors
    them to j < i inside the block; the columns left of the block are the
    transposes of rows already filled.  So the kernel is exactly
    symmetric, and each pair is evaluated once."""
    n = grid.n_nodes
    N = grid.dimension
    z = grid.heights
    rho = np.zeros(n) if N == 1 else grid.radii
    block = max(1, _BLOCK_ENTRIES // (n * (_GAUSS_ANGLES if N == 3 else 1)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows, cols = np.triu_indices(hi - lo, 0, n - lo)
        rows += lo
        cols += lo
        # dodge the singular diagonal; those entries are overwritten below
        z_cols = z[cols]
        z_cols[rows == cols] += 1.0
        kernel[rows, cols] = _avg_green(N, rho[rows], z[rows], rho[cols],
                                        z_cols)
        below = np.tril_indices(hi - lo, -1)
        kernel[lo + below[0], lo + below[1]] = kernel[lo + below[1],
                                                      lo + below[0]]
        kernel[lo:hi, :lo] = kernel[:lo, lo:hi].T
        idx = np.arange(lo, hi)
        kernel[idx, idx] = _cell_average(N, rho[lo:hi], z[lo:hi],
                                         grid.cell_sizes[lo:hi])


def _fill_plane(grid: Grid, kernel: np.ndarray) -> None:
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
    out = kernel.reshape(nl, nh, nl, nh)        # out[a, i, b, j]
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
    np.fill_diagonal(kernel, _cell_average(2, grid.radii, heights,
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


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Dominant eigenvalue data of the linearized operator at a state u.

    `iterations` counts Green products (K.matvec calls).  `residual` is
    |B y - rho y|_2 for the unit Ritz vector y in the symmetric form B of
    `linearized_spectrum`; a result passes once it is at most tol * rho.
    """

    rho: float          # dominant eigenvalue of h -> G[p u^{p-1} h]
    eigenfield: Field
    iterations: int
    residual: float

    @property
    def lambda_(self) -> float:
        """1 / rho, the stability margin of u."""
        return 1.0 / self.rho


def linearized_spectrum(K: GreenOperator, u: Field, p: float,
                        tol: float = 1e-8,
                        start: EigenResult | None = None) -> EigenResult:
    """Dominant eigenpair (rho, psi) of h -> G[p u^{p-1} h], that is of
    K M with M = diag(p u^{p-1}), psi scaled to max entry 1.

    K = S W with S symmetric, so K M is similar to the symmetric
    B = D S D, D = (W M)^{1/2}: B y = rho y gives K M psi = rho psi with
    psi = S D y / rho.  B's top eigenpair is found by Lanczos iteration
    with full reorthogonalization (Golub & Van Loan, *Matrix
    Computations*, ch. 10), one K.matvec per product, B y = D K(W^{-1} D y).
    It starts from D |start.eigenfield| (the pair at a nearby state), or
    from D 1 without a usable start, and passes once the top Ritz residual
    |B y - rho y|_2 is at most tol * rho, so rho is exact to round-off.
    psi is the same combination of the kept products S D q_j as y is of
    the Lanczos vectors q_j, so it takes no further product.  A full basis
    of _KRYLOV_BASIS vectors restarts from its top Ritz vector.
    """
    w = K.grid.quad_weights
    d = p * np.maximum(u.values, 0.0) ** (p - 1.0)     # M, then D in place
    if not np.any(d > 0.0):
        raise DegenerateLinearizationError(
            "linearization weight p u^(p-1) vanishes identically")
    np.sqrt(np.multiply(d, w, out=d), out=d)
    scale = d / w
    basis = np.empty((_KRYLOV_BASIS, d.size))       # Lanczos vectors q_j
    products = np.empty((_KRYLOV_BASIS, d.size))    # S D q_j
    T = np.zeros((_KRYLOV_BASIS, _KRYLOV_BASIS))   # tridiagonal Q^T B Q
    basis[0] = d if start is None else d * np.abs(start.eigenfield.values)
    if not 0.0 < np.linalg.norm(basis[0]) < np.inf:
        basis[0] = d
    iterations = 0
    while True:
        basis[0] /= np.linalg.norm(basis[0])
        for j in range(_KRYLOV_BASIS):
            products[j] = K.matvec(scale * basis[j])
            iterations += 1
            r = d * products[j]
            T[j, j] = np.dot(basis[j], r)
            # classical Gram-Schmidt twice against the whole basis
            for _ in range(2):
                r -= (basis[:j + 1] @ r) @ basis[:j + 1]
            beta = np.linalg.norm(r)
            theta, s = np.linalg.eigh(T[:j + 1, :j + 1])
            rho, s = float(theta[-1]), s[:, -1]
            residual = float(beta * abs(s[-1]))
            if residual <= tol * rho:
                psi = s @ products[:j + 1]
                psi /= psi[np.argmax(np.abs(psi))]
                return EigenResult(rho=rho, eigenfield=Field(K.grid, psi),
                                   iterations=iterations, residual=residual)
            if iterations >= _SPECTRUM_ITERS:
                raise IterationLimitError(
                    f"Lanczos iteration did not reach tol={tol:g} in "
                    f"{_SPECTRUM_ITERS} products (residual {residual:.3e})",
                    residual=residual)
            if j + 1 < _KRYLOV_BASIS:
                T[j + 1, j] = T[j, j + 1] = beta
                np.divide(r, beta, out=basis[j + 1])
        basis[0] = s @ basis                        # restart from the Ritz vector


def jacobian(K: GreenOperator, u: Field, p: float):
    """Jacobian I - G diag(p u^{p-1}) of the fixed-point residual at u, in
    the form lu_factor takes: for a dense K the implicit `KrylovJacobian`,
    for N = 1 a `TridiagonalJacobian` (notation of `HalfLineGreen`)."""
    return K.jacobian(p * np.maximum(u.values, 0.0) ** (p - 1.0))


def lu_factor(J):
    """The solver of a Jacobian from `jacobian` (gttrf factors of the N = 1
    T - D, overwriting it, or a dense J itself).  A singular J's solves have
    non-finite entries, with no warning."""
    return J.factor()


def lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve J x = b with lu_factor's result."""
    return lu.solve(b)
