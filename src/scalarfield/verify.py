"""Empirical checks of the kernel identities, norm inequalities, and
monotone solution structure.

Every check is deterministic and returns a CheckReport with a pass flag,
the decisive statistic, and free-form diagnostics.  Sample points come from
one fixed, evenly spread set, not a random generator: the Kronecker
sequence k (sqrt 2, sqrt 3, ...) mod 1 (equidistributed: Weyl, 1916).
Thresholds are fixed constants: Poisson mass and kernel stacking 1e-12,
pointwise Green bound 1e-12 slack, integral scaling slope 0.05, norm-ratio
change under refinement 10% either way, and the divergence rate of the
borderline Green integral 10%.  Every integral is a fixed composite
Gauss-Legendre rule (`operators.gauss_panels`).

The weighted Green integral of the scaling check uses one fixed height rule
for every N: composite 12-point Gauss-Legendre on (0, t), (t, 1) and
(1, 30), with panels shrinking by 1/4 toward y = 0 (down to 1e-12 t, for the
y^(s(1 + theta)) singularity) and toward the kink at y = t from both sides
(down to 1e-4 t): the hp rule for endpoint power singularities (Schwab,
p- and hp-Finite Element Methods, 1998).  N = 2, 3 tensor it with
12-point Gauss-Legendre panels in the lateral radius, graded toward 0 at
the pole distance |y_N - t| (`_lateral_green`); against the exact lateral
integral of G, G_1(t, y_N), that reads <= 6e-9 relative for t = 1 and
1e-8 <= y_N <= 0.9, where green_G's own cancellation sets the floor.
Against closed forms for N = 1 the height rule reads <= 1e-11 relative for
s = 2 and for (s, theta) = (1, -1.2); at (1, -1.5) its floor is ~1e-8, set
by the innermost panel, (0, 1e-12 t), at the y^(-1/2) singularity of the
integrand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .discretization import Field, Grid, build_grid, weight_h
from .exponents import green_norm_pair_ok
from .kernels import fundamental_E, fundamental_dE, green_G, poisson_P
from .operators import (_BLOCK_ENTRIES, GreenOperator, _doublings,
                        apply_green, assemble_green, gauss_panels,
                        linearized_spectrum)
from .solver import monotone_iterate

MASS_TOL = 1e-12
POINTWISE_SLACK = 1e-12
SLOPE_TOL = 0.05
REFINEMENT_GROWTH = 0.10
SHARPNESS_TOL = 0.10
STRUCTURE_SLACK = 1e-10

_IDENTITY_SAMPLES = 10_000
_GLAA_FAMILY_SIZE = 6
# one irrational step per dimension of the Kronecker sequence: 2N <= 6
_KRONECKER_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])

# height rule of the weighted Green integral (see the module docstring)
_HEIGHT_ORDER = 12
_HEIGHT_GRADING = 0.25
_ZERO_GAP = 1e-12
_KINK_GAP = 1e-4
_TAIL_PANELS = 3
# truncation of the height and lateral integrals
_CUT = 30.0
# truncation of the kernel identities' boundary integrals
_BOUNDARY_CUT = 40.0
# height rule of the sharpness check: half-decade panels up to 1/e, with
# the cutoffs eps = 1e-8, 1e-6, 1e-4, 1e-3 at these edge indices
_BORDERLINE_EDGES = np.append(10.0 ** np.arange(-8.0, -0.5, 0.5),
                              np.exp(-1.0))
_BORDERLINE_CUTS = np.array([0, 4, 8, 10])


@dataclass(frozen=True, eq=False)
class CheckReport:
    name: str
    passed: bool
    statistic: float
    details: dict = field(default_factory=dict)
    samples: int = 0

    def __post_init__(self):
        # checks compute `passed` from numpy comparisons; json needs a bool
        object.__setattr__(self, "passed", bool(self.passed))


def _kronecker(count: int, dims: int) -> np.ndarray:
    """The first `count` points k (sqrt 2, sqrt 3, ...) mod 1, k >= 1, of
    the Kronecker sequence in `dims` <= 6 dimensions."""
    x = np.arange(1.0, count + 1.0)[:, None] * _KRONECKER_STEPS[:dims]
    return x - np.floor(x)


@functools.cache
def _sample_points(N: int):
    """The (x, y) point pairs of the kernel identities, from the Kronecker
    sequence in 2N dimensions: lateral coordinates in (-5, 5), heights
    log-uniform in (1e-3, 5).  Computed once per N and shared, so the
    arrays are read-only."""
    u = _kronecker(_IDENTITY_SAMPLES, 2 * N).reshape(-1, 2, N).swapaxes(0, 1)
    pts = (10.0 * u - 5.0).copy()       # C order: pts[0] and pts[1] contiguous
    pts[..., -1] = 1e-3 * np.exp(np.log(5e3) * u[..., -1])
    pts.flags.writeable = False
    return pts[0], pts[1]


def _boundary_rule(N: int, centres, heights):
    """Nodes (m, N - 1) and weights on the boundary |w| < _BOUNDARY_CUT:
    Gauss-Legendre panels in w (N = 2), or in |w| times a 64-angle
    trapezoid (N = 3), graded toward each lateral centre at its kernel's
    height, capped at 1, as in the radial Poisson trace.  The boundary of
    the half line (N = 1) is one point."""
    if N == 1:
        return np.zeros((1, 0)), np.ones(1)
    c = np.asarray(centres, dtype=float)[:, None]
    steps = _doublings(np.minimum(0.5 * np.asarray(heights), 0.5)[:, None],
                       2.0 * _BOUNDARY_CUT)
    lo = -_BOUNDARY_CUT if N == 2 else 0.0
    t, w = gauss_panels(np.sort(np.clip(np.hstack(
        [lo, _BOUNDARY_CUT, *(c - steps), *(c + steps)]), lo, _BOUNDARY_CUT)),
        _HEIGHT_ORDER)
    if N == 2:
        return t[:, None], w
    phi = np.linspace(0.0, 2.0 * np.pi, 65)[:-1]
    nodes = t[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return nodes.reshape(-1, 2), np.repeat(w * t * (2.0 * np.pi / 64), 64)


def _poisson_mass_error(N: int, height: float) -> float:
    """Quadrature of P(x, .) over the boundary minus e^{-x_N}."""
    nodes, w = _boundary_rule(N, [0.0], [height])
    return abs(w @ poisson_P(N, np.eye(N)[-1:] * height, nodes)
               - np.exp(-height))


def _semigroup_error(N: int, a: float, b: float, offset: float = 0.0) -> float:
    """Stacking two boundary kernels at heights a, b vs one at a + b."""
    x = np.zeros((3, 1, N))     # (x', a), (0, b), (x', a + b); x' = offset e_1
    x[[0, 2], 0, :-1] = offset * (np.arange(N - 1) == 0)
    x[:, 0, -1] = a, b, a + b
    nodes, w = _boundary_rule(N, [0.0, offset], [b, a])
    over_a, over_b = poisson_P(N, x[:2], nodes)
    return abs(w @ (over_a * over_b) - poisson_P(N, x[2, 0]))


def verify_kernel_identities(grid: Grid) -> CheckReport:
    """Boundary mass, Green positivity, the pointwise Green bound, and the
    kernel stacking identity, in the grid's dimension.  Symmetry holds bit
    for bit (green_G(N, y, x) does green_G(N, x, y)'s arithmetic)."""
    N = grid.dimension
    heights = [0.1, 0.5, float(np.median(grid.heights))]
    mass_err = max(_poisson_mass_error(N, t) for t in heights)

    x, y = _sample_points(N)
    g_xy = np.asarray(green_G(N, x, y))
    positive = bool(np.all(g_xy > 0.0))

    dist = np.linalg.norm(x - y, axis=-1)
    bound = np.minimum(fundamental_E(N, dist),
                       4.0 * x[:, -1] * y[:, -1]
                       * (-fundamental_dE(N, dist)) / dist)
    violations = int(np.sum(g_xy > bound + POINTWISE_SLACK))

    semi_err = max(_semigroup_error(N, 0.7, 0.4),
                   _semigroup_error(N, 0.3, 1.1),
                   _semigroup_error(N, 0.7, 0.4, offset=1.0) if N >= 2 else 0.0)

    passed = (mass_err <= MASS_TOL and positive and violations == 0
              and semi_err <= MASS_TOL)
    return CheckReport(
        name=f"kernel_identities_N{N}",
        passed=passed,
        statistic=max(mass_err, semi_err, float(violations)),
        details={"poisson_mass_error": mass_err,
                 "all_positive": positive,
                 "pointwise_bound_violations": violations,
                 "stacking_error": semi_err},
        samples=_IDENTITY_SAMPLES)


def _theta_admissible(N: int, s: float, theta: float) -> bool:
    if s < 1.0:
        return False
    if N >= 3 and s >= N / (N - 2):
        return False
    return -1.0 - 1.0 / s < theta < N - 1.0 - N / s


def _geometric_edges(a: float, b: float, gap: float) -> np.ndarray:
    """Panel edges from a to b that shrink by _HEIGHT_GRADING toward a until
    the panel next to a is at most `gap` wide."""
    levels = int(np.ceil(np.log(gap / abs(b - a)) / np.log(_HEIGHT_GRADING)))
    return a + (b - a) * np.append(0.0, _HEIGHT_GRADING
                                   ** np.arange(levels, -1, -1))


def _height_rule(t: float):
    """Composite Gauss-Legendre nodes and weights for the height y on
    (0, _CUT), graded toward y = 0 and toward y = t from both sides;
    y = t and y = 1 (the kink of h) are panel edges."""
    edges = np.concatenate([
        _geometric_edges(0.0, 0.5 * t, _ZERO_GAP * t),
        _geometric_edges(t, 0.5 * t, _KINK_GAP * t)[-2::-1],
        _geometric_edges(t, 1.0, _KINK_GAP * t)[1:],
        np.linspace(1.0, _CUT, _TAIL_PANELS + 1)[1:]])
    return gauss_panels(edges, _HEIGHT_ORDER)


def _lateral_green(N: int, t: float, heights, s: float) -> np.ndarray:
    """Integral of G(t e_N, y)^s over y' at each height y_N != t
    (G(t, y_N)^s for N = 1): composite Gauss-Legendre in |y'| on
    (0, _CUT), with edges graded toward |y'| = 0 at the distance
    |y_N - t| of the kernel's pole, d 2^k, as in the radial Poisson trace."""
    if N == 1:
        return green_G(1, t, heights) ** s
    x = (0.0, t) if N == 2 else (0.0, 0.0, t)
    gap = np.abs(heights - t)[:, None]
    r, w = gauss_panels(np.clip(np.hstack(
        [np.zeros_like(gap), _doublings(gap, _CUT)]), 0.0, _CUT),
        _HEIGHT_ORDER)
    # the panels clipped to zero width at _CUT carry no weight
    row, col = np.nonzero(w)
    r, w = r[row, col], w[row, col]
    w *= 2.0 if N == 2 else 2.0 * np.pi * r
    y_pts = np.zeros((r.size, N))
    y_pts[:, 0], y_pts[:, -1] = r, heights[row]
    terms = np.empty_like(r)
    for lo in range(0, r.size, _BLOCK_ENTRIES):
        block = slice(lo, lo + _BLOCK_ENTRIES)
        terms[block] = w[block] * green_G(N, x, y_pts[block]) ** s
    return np.bincount(row, weights=terms, minlength=heights.size)


def _green_theta_integral(N: int, s: float, theta: float, t: float) -> float:
    """(integral of (G(x, y) h(y_N)^theta)^s dy)^(1/s) at x = t e_N."""
    y, w = _height_rule(t)
    weight = weight_h(y) ** (s * theta)
    return float(w @ (_lateral_green(N, t, y, s) * weight)) ** (1.0 / s)


def verify_gintest_scaling(N: int, s: float, theta: float) -> CheckReport:
    """Small-height scaling of the weighted Green integral.

    Fits log I(x_N) against log x_N over small heights and compares the
    slope with 2 + theta - N(1 - 1/s).
    """
    if not _theta_admissible(N, s, theta):
        raise ValueError(f"(s, theta)=({s}, {theta}) outside the admissible "
                         f"window (-1 - 1/s, N - 1 - N/s) for N={N}")
    # small enough that the next-order correction ~ sqrt(x_N) is < 0.05
    heights = np.geomspace(1e-5, 1e-3, 6)
    vals = np.array([_green_theta_integral(N, s, theta, t) for t in heights])
    slope = float(np.polyfit(np.log(heights), np.log(vals), 1)[0])
    predicted = 2.0 + theta - N * (1.0 - 1.0 / s)
    err = abs(slope - predicted)
    return CheckReport(
        name=f"green_integral_scaling_N{N}_s{s:g}_theta{theta:g}",
        passed=err <= SLOPE_TOL,
        statistic=slope,
        details={"predicted_slope": predicted, "fitted_slope": slope,
                 "error": err, "heights": heights.tolist(),
                 "values": vals.tolist()},
        samples=len(heights))


def _glaa_grids(N: int, refine: int):
    if N == 1:
        return build_grid(1, 20.0, 20.0, 1, 400 * refine)
    if N == 2:
        return build_grid(2, 12.0, 12.0, 20 * refine, 30 * refine)
    return build_grid(3, 10.0, 10.0, 16 * refine, 24 * refine)


def _glaa_family(N: int, q: float, alpha: float):
    """Test functions: Gaussian bumps placed and sized by the Kronecker
    sequence in 3 dimensions, plus boundary-singular profiles."""
    fns = [lambda rho, z: np.zeros_like(z)]    # zero function: ratio 0 passes
    for u in _kronecker(_GLAA_FAMILY_SIZE, 3):
        cz = 0.5 + 3.5 * u[0]
        cr = 0.0 if N == 1 else 3.0 * u[1]
        w = 0.3 + 1.2 * u[2]
        fns.append(lambda rho, z, cz=cz, cr=cr, w=w:
                   np.exp(-((rho - cr) ** 2 + (z - cz) ** 2) / (2.0 * w * w)))
    # boundary-concentrated: h^(-gamma) stays q-integrable for gamma < alpha + 1/q
    for frac in (0.4, 0.8):
        gamma = frac * (alpha + 1.0 / q)
        fns.append(lambda rho, z, gamma=gamma:
                   weight_h(z) ** (-gamma) * np.exp(-z - rho))
    return fns


def _norm_ratio_max(grid, K: GreenOperator, fns, q, alpha, r, beta) -> float:
    rho = np.zeros(grid.n_nodes) if grid.dimension == 1 else grid.radii
    worst = 0.0
    for fn in fns:
        f = Field(grid, fn(rho, grid.heights))
        denom = f.norm(q, alpha)
        if denom == 0.0:
            continue
        worst = max(worst, apply_green(K, f).norm(r, beta) / denom)
    return worst


def _borderline_rule(N: int):
    """Heights y of the sharpness check's rule on (1e-8, 1/e), and its
    weights times y^-2 and the lateral integral of G(e_N, .) at y: the
    sigma-independent part of G f_eps(e_N)."""
    y, w = gauss_panels(_BORDERLINE_EDGES, _HEIGHT_ORDER)
    return y, w * y ** -2.0 * _lateral_green(N, 1.0, y, 1.0)


def _sharpness_fit_error(sigma: float, borderline) -> float:
    """Divergence of G f_eps(e_N), f_eps = y_N^-2 (log 1/y_N)^-sigma on
    eps < y_N < 1/e, against its predicted rate; `borderline` is
    _borderline_rule(N).

    The lateral integral of G_N is G_1 = e^-1 sinh y_N for every N, so the
    increments of G f_eps(e_N) between cutoffs match those of
    e^-1 (log 1/eps)^(1-sigma)/(1-sigma) up to O(eps^2).  This measures
    green_G, not the assembled operator."""
    y, weights = borderline
    between = np.add.reduceat(weights * np.log(1.0 / y) ** -sigma,
                              _HEIGHT_ORDER * _BORDERLINE_CUTS)[:-1]
    model = (np.log(1.0 / _BORDERLINE_EDGES[_BORDERLINE_CUTS]) ** (1.0 - sigma)
             / ((1.0 - sigma) * np.e))
    return float(np.max(np.abs(between / -np.diff(model) - 1.0)))


def verify_glaa(N: int, q: float, alpha: float, r: float,
                beta: float) -> CheckReport:
    """Boundedness and near-sharpness of the Green operator between
    weighted norms.

    (a) the max norm ratio over a fixed family must change by less than
    10% either way under grid refinement; (b) G applied to the borderline
    profile x_N^{-2} (log 1/x_N)^{-sigma} cut off at eps must diverge at e_N
    like (log 1/eps)^(1-sigma) within 10%, for sigma in {0.6, 0.8} above 1/q.
    """
    ok, violated = green_norm_pair_ok(N, q, alpha, r, beta)
    if not ok:
        raise ValueError(f"exponents (q={q}, alpha={alpha}, r={r}, beta={beta}) "
                         f"violate the mapping conditions: {violated}")
    fns = _glaa_family(N, q, alpha)

    ratio_coarse, ratio_fine = (
        _norm_ratio_max(g, assemble_green(g), fns, q, alpha, r, beta)
        for g in (_glaa_grids(N, 1), _glaa_grids(N, 2)))
    if ratio_coarse == 0.0:
        # each test function's norm underflowed or its image's did
        raise ValueError(f"exponents q = {q:g}, r = {r:g} put every weighted "
                         "norm of the test functions out of float range; the "
                         "norm bound cannot be measured")
    growth = ratio_fine / ratio_coarse - 1.0
    sigmas = [sigma for sigma in (0.6, 0.8) if 1.0 / q < sigma < 1.0]
    borderline = _borderline_rule(N) if sigmas else None
    sharp_err = max((_sharpness_fit_error(sigma, borderline)
                     for sigma in sigmas), default=0.0)

    passed = abs(growth) < REFINEMENT_GROWTH and sharp_err <= SHARPNESS_TOL
    return CheckReport(
        name=f"green_norm_bound_N{N}_q{q:g}_a{alpha:g}_r{r:g}_b{beta:g}",
        passed=passed,
        statistic=max(abs(growth), sharp_err),
        details={"ratio_coarse": ratio_coarse, "ratio_fine": ratio_fine,
                 "refinement_growth": growth,
                 "sharpness_fit_error": sharp_err},
        samples=len(fns))


def verify_solution_structure(kappas, K: GreenOperator, Pmu: Field,
                              p: float) -> CheckReport:
    """Monotone structure of the minimal branch across several kappa.

    For kappa < kappa': iterate domination U_j <= (kappa/kappa') U'_j over
    the first ten iterates from U_0 = Pmu, strict ordering of the limits
    wherever they are not both 0.0, u >= kappa * Pmu, and a stability margin
    above 1 at every kappa.
    """
    kappas = sorted(float(k) for k in kappas)
    results = {}
    for k in kappas:
        res = monotone_iterate(k, K, Pmu, p)
        if not res.converged:
            return CheckReport(name="solution_structure", passed=False,
                               statistic=np.inf,
                               details={"diverged_at": k}, samples=len(kappas))
        results[k] = res

    worst = 0.0
    lambdas = {}
    for k in kappas:
        res = results[k]
        worst = max(worst, float(np.max(k * Pmu.values - res.solution.values)))
        lambdas[k] = linearized_spectrum(K, res.solution, p).lambda_

    strict = True
    for lo, hi in zip(kappas[:-1], kappas[1:]):
        a, b = results[lo], results[hi]
        # both runs share the kappa-independent start U_0 = Pmu, so the
        # scaled domination only kicks in once that common seed is forgotten
        for u_lo, u_hi in zip(a.first_iterates[2:], b.first_iterates[2:]):
            worst = max(worst, float(np.max(u_lo - (lo / hi) * u_hi)))
        u, v = a.solution.values, b.solution.values
        # far up a tall grid both underflow to 0.0: the one tie allowed
        strict &= bool(np.all((u < v) | ((u == 0.0) & (v == 0.0))))

    passed = (worst <= STRUCTURE_SLACK and strict
              and all(v > 1.0 for v in lambdas.values()))
    return CheckReport(
        name="solution_structure",
        passed=passed,
        statistic=worst,
        details={"max_domination_slack": worst,
                 "strict_ordering": strict,
                 "lambdas": {f"{k:g}": v for k, v in lambdas.items()}},
        samples=len(kappas))
