"""End-to-end acceptance checks on the reference half-line problem.

Each test prints one PASS/FAIL line (visible with pytest -s) and covers one
headline capability: threshold bisection, minimal-solution accuracy,
multiplicity, fold and stability structure, kernel identities, integral
scaling, norm bounds, exponent arithmetic, and monotone structure.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from scalarfield.continuation import (detect_fold, solutions_at_kappa,
                                      trace_branch)
from scalarfield.discretization import Field, build_grid
from scalarfield.exponents import critical_exponents, stabilization_index
from scalarfield.operators import (assemble_green, linearized_spectrum,
                                   poisson_trace)
from scalarfield.solver import estimate_kappa_star, monotone_iterate
from scalarfield.verify import (verify_gintest_scaling, verify_glaa,
                                verify_kernel_identities,
                                verify_solution_structure)

from conftest import soliton
from test_exponents import _random_admissible, _scan_oracle


@contextmanager
def reported(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def grid_acc():
    return build_grid(1, 20.0, 20.0, 1, 2000, grading=2.0)


@pytest.fixture(scope="module")
def K_acc(grid_acc):
    return assemble_green(grid_acc)


@pytest.fixture(scope="module")
def Pmu_acc(grid_acc):
    return poisson_trace(grid_acc, {"type": "point_mass", "mass": 1.0})


@pytest.fixture(scope="module")
def kstar_acc(K_acc, Pmu_acc):
    start = time.perf_counter()
    est = estimate_kappa_star(K_acc, Pmu_acc, 3.0, bracket=(0.5, 2.5))
    return est, time.perf_counter() - start


@pytest.fixture(scope="module")
def branch_acc(K_acc, Pmu_acc):
    return trace_branch(0.2, K_acc, Pmu_acc, 3.0, step=0.05, max_points=200)


def test_threshold_bisection(K_acc, Pmu_acc, kstar_acc):
    with reported("threshold bisection brackets the known cutoffs"):
        est, elapsed = kstar_acc
        assert est.width <= 1e-2
        assert est.lower <= np.sqrt(2.0) <= est.upper
        assert elapsed <= 60.0

        start = time.perf_counter()
        est2 = estimate_kappa_star(K_acc, Pmu_acc, 2.0, bracket=(0.5, 2.5))
        assert time.perf_counter() - start <= 60.0
        assert est2.width <= 1e-2
        assert est2.lower <= 1.5 <= est2.upper


def test_minimal_solution_accuracy(grid_acc, K_acc, Pmu_acc):
    with reported("minimal solutions match the closed form to 1e-3"):
        for kappa in (0.1, 1.2):
            res = monotone_iterate(kappa, K_acc, Pmu_acc, 3.0)
            assert res.converged
            assert res.residual_sup <= 1e-7
            exact = soliton(grid_acc.heights, kappa)
            assert np.max(np.abs(res.solution.values - exact)) <= 1e-3


def test_two_solutions_below_threshold(branch_acc):
    with reported("exactly two solutions below the threshold"):
        sols = solutions_at_kappa(branch_acc, 1.2)
        assert len(sols) == 2
        lower, upper = sols
        assert upper.sup_norm() == pytest.approx(np.sqrt(2.0), abs=1e-2)
        assert np.max(np.abs(upper.values - lower.values)) >= 0.15


def test_stability_across_the_fold(K_acc, Pmu_acc, branch_acc, kstar_acc):
    with reported("stability margin crosses 1 at the fold"):
        kappa_star = kstar_acc[0].midpoint

        low = monotone_iterate(0.5 * kappa_star, K_acc, Pmu_acc, 3.0).solution
        assert linearized_spectrum(K_acc, low, 3.0).lambda_ > 1.05

        fold_pt = detect_fold(branch_acc)
        assert fold_pt.lambda_ == pytest.approx(1.0, abs=2e-2)
        assert abs(fold_pt.kappa - kappa_star) <= 1.5e-2

        upper = solutions_at_kappa(branch_acc, 0.8 * kappa_star)[-1]
        assert linearized_spectrum(K_acc, upper, 3.0).lambda_ < 0.95


def test_kernel_identities_all_dimensions(grid_acc):
    with reported("kernel identities hold in dimensions 1, 2, 3"):
        for N in (1, 2, 3):
            grid = grid_acc if N == 1 else build_grid(N, 10.0, 10.0, 12, 16)
            rep = verify_kernel_identities(grid)
            assert rep.name == f"kernel_identities_N{N}"
            assert rep.passed, rep.details
            assert rep.details["pointwise_bound_violations"] == 0


GINTEST_TRIPLES = [(1, 1.0, -1.5), (1, 1.0, -1.2), (1, 2.0, -1.0),
                   (2, 1.0, -1.5), (2, 2.0, -0.5), (3, 1.0, -1.5)]
# fitted slope of the graded Gauss lateral rule, whose lateral integrals
# agree with nested adaptive quadrature to <= 5e-11 at t = 1e-4
RECORDED_SLOPES = {(2, 2.0, -0.5): 0.499819}


def test_weighted_integral_scaling():
    with reported("weighted Green integrals scale at the predicted rate"):
        slopes = {}
        for N, s, theta in GINTEST_TRIPLES:
            rep = verify_gintest_scaling(N, s, theta)
            assert rep.passed, rep.details
            slopes[N, s, theta] = rep.statistic
        assert slopes[1, 1.0, -1.5] == pytest.approx(0.5, abs=0.05)
        # at s = 1 the lateral integral of G_N is G_1, so every N has the
        # half-line slope
        for N in (2, 3):
            assert slopes[N, 1.0, -1.5] == pytest.approx(slopes[1, 1.0, -1.5],
                                                         abs=1e-6)
        for triple, slope in RECORDED_SLOPES.items():
            assert slopes[triple] == pytest.approx(slope, abs=1e-4)


GLAA_TUPLES = [(1, 4.0, 0.0, 4.0, 0.0),
               (2, 4.0, 0.25, 6.0, 0.0),
               (3, 3.0, 0.1, 4.0, 0.0)]


def test_norm_bounds_and_sharpness():
    with reported("norm bounds stable under refinement, sharp at the edge"):
        for N, q, alpha, r, beta in GLAA_TUPLES:
            rep = verify_glaa(N, q, alpha, r, beta)
            assert rep.passed, rep.details
            assert rep.details["sharpness_fit_error"] <= 1e-6


def test_exponent_arithmetic():
    with reported("critical exponents and stabilization index"):
        assert critical_exponents(11).p_joseph_lundgren \
            == (37.0 + 8.0 * np.sqrt(10.0)) / 9.0
        for N in range(3, 31):
            crit = critical_exponents(N)
            assert crit.p_joseph_lundgren > crit.p_sobolev

        rng = np.random.default_rng(77)
        for _ in range(20):
            params = _random_admissible(rng)
            assert stabilization_index(params) == _scan_oracle(params), params

        from scalarfield.exponents import DSetParams
        hand = DSetParams(N=1, p=3.0, q=4.0, alpha=0.0, r0=4.0, beta0=0.0)
        assert stabilization_index(hand) == 2


def test_monotone_structure_and_fold_degeneracy(K_acc, Pmu_acc):
    with reported("monotone structure and degenerating fold Jacobian"):
        rep = verify_solution_structure([0.2, 0.4, 0.8], K_acc, Pmu_acc, 3.0)
        assert rep.passed, rep.details
        assert rep.statistic <= 1e-10

        # at the exact fold state sqrt(2) sech x the linearization's
        # eigenvalue lambda tends to 1 from above, at order 2 in the grid
        margins = []
        for n in (1000, 2000, 4000):
            g = build_grid(1, 20.0, 20.0, 1, n, grading=2.0)
            u = Field(g, np.sqrt(2.0) / np.cosh(g.heights))
            lam = linearized_spectrum(assemble_green(g), u, 3.0, tol=1e-12)
            margins.append(lam.lambda_ - 1.0)
        assert margins[0] > margins[1] > margins[2] > 0.0
        for coarse, fine in zip(margins, margins[1:]):
            assert 3.5 < coarse / fine < 4.5
