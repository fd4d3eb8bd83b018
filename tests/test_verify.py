import math
import warnings

import numpy as np
import pytest
from scipy import special

from scalarfield import verify
from scalarfield.discretization import build_grid
from scalarfield.kernels import fundamental_E
from scalarfield.operators import assemble_green, poisson_trace
from scalarfield.verify import (verify_gintest_scaling, verify_glaa,
                                verify_kernel_identities,
                                verify_solution_structure)


class TestKernelIdentities:
    def test_half_line(self, grid_line):
        rep = verify_kernel_identities(grid_line)
        assert rep.passed
        assert rep.details["pointwise_bound_violations"] == 0
        assert rep.details["poisson_mass_error"] <= 1e-12

    def test_plane(self):
        g = build_grid(2, 8.0, 8.0, 8, 12)
        rep = verify_kernel_identities(g)
        assert rep.passed

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_boundary_integrals_at_round_off(self, N):
        rep = verify_kernel_identities(build_grid(N, 8.0, 8.0, 6, 10))
        assert rep.passed
        assert rep.details["poisson_mass_error"] <= 1e-12
        assert rep.details["stacking_error"] <= 1e-12

    @pytest.mark.parametrize("N", [2, 3])
    def test_perturbed_boundary_kernel_fails(self, monkeypatch, N):
        poisson_P = verify.poisson_P
        monkeypatch.setattr(verify, "poisson_P", lambda *args:
                            (1.0 + 1e-9) * poisson_P(*args))
        rep = verify_kernel_identities(build_grid(N, 8.0, 8.0, 6, 10))
        assert not rep.passed
        assert rep.details["poisson_mass_error"] > 1e-12
        assert rep.details["stacking_error"] > 1e-12

    def test_repeated_calls_agree(self, grid_line):
        a = verify_kernel_identities(grid_line)
        b = verify_kernel_identities(grid_line)
        assert vars(a) == vars(b)


# Closed forms of the half-line integral of (G(t, y) h(y)^theta)^s over
# (0, 30), with G = e^-t sinh y below y = t and sinh t e^-y above it.
def _squared_integral_s2(t):
    """s = 2, theta = -1; the result is I^2."""
    sh2 = math.sinh(t) ** 2
    shi, _ = special.shichi(2.0 * t)
    return (math.exp(-2.0 * t) * (shi - sh2 / t)
            + 2.0 * sh2 * (special.expn(2, 2.0 * t) / (2.0 * t)
                           - special.expn(2, 2.0) / 2.0)
            + sh2 * (math.exp(-2.0) - math.exp(-60.0)) / 2.0)


def _upper_gamma(a, x):
    """Gamma(a, x) for -1 < a < 0, from Gamma(a + 1, x)."""
    return (special.gamma(a + 1.0) * special.gammaincc(a + 1.0, x)
            - x ** a * math.exp(-x)) / a


def _integral_s1(theta, t):
    """s = 1, -2 < theta < -1."""
    below = sum(t ** (2 * k + 2 + theta)
                / (math.factorial(2 * k + 1) * (2 * k + 2 + theta))
                for k in range(8))
    a = 1.0 + theta
    return (math.exp(-t) * below
            + math.sinh(t) * (_upper_gamma(a, t) - _upper_gamma(a, 1.0))
            + math.sinh(t) * (math.exp(-1.0) - math.exp(-30.0)))


class TestGintestScaling:
    def test_half_line_reference_triple(self):
        rep = verify_gintest_scaling(1, 1.0, -1.5)
        assert rep.passed
        assert rep.statistic == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("s, theta, closed_form, tol", [
        (2.0, -1.0, lambda t: np.sqrt(_squared_integral_s2(t)), 1e-10),
        # the theta = -1.5 floor (1.2e-8) is the rule's innermost panel,
        # (0, 1e-12 t), at the y^(-1/2) singularity of the integrand
        (1.0, -1.5, lambda t: _integral_s1(-1.5, t), 5e-8),
        (1.0, -1.2, lambda t: _integral_s1(-1.2, t), 5e-8),
    ], ids=["s2-theta-1", "s1-theta-1.5", "s1-theta-1.2"])
    def test_half_line_integrals_match_closed_forms(self, s, theta,
                                                    closed_form, tol):
        rep = verify_gintest_scaling(1, s, theta)
        for t, value in zip(rep.details["heights"], rep.details["values"]):
            assert value == pytest.approx(closed_form(t), rel=tol)

    def test_one_green_call_per_height(self, monkeypatch):
        calls = []
        green_G = verify.green_G

        def counted(*args):
            calls.append(args)
            return green_G(*args)

        monkeypatch.setattr(verify, "green_G", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_gintest_scaling(1, 1.0, -1.5)
        assert len(calls) == len(rep.details["heights"]) == 6
        # the slope the adaptive quadrature gave before the fixed rule
        assert rep.statistic == pytest.approx(0.494942, abs=1e-6)

    @pytest.mark.parametrize("N", [2, 3])
    def test_s1_slope_is_the_half_line_slope(self, N):
        # at s = 1 the lateral integral reduces G_N to G_1, so every N
        # fits the N = 1 slope of test_one_green_call_per_height
        rep = verify_gintest_scaling(N, 1.0, -1.5)
        assert rep.statistic == pytest.approx(0.494942, abs=1e-6)

    def test_inadmissible_exponents_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            verify_gintest_scaling(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="admissible"):
            verify_gintest_scaling(3, 4.0, -1.0)


def _heavy_mirror_green(N, x, y):
    """green_G with its mirror term scaled by 1.01."""
    x = np.asarray(x, dtype=float).reshape(-1 if N == 1 else N)
    y = np.asarray(y, dtype=float)
    if N == 1:
        return (fundamental_E(1, np.abs(x - y))
                - 1.01 * fundamental_E(1, x + y))
    mirror = x * np.append(np.ones(N - 1), -1.0)
    return (fundamental_E(N, np.linalg.norm(x - y, axis=-1))
            - 1.01 * fundamental_E(N, np.linalg.norm(mirror - y, axis=-1)))


class TestGlaa:
    def test_half_line_pair(self):
        rep = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        assert rep.passed
        assert abs(rep.details["refinement_growth"]) < 0.10
        assert rep.details["sharpness_fit_error"] <= 1e-6

    @pytest.mark.parametrize("N, tol", [(1, 1e-6), (2, 1e-6), (3, 1e-6)])
    def test_borderline_integral_diverges_at_predicted_rate(self, N, tol):
        borderline = verify._borderline_rule(N)
        for sigma in (0.6, 0.8):
            assert verify._sharpness_fit_error(sigma, borderline) <= tol

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_heavy_mirror_term_breaks_sharpness(self, monkeypatch, N):
        monkeypatch.setattr(verify, "green_G", _heavy_mirror_green)
        borderline = verify._borderline_rule(N)
        assert verify._sharpness_fit_error(0.6, borderline) > 0.10

    @pytest.mark.parametrize("N", [2, 3])
    def test_lateral_integral_is_the_half_line_kernel(self, N):
        # integrating G_N(e_N, .) over y' leaves G_1(1, y_N) = e^-1 sinh y_N;
        # green_G's own cancellation at y_N = 1e-8 sets a ~1e-8 floor
        y = np.geomspace(1e-8, 0.9, 40)
        lateral = verify._lateral_green(N, 1.0, y, 1.0)
        np.testing.assert_allclose(lateral, np.exp(-1.0) * np.sinh(y),
                                   rtol=1e-7)

    def test_heavy_mirror_term_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verify, "green_G", _heavy_mirror_green)
        rep = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        assert not rep.passed
        assert rep.details["sharpness_fit_error"] > 0.10

    @pytest.mark.parametrize("coarse, fine, passed", [
        (1.0, 0.5, False),          # the ratio collapses under refinement
        (1.0, 1.5, False),
        (1.0, 0.95, True),
        (1.0, 1.05, True)])
    def test_refinement_check_is_two_sided(self, monkeypatch, coarse, fine,
                                           passed):
        ratios = iter([coarse, fine])
        monkeypatch.setattr(verify, "_norm_ratio_max",
                            lambda *args: next(ratios))
        rep = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        assert rep.passed is passed
        assert rep.details["refinement_growth"] == pytest.approx(fine - 1.0)

    def test_invalid_exponent_pair_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            verify_glaa(1, 4.0, 0.0, 2.0, 0.0)   # r < q

    def test_repeated_calls_agree(self):
        a = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        b = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        assert vars(a) == vars(b)


class TestSolutionStructure:
    def test_passes_below_threshold(self, K_line, Pmu_line):
        rep = verify_solution_structure([0.2, 0.4, 0.8], K_line, Pmu_line, 3.0)
        assert rep.passed
        assert rep.statistic <= 1e-10
        assert rep.details["strict_ordering"]
        assert all(v > 1.0 for v in rep.details["lambdas"].values())

    @pytest.fixture(scope="class")
    def tall(self):
        """H = 800: the solutions underflow to 0.0 beyond x ~ 745."""
        g = build_grid(1, 800.0, 800.0, 1, 300)
        return assemble_green(g), poisson_trace(g, {"type": "point_mass",
                                                    "mass": 1.0})

    def test_tall_grid_passes(self, tall):
        rep = verify_solution_structure([0.2, 0.4, 0.8], *tall, 3.0)
        assert rep.passed
        assert rep.details["strict_ordering"]

    # swapped limits, and equal nonzero ones
    @pytest.mark.parametrize("swap", [{0.2: 0.8, 0.4: 0.4, 0.8: 0.2},
                                      {0.2: 0.2, 0.4: 0.2, 0.8: 0.8}])
    def test_unordered_solutions_fail(self, tall, monkeypatch, swap):
        iterate = verify.monotone_iterate
        monkeypatch.setattr(verify, "monotone_iterate", lambda k, *args:
                            iterate(swap[k], *args))
        rep = verify_solution_structure([0.2, 0.4, 0.8], *tall, 3.0)
        assert not rep.passed
        assert not rep.details["strict_ordering"]

    def test_diverging_kappa_fails_with_diagnostic(self, K_line, Pmu_line):
        rep = verify_solution_structure([0.4, 2.0], K_line, Pmu_line, 3.0)
        assert not rep.passed
        assert rep.details["diverged_at"] == 2.0
