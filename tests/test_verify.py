import numpy as np
import pytest

from scalarfield.discretization import build_grid
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
        assert rep.details["symmetry_relative_error"] <= 1e-12

    def test_deterministic_for_fixed_seed(self, grid_line):
        a = verify_kernel_identities(grid_line, seed=4)
        b = verify_kernel_identities(grid_line, seed=4)
        assert a == b


class TestGintestScaling:
    def test_half_line_reference_triple(self):
        rep = verify_gintest_scaling(1, 1.0, -1.5)
        assert rep.passed
        assert rep.statistic == pytest.approx(0.5, abs=0.05)

    def test_inadmissible_exponents_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            verify_gintest_scaling(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="admissible"):
            verify_gintest_scaling(3, 4.0, -1.0)


class TestGlaa:
    def test_half_line_pair(self):
        rep = verify_glaa(1, 4.0, 0.0, 4.0, 0.0)
        assert rep.passed
        assert rep.details["refinement_growth"] < 0.10
        assert rep.details["sharpness_fit_error"] <= 0.10

    def test_invalid_exponent_pair_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            verify_glaa(1, 4.0, 0.0, 2.0, 0.0)   # r < q

    def test_deterministic_for_fixed_seed(self):
        a = verify_glaa(1, 4.0, 0.0, 4.0, 0.0, seed=9)
        b = verify_glaa(1, 4.0, 0.0, 4.0, 0.0, seed=9)
        assert a == b


class TestSolutionStructure:
    def test_passes_below_threshold(self, K_line, Pmu_line):
        rep = verify_solution_structure([0.2, 0.4, 0.8], K_line, Pmu_line, 3.0)
        assert rep.passed
        assert rep.statistic <= 1e-10
        assert rep.details["strict_ordering"]
        assert all(v > 1.0 for v in rep.details["lambdas"].values())

    def test_diverging_kappa_fails_with_diagnostic(self, K_line, Pmu_line):
        rep = verify_solution_structure([0.4, 2.0], K_line, Pmu_line, 3.0)
        assert not rep.passed
        assert rep.details["diverged_at"] == 2.0
