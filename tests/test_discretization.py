import re

import numpy as np
import pytest

from scalarfield.discretization import (Field, build_grid, weight_h,
                                        weighted_norm)


class TestGridConstruction:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_weights_sum_to_volume(self, N):
        g = build_grid(N, 5.0, 4.0, 12, 20, grading=2.0)
        assert np.sum(g.quad_weights) == pytest.approx(g.volume(), abs=1e-10)

    def test_uniform_when_grading_one(self):
        g = build_grid(1, 10.0, 10.0, 1, 50, grading=1.0)
        np.testing.assert_allclose(np.diff(g.heights), 0.2)
        np.testing.assert_allclose(g.quad_weights, 0.2)

    def test_grading_concentrates_near_boundary(self):
        g = build_grid(1, 10.0, 10.0, 1, 100, grading=2.0)
        w = g.cell_sizes[:, 0]
        assert w[0] < w[-1] / 50.0
        assert np.all(np.diff(g.heights) > 0.0)
        assert np.all(g.heights > 0.0)

    def test_axisymmetric_layout(self):
        g = build_grid(3, 6.0, 4.0, 5, 7)
        assert g.nodes.shape == (35, 3)
        assert np.all(g.radii > 0.0)
        assert np.all(g.nodes[:, 1] == 0.0)

    def test_cell_sizes_match_weights(self):
        g = build_grid(2, 6.0, 4.0, 5, 7)
        rebuilt = 2.0 * g.cell_sizes[:, 0] * g.cell_sizes[:, 1]
        np.testing.assert_allclose(rebuilt, g.quad_weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(4, 5.0, 5.0, 4, 4)
        with pytest.raises(ValueError):
            build_grid(1, -1.0, 5.0, 1, 4)
        with pytest.raises(ValueError):
            build_grid(1, 5.0, 5.0, 1, 1)
        with pytest.raises(ValueError):
            build_grid(2, 5.0, 5.0, 1, 4)
        with pytest.raises(ValueError):
            build_grid(1, 5.0, 5.0, 1, 4, grading=0.5)

    @pytest.mark.parametrize("grading, lowest_ok", [
        (180.0, True), (190.0, False), (200.0, False)])
    def test_lowest_node_stays_a_normal_float(self, grading, lowest_ok):
        # at grading 190 the lowest height is subnormal, at 200 it is 0.0
        if lowest_ok:
            g = build_grid(1, 20.0, 20.0, 1, 50, grading=grading)
            assert g.heights[0] >= np.finfo(float).tiny
        else:
            with pytest.raises(ValueError, match="grading"):
                build_grid(1, 20.0, 20.0, 1, 50, grading=grading)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_height_keeps_squared_distances_finite(self, N):
        # the kernels square node heights and their sums; 1e308 also
        # overflows the sum of two cell edges
        for H in (1e308, 1e200):
            with pytest.raises(ValueError, match=re.escape(f"H = {H:g}")):
                build_grid(N, 20.0, H, 4, 50)
        g = build_grid(N, 20.0, 1e150, 4, 50)
        assert np.isfinite((2.0 * g.heights[-1]) ** 2)

    def test_immutable_arrays(self):
        g = build_grid(1, 5.0, 5.0, 1, 8)
        with pytest.raises(ValueError):
            g.nodes[0, 0] = 1.0

    def test_radii_unavailable_on_half_line(self):
        g = build_grid(1, 5.0, 5.0, 1, 8)
        with pytest.raises(ValueError):
            _ = g.radii


class TestBoundaryWeight:
    def test_values(self):
        np.testing.assert_allclose(weight_h([0.25, 1.0, 7.0]), [0.25, 1.0, 1.0])
        assert weight_h(0.5) == 0.5

    def test_positive_only(self):
        with pytest.raises(ValueError):
            weight_h(0.0)


class TestFieldAndNorms:
    def test_shape_checked(self):
        g = build_grid(1, 5.0, 5.0, 1, 8)
        with pytest.raises(ValueError):
            Field(g, np.ones(9))

    def test_sup_norm(self):
        g = build_grid(1, 5.0, 5.0, 1, 8)
        f = Field(g, -3.0 * np.ones(8))
        assert f.sup_norm() == 3.0

    def test_homogeneity_and_triangle(self):
        g = build_grid(1, 10.0, 10.0, 1, 200)
        rng = np.random.default_rng(5)
        f = Field(g, rng.normal(size=200))
        h = Field(g, rng.normal(size=200))
        assert weighted_norm(f.with_values(2.0 * f.values), 3.0, 0.5) \
            == pytest.approx(2.0 * weighted_norm(f, 3.0, 0.5), rel=1e-12)
        assert weighted_norm(f.with_values(f.values + h.values), 3.0, 0.5) \
            <= weighted_norm(f, 3.0, 0.5) + weighted_norm(h, 3.0, 0.5) + 1e-12

    def test_exponential_profile_oracle(self):
        # L^2 norm of e^{-x} on (0, inf) is sqrt(1/2)
        g = build_grid(1, 20.0, 20.0, 1, 2000)
        f = Field(g, np.exp(-g.heights))
        assert f.norm(2.0) == pytest.approx(np.sqrt(0.5), abs=1e-5)

    def test_weighted_oracle(self):
        # integral of e^{-4x} x^2 over (0,1) plus e^{-4x} over (1,inf)
        g = build_grid(1, 25.0, 25.0, 1, 4000)
        f = Field(g, np.exp(-g.heights))
        from scipy.integrate import quad
        exact, _ = quad(lambda x: np.exp(-4.0 * x) * min(x, 1.0) ** 2,
                        0.0, 25.0)
        assert f.norm(4.0, 0.5) == pytest.approx(exact ** 0.25, abs=1e-5)

    def test_refinement_convergence(self):
        vals = []
        for n in (250, 500, 1000):
            g = build_grid(1, 20.0, 20.0, 1, n)
            vals.append(Field(g, np.exp(-g.heights)).norm(2.0))
        errs = [abs(v - np.sqrt(0.5)) for v in vals]
        # midpoint rule: roughly quartered error per doubling
        assert errs[1] < 0.35 * errs[0]
        assert errs[2] < 0.35 * errs[1]

    def test_q_below_one_rejected(self):
        g = build_grid(1, 5.0, 5.0, 1, 8)
        with pytest.raises(ValueError):
            weighted_norm(Field(g, np.ones(8)), 0.5)
