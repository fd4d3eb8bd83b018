import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1

from scalarfield import kernels, operators
from scalarfield.discretization import Field, build_grid
from scalarfield.kernels import green_G, poisson_P
from scalarfield.operators import (HalfLineGreen, IterationLimitError,
                                   _assemble_dense, _cell_average,
                                   apply_green, assemble_green,
                                   check_matrix_budget,
                                   check_memory_budget, jacobian,
                                   linearized_spectrum, lu_factor, lu_solve,
                                   poisson_trace, smallest_singular_value)
from scalarfield.solver import monotone_iterate

from conftest import peak_allocation

# a density with kinks at the knots 1 and 2, vanishing at r_max = 3
KINKED = {"type": "radial_density", "radii": [0.0, 1.0, 2.0, 3.0],
          "values": [1.0, 0.8, 0.3, 0.0]}


def adaptive_radial_trace(N, grid, radii, values):
    """Independent oracle for the radial Poisson trace: adaptive QUADPACK in
    the boundary radius s (density knots and r_i as break points) and, for
    N = 3, in the ring angle, with closed-form kernels and no absolute
    tolerance."""
    r_max = radii[-1]

    def ring(lat2, z):          # the boundary kernel P at lateral distance^2
        rho = math.sqrt(lat2 + z * z)
        if N == 2:
            return z * k1(rho) / (math.pi * rho)
        return z * (1.0 + rho) * math.exp(-rho) / (2.0 * math.pi * rho ** 3)

    def angular(r, s, z):       # integral of P over the ring of radius s
        if N == 2:
            return ring((r - s) ** 2, z) + ring((r + s) ** 2, z)
        return 2.0 * s * quad(
            lambda phi: ring((r - s * math.cos(phi)) ** 2
                             + (s * math.sin(phi)) ** 2, z),
            0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=500)[0]

    out = []
    for r, z in zip(grid.radii, grid.heights):
        breaks = sorted(b for b in {*radii, r} if 0.0 < b < r_max)
        out.append(quad(lambda s: np.interp(s, radii, values) * angular(r, s, z),
                        0.0, r_max, points=breaks or None, epsabs=0.0,
                        epsrel=1e-12, limit=500)[0])
    return np.array(out)


class TestAssembly:
    def test_two_node_entries_match_kernel(self):
        g = build_grid(1, 5.0, 5.0, 1, 2, grading=1.0)
        x1, x2 = g.heights
        dense = _assemble_dense(g).entries[0, 1]
        structured = assemble_green(g).matvec(np.array([0.0, 1.0]))[0]
        for entry in (dense, structured):
            assert entry / g.quad_weights[1] \
                == pytest.approx(green_G(1, x1, x2), rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_entries_nonnegative_and_near_symmetric(self, N):
        g = build_grid(N, 6.0, 6.0, 10, 14)
        K = _assemble_dense(g)
        assert np.all(K.entries >= 0.0)
        bare = K.entries / g.quad_weights[None, :]
        off = ~np.eye(g.n_nodes, dtype=bool)
        np.testing.assert_allclose(bare[off], bare.T[off], rtol=1e-12)

    def test_constant_source_oracle(self, grid_line, K_line):
        # G[1] = 1 - e^{-x}; compared away from the truncation end
        out = apply_green(K_line, Field(grid_line, np.ones(grid_line.n_nodes)))
        core = grid_line.heights <= 10.0
        err = np.abs(out.values - (1.0 - np.exp(-grid_line.heights)))
        assert np.max(err[core]) <= 1e-3

    def test_row_sums_below_one(self, grid_line, K_line):
        assert np.all(K_line.matvec(np.ones(grid_line.n_nodes)) <= 1.0)

    def test_memory_guard(self):
        # one 23 172-node matrix is just over 4 GiB; it is never allocated
        g = build_grid(2, 20.0, 20.0, 2, 11_586)
        with pytest.raises(ValueError, match="memory budget"):
            assemble_green(g)

    def test_budget_counts_copies_times_eight_n_squared(self):
        assert operators.MAX_MATRIX_BYTES == 4 * 2 ** 30
        for n, copies in ((23_170, 1), (16_384, 2), (13_377, 3)):
            check_matrix_budget(n, copies)
        for n, copies in ((23_171, 1), (16_385, 2), (13_378, 3)):
            with pytest.raises(ValueError, match="memory budget"):
                check_matrix_budget(n, copies)

    def test_half_line_budget_counts_vectors(self):
        vectors = operators.HALF_LINE_VECTORS
        check_memory_budget(1, 10 ** 6, 3, 201)
        n = operators.MAX_MATRIX_BYTES // (8 * (vectors + 201))
        check_memory_budget(1, n, 3, 201)
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(1, n + 1, 3, 201)
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(1, 10 ** 9, 1, 0)
        # a dense grid is still counted in n x n matrices
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(2, 13_378, 3, 0)

    @pytest.mark.parametrize("N, shape, block_entries", [
        (1, (1, 200), 7 * 200),          # 7-row blocks: 28 full, one of 4
        (2, (6, 11), 660),               # 5 height rows of 12 slabs: 2 full
                                         # blocks, one of 1
        (3, (6, 8), 5 * 48 * 32)])       # 5-row blocks: 9 full, one of 3
    def test_block_size_does_not_change_the_matrix(self, monkeypatch, N,
                                                   shape, block_entries):
        g = build_grid(N, 6.0, 6.0, *shape)
        whole = _assemble_dense(g).entries.tobytes()
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", block_entries)
        assert _assemble_dense(g).entries.tobytes() == whole

    # (2, 2000): 4 slabs of 2000 x 2000 heights are 16 * 10^6 entries
    @pytest.mark.parametrize("N, shape", [(1, (1, 2000)), (2, (30, 40)),
                                          (3, (24, 36)), (2, (2, 2000))])
    def test_assembly_temporaries_are_bounded(self, N, shape):
        g = build_grid(N, 20.0, 20.0, *shape)
        K, extra = peak_allocation(_assemble_dense, g)
        temporaries = extra - K.entries.nbytes
        assert temporaries <= 16 * 8 * operators._BLOCK_ENTRIES

    @pytest.mark.parametrize("shape", [(6, 10), (20, 30)])
    def test_plane_entries_match_mirror_pair_oracle(self, shape):
        g = build_grid(2, 12.0, 12.0, *shape)
        entries = _assemble_dense(g).entries
        np.testing.assert_array_equal(
            np.diag(entries),
            _cell_average(2, g.radii, g.heights, g.cell_sizes)
            * g.quad_weights)
        bare = entries / g.quad_weights[None, :]
        rows, cols = np.nonzero(~np.eye(g.n_nodes, dtype=bool))
        x, y = g.nodes[rows], g.nodes[cols]
        y_mirror = y * np.array([-1.0, 1.0])
        oracle = 0.5 * (green_G(2, x, y) + green_G(2, x, y_mirror))
        row_max = np.max(np.abs(bare), axis=1)
        assert np.all(np.abs(bare[rows, cols] - oracle)
                      <= 1e-13 * row_max[rows])

    def test_one_kernel_slab_per_lateral_offset(self, monkeypatch):
        nl, nh = 20, 30
        g = build_grid(2, 12.0, 12.0, nl, nh)
        points = []
        bessel_k0 = kernels.bessel_k0

        def counted(r):
            points.append(np.size(r))
            return bessel_k0(r)

        monkeypatch.setattr(kernels, "bessel_k0", counted)
        _assemble_dense(g)
        # 2 nl slabs of nh x nh pairs, two distances a pair, and the
        # diagonal's 4 distances at 4 sub-points a node; pairwise entries
        # would take 4 n^2
        assert sum(points) <= 2 * (2 * nl) * nh ** 2 + 16 * g.n_nodes


class TestApply:
    def test_linearity_and_positivity(self, grid_line, K_line):
        rng = np.random.default_rng(3)
        f = rng.uniform(0.0, 1.0, grid_line.n_nodes)
        h = rng.normal(size=grid_line.n_nodes)
        zero = apply_green(K_line, Field(grid_line, np.zeros_like(f)))
        assert np.all(zero.values == 0.0)
        assert np.all(apply_green(K_line, Field(grid_line, f)).values >= 0.0)
        lhs = apply_green(K_line, Field(grid_line, f + h)).values
        rhs = apply_green(K_line, Field(grid_line, f)).values \
            + apply_green(K_line, Field(grid_line, h)).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_grid_mismatch(self, K_line):
        other = build_grid(1, 20.0, 20.0, 1, 64)
        with pytest.raises(ValueError, match="grid"):
            apply_green(K_line, Field(other, np.ones(64)))


def test_gauss_legendre_rules_are_cached_read_only():
    for order in (12, 32):
        x, w = operators._gauss_legendre(order)
        again = operators._gauss_legendre(order)
        ref = np.polynomial.legendre.leggauss(order)
        for got, repeat, exact in zip((x, w), again, ref):
            np.testing.assert_array_equal(repeat, got)
            np.testing.assert_array_equal(got, exact)
            assert not got.flags.writeable and not repeat.flags.writeable
    # the composite rule is unchanged, bit for bit
    edges = np.array([[0.0, 0.5, 2.0], [1.0, 1.0, 3.0]])
    t, wt = operators.gauss_panels(edges, 12)
    x, w = np.polynomial.legendre.leggauss(12)
    half = 0.5 * np.diff(edges)[..., None]
    np.testing.assert_array_equal(
        t, (edges[:, :-1, None] + half * (x + 1.0)).reshape(2, -1))
    np.testing.assert_array_equal(wt, (half * w).reshape(2, -1))


class TestPoissonTrace:
    def test_half_line_exact(self, grid_line):
        f = poisson_trace(grid_line, {"type": "point_mass", "mass": 1.0})
        np.testing.assert_array_equal(f.values, np.exp(-grid_line.heights))

    def test_three_dimensional_point_mass(self):
        g = build_grid(3, 8.0, 8.0, 6, 8)
        f = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
        np.testing.assert_allclose(f.values, poisson_P(3, g.nodes), rtol=1e-13)

    def test_mass_linearity(self, grid_line):
        one = poisson_trace(grid_line, {"type": "point_mass", "mass": 1.0})
        two = poisson_trace(grid_line, {"type": "point_mass", "mass": 2.0})
        np.testing.assert_allclose(two.values, 2.0 * one.values)

    def test_constant_radial_density_matches_uniform_data(self):
        # density 1 out to radius 30 acts like boundary data 1: e^{-x_N}
        g = build_grid(2, 4.0, 4.0, 6, 10)
        f = poisson_trace(g, {"type": "radial_density",
                              "radii": [0.0, 30.0], "values": [1.0, 1.0]})
        np.testing.assert_allclose(f.values, np.exp(-g.heights), atol=1e-3)
        assert np.all(f.values > 0.0)

    def test_radial_density_three_dimensional(self):
        g = build_grid(3, 4.0, 4.0, 5, 8)
        f = poisson_trace(g, {"type": "radial_density",
                              "radii": [0.0, 30.0], "values": [1.0, 1.0]})
        np.testing.assert_allclose(f.values, np.exp(-g.heights), atol=1e-3)

    @pytest.mark.parametrize("N, shape", [(2, (6, 10)), (3, (5, 8))])
    def test_radial_density_matches_adaptive_oracle(self, N, shape):
        g = build_grid(N, 4.0, 4.0, *shape)
        radii, values = KINKED["radii"], KINKED["values"]
        assert np.any(np.isin(g.radii, radii[1:]))   # a node on a knot
        oracle = adaptive_radial_trace(N, g, radii, values)
        f = poisson_trace(g, KINKED)
        np.testing.assert_allclose(f.values, oracle, rtol=1e-10, atol=0.0)

    def test_far_out_nodes_converge_in_panel_order(self, monkeypatch):
        # at r ~ 16-19, z = 1.6e-4 the panels are ~1e-4 wide; absolute s
        # nodes would carry ulp(r) round-off into r - s (4-8e-13 here)
        g = build_grid(2, 20.0, 20.0, 8, 40, 3.0)
        uniform = {"type": "radial_density", "radii": [0.0, 30.0],
                   "values": [1.0, 1.0]}
        low = poisson_trace(g, uniform).values
        monkeypatch.setattr(operators, "_TRACE_ORDER", 30)
        high = poisson_trace(g, uniform).values
        far = (g.radii > 15.0) & (g.heights == g.heights.min())
        assert np.count_nonzero(far) == 2
        np.testing.assert_allclose(low[far], high[far], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("N, shape", [(2, (6, 10)), (3, (5, 8))])
    def test_one_poisson_P_call_per_block(self, monkeypatch, N, shape):
        g = build_grid(N, 4.0, 4.0, *shape)
        whole = poisson_trace(g, KINKED).values.tobytes()
        kernel_values = []

        def counted(N, x, z=None):
            kernel_values.append(np.size(x) // N)
            return poisson_P(N, x, z)

        monkeypatch.setattr(operators, "poisson_P", counted)
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 2_000)
        assert poisson_trace(g, KINKED).values.tobytes() == whole
        # every call but the last is a full block, not a node or an angle
        assert len(kernel_values) >= 2
        assert all(1_000 < k <= 2_000 for k in kernel_values[:-1])

    def test_trace_temporaries_are_bounded(self):
        g = build_grid(3, 20.0, 20.0, 16, 24)
        _, extra = peak_allocation(poisson_trace, g, KINKED)
        assert extra <= 16 * 8 * operators._BLOCK_ENTRIES

    def test_invalid_measures(self, grid_line):
        with pytest.raises(ValueError):
            poisson_trace(grid_line, {"type": "point_mass", "mass": 0.0})
        with pytest.raises(ValueError):
            poisson_trace(grid_line, {"type": "surface"})
        with pytest.raises(ValueError):
            poisson_trace(grid_line, {"type": "radial_density",
                                      "radii": [0.0, 1.0],
                                      "values": [1.0, 1.0]})  # N = 1
        g2 = build_grid(2, 4.0, 4.0, 4, 6)
        with pytest.raises(ValueError):
            poisson_trace(g2, {"type": "radial_density",
                               "radii": [1.0, 0.5], "values": [1.0, 1.0]})
        with pytest.raises(ValueError):
            poisson_trace(g2, {"type": "point_mass", "mass": 1.0,
                               "location": [1.0]})
        for radii, values in (([0.0, np.nan], [1.0, 1.0]),
                              ([0.0, np.inf], [1.0, 1.0]),
                              ([0.0, 1.0], [np.nan, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                poisson_trace(g2, {"type": "radial_density",
                                   "radii": radii, "values": values})


class TestLinearizedSpectrum:
    def test_fold_state_eigenpair(self, grid_line, K_line):
        # derivative of the soliton family in its shift parameter gives the
        # neutral eigenfield sech * tanh at lambda = 1
        z = grid_line.heights
        u = Field(grid_line, np.sqrt(2.0) / np.cosh(z))
        res = linearized_spectrum(K_line, u, 3.0)
        assert res.lambda_ == pytest.approx(1.0, abs=2e-2)
        assert res.residual <= 1e-8 * np.max(np.abs(res.eigenfield.values))
        assert np.all(res.eigenfield.values >= 0.0)
        mode = np.tanh(z) / np.cosh(z)
        psi = res.eigenfield.values / np.max(res.eigenfield.values)
        np.testing.assert_allclose(psi, mode / np.max(mode), atol=5e-3)

    def test_minimal_branch_is_stable(self, K_line, Pmu_line):
        kappa_star = np.sqrt(2.0)
        for frac in (0.25, 0.5, 0.75, 0.9):
            u = monotone_iterate(frac * kappa_star, K_line, Pmu_line,
                                 3.0).solution
            res = linearized_spectrum(K_line, u, 3.0)
            assert res.lambda_ > 1.0
            assert res.rho < 1.0

    def test_zero_state_rejected(self, grid_line, K_line):
        with pytest.raises(ValueError):
            linearized_spectrum(K_line,
                                Field(grid_line,
                                      np.zeros(grid_line.n_nodes)), 3.0)

    def test_iteration_limit_carries_residual(self, grid_line, K_line,
                                              monkeypatch):
        monkeypatch.setattr(operators, "_SPECTRUM_ITERS", 2)
        u = Field(grid_line, np.ones(grid_line.n_nodes))
        with pytest.raises(IterationLimitError) as info:
            linearized_spectrum(K_line, u, 3.0, tol=1e-15)
        assert info.value.residual is not None

    def test_refinement_stability(self, K_line, Pmu_line, grid_line):
        from scalarfield.operators import assemble_green
        lam = []
        for K, Pmu in [(K_line, Pmu_line), (None, None)]:
            if K is None:
                g = build_grid(1, 20.0, 20.0, 1, 2000)
                K = assemble_green(g)
                Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
            u = monotone_iterate(1.0, K, Pmu, 3.0).solution
            lam.append(linearized_spectrum(K, u, 3.0).lambda_)
        assert abs(lam[1] - lam[0]) < 1e-3

    def test_compactness_heuristic(self, K_line, K_line_dense, Pmu_line):
        # singular values of h -> G[p u^{p-1} h] decay fast
        u = monotone_iterate(1.0, K_line, Pmu_line, 3.0).solution
        Ta = K_line_dense.entries * (3.0 * u.values ** 2)[None, :]
        s = np.linalg.svd(Ta, compute_uv=False)
        assert s[19] / s[0] < 5e-3
        assert s[39] / s[0] < 1e-3


class TestJacobianAndSingularValues:
    def test_jacobian_structure(self, grid_line, K_line_dense):
        u = Field(grid_line, np.full(grid_line.n_nodes, 0.5))
        J = jacobian(K_line_dense, u, 3.0)
        expected = (np.eye(grid_line.n_nodes)
                    - K_line_dense.entries * (3.0 * 0.25))
        np.testing.assert_allclose(J, expected, atol=1e-15)

    def test_negative_part_ignored(self, grid_line, K_line, K_line_dense):
        u = Field(grid_line, -np.ones(grid_line.n_nodes))
        np.testing.assert_allclose(jacobian(K_line_dense, u, 3.0),
                                   np.eye(grid_line.n_nodes))
        # the N = 1 Jacobian is the identity too: A = T, so J = S T
        b = np.cos(grid_line.heights)
        x = lu_solve(lu_factor(jacobian(K_line, u, 3.0)), b)
        np.testing.assert_allclose(x, b, rtol=0.0, atol=1e-12)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(60, 60)) + 3.0 * np.eye(60)
        expected = np.linalg.svd(A, compute_uv=False)[-1]
        assert smallest_singular_value(A) == pytest.approx(expected, rel=1e-6)

    def test_singular_matrix_returns_zero(self):
        A = np.ones((5, 5))
        assert smallest_singular_value(A) == 0.0

    def test_square_required(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.ones((3, 4)))


def _sech(z):
    return 2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))   # no overflow


@pytest.fixture(scope="module", params=[(300, 20.0), (2000, 20.0),
                                        (300, 800.0)],
                ids=lambda c: f"{c[0]}-H{c[1]:g}")
def half_line(request):
    """(grid, HalfLineGreen, dense reference, Pmu); at H = 800 sinh(z)
    overflows, so the operator must use height differences only."""
    n, H = request.param
    g = build_grid(1, H, H, 1, n)
    return (g, assemble_green(g), _assemble_dense(g),
            poisson_trace(g, {"type": "point_mass", "mass": 1.0}))


class TestHalfLineBackend:
    """The O(n) N = 1 operator against the dense matrix, its reference."""

    @staticmethod
    def _check_matvec(g, K, dense):
        assert isinstance(K, HalfLineGreen)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, g.n_nodes)
        ref = dense.matvec(x)
        assert np.max(np.abs(K.matvec(x) - ref)) <= 2e-14 * np.max(np.abs(ref))
        # a positive vector has positive products: each row to round-off
        x = rng.uniform(0.0, 1.0, g.n_nodes)
        ref = dense.matvec(x)
        assert np.max(np.abs(K.matvec(x) / ref - 1.0)) <= 5e-14

    def test_matvec(self, half_line):
        g, K, dense, _ = half_line
        self._check_matvec(g, K, dense)

    # cells much wider than the kernel's decay length 1: the sub-cell
    # average is far below S_ii, so it must be added, not reached as S_ii
    # plus a correction
    @pytest.mark.parametrize("H, n", [(5000.0, 2), (900.0, 7)],
                             ids=["5000-2", "900-7"])
    def test_matvec_wide_cells(self, H, n):
        g = build_grid(1, H, H, 1, n, grading=1.0)
        self._check_matvec(g, assemble_green(g), _assemble_dense(g))

    def test_matvec_carries_between_chunks(self):
        # H = 3000 spans about ten chunks of operators._CHUNK_SPAN heights
        g = build_grid(1, 3000.0, 3000.0, 1, 2000)
        K = assemble_green(g)
        assert len(K.l_chunks) == len(K.v_chunks) >= 10
        x = np.random.default_rng(11).uniform(-1.0, 1.0, g.n_nodes)
        ref = _assemble_dense(g).matvec(x)
        got = K.matvec(x)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("trans", [0, 1])
    def test_jacobian_solves(self, half_line, trans):
        g, K, dense, Pmu = half_line
        u = monotone_iterate(1.0, K, Pmu, 3.0).solution
        b = np.random.default_rng(7).uniform(-1.0, 1.0, g.n_nodes)
        x, ref = (lu_solve(lu_factor(jacobian(op, u, 3.0)), b, trans=trans)
                  for op in (K, dense))
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_two_node_jacobian_solves(self):
        g = build_grid(1, 5.0, 5.0, 1, 2, grading=1.0)
        u = Field(g, np.array([0.8, 0.3]))
        b = np.array([1.0, -2.0])
        for trans in (0, 1):
            x, ref = (lu_solve(lu_factor(jacobian(op, u, 3.0)), b,
                               trans=trans)
                      for op in (assemble_green(g), _assemble_dense(g)))
            np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_spectrum(self, half_line):
        g, K, dense, Pmu = half_line
        u = monotone_iterate(1.0, K, Pmu, 3.0).solution
        res, ref = (linearized_spectrum(op, u, 3.0) for op in (K, dense))
        assert abs(res.lambda_ - ref.lambda_) <= 1e-10
        assert res.iterations == ref.iterations

    def test_smallest_singular_value_at_the_fold(self, half_line):
        g, K, dense, _ = half_line
        u = Field(g, np.sqrt(2.0) * _sech(g.heights))
        sigma, ref = (smallest_singular_value(jacobian(op, u, 3.0))
                      for op in (K, dense))
        assert sigma == pytest.approx(ref, rel=1e-5)

    def test_fold(self, half_line):
        from scalarfield.continuation import detect_fold, trace_branch
        g, K, dense, Pmu = half_line
        folds = [detect_fold(trace_branch(0.2, op, Pmu, 3.0))[0]
                 for op in (K, dense)]
        assert abs(folds[0] - folds[1]) <= 1e-10
