import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import k1

from scalarfield import kernels, operators
from scalarfield.discretization import Field, build_grid
from scalarfield.kernels import green_G, poisson_P
from scalarfield.operators import (EigenResult, HalfLineGreen,
                                   IterationLimitError, _assemble_dense,
                                   _cell_average, apply_green,
                                   assemble_green, check_memory_budget,
                                   jacobian,
                                   linearized_spectrum, lu_factor, lu_solve,
                                   poisson_trace)
from scalarfield.solver import monotone_iterate

from conftest import dense_jacobian, dense_rho, peak_allocation, soliton

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
        # K = S W: the dense operator keeps S, the product applies W
        dense = _assemble_dense(g).kernel[0, 1] * g.quad_weights[1]
        structured = assemble_green(g).matvec(np.array([0.0, 1.0]))[0]
        for entry in (dense, structured):
            assert entry / g.quad_weights[1] \
                == pytest.approx(green_G(1, x1, x2), rel=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_entries_nonnegative_and_near_symmetric(self, N):
        g = build_grid(N, 6.0, 6.0, 10, 14)
        K = _assemble_dense(g).kernel * g.quad_weights[None, :]
        assert np.all(K >= 0.0)
        bare = K / g.quad_weights[None, :]
        off = ~np.eye(g.n_nodes, dtype=bool)
        np.testing.assert_allclose(bare[off], bare.T[off], rtol=1e-12)

    # (2, (8, 700)) takes several slab blocks, (2, (6, 11)) and (3, (6, 8))
    # several with small blocks
    @pytest.mark.parametrize("N, shape, block_entries", [
        (1, (1, 300), None), (1, (1, 200), 7 * 200),
        (2, (20, 30), None), (2, (8, 700), None), (2, (6, 11), 660),
        (3, (16, 24), None), (3, (6, 10), None), (3, (6, 8), 5 * 48 * 32),
        (3, (5, 7), None)])
    def test_bare_kernel_is_exactly_symmetric(self, monkeypatch, N, shape,
                                              block_entries):
        if block_entries is not None:
            monkeypatch.setattr(operators, "_BLOCK_ENTRIES", block_entries)
        S = _assemble_dense(build_grid(N, 6.0, 6.0, *shape)).kernel
        np.testing.assert_array_equal(S, S.T)

    @pytest.mark.parametrize("N, shape", [(2, (20, 30)), (3, (16, 24))])
    def test_matvec_applies_the_weights(self, N, shape):
        g = build_grid(N, 12.0, 12.0, *shape)
        K = _assemble_dense(g)
        x = np.random.default_rng(9).uniform(-1.0, 1.0, g.n_nodes)
        terms = np.abs(K.kernel * (g.quad_weights * x)[None, :])
        ref = K.kernel @ (g.quad_weights * x)
        assert np.all(np.abs(K.matvec(x) - ref)
                      <= 1e-13 * np.max(terms, axis=1))

    def test_matvec_copies_no_matrix(self):
        g = build_grid(2, 20.0, 20.0, 20, 30)
        K = _assemble_dense(g)
        x = np.ones(g.n_nodes)
        _, extra = peak_allocation(K.matvec, x)
        assert extra <= 4 * 8 * g.n_nodes

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
        # one copy: a dense problem holds its n x n matrix, and the vectors
        # besides it include a full GMRES basis.  The largest is 23 088
        # nodes (one matrix alone: 23 170), and a 200-point branch, which
        # keeps 402 fields, 22 888
        assert operators.MAX_MATRIX_BYTES == 4 * 2 ** 30
        for n, fields in ((23_088, 0), (22_888, 402)):
            check_memory_budget(2, n, fields)
            with pytest.raises(ValueError, match="memory budget"):
                check_memory_budget(2, n + 1, fields)

    def test_half_line_budget_counts_vectors(self):
        vectors = operators.HALF_LINE_VECTORS
        check_memory_budget(1, 10 ** 6, 201)
        n = operators.MAX_MATRIX_BYTES // (8 * (vectors + 201))
        check_memory_budget(1, n, 201)
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(1, n + 1, 201)
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(1, 10 ** 9, 0)
        # a dense grid also counts its n x n matrix
        with pytest.raises(ValueError, match="memory budget"):
            check_memory_budget(2, 23_089, 0)

    @pytest.mark.parametrize("N, shape, block_entries", [
        (1, (1, 200), 7 * 200),          # 7-row blocks: 28 full, one of 4
        (2, (6, 11), 660),               # 5 height rows of 12 slabs: 2 full
                                         # blocks, one of 1
        (3, (6, 8), 5 * 48 * 32)])       # 5-row blocks: 9 full, one of 3
    def test_block_size_does_not_change_the_matrix(self, monkeypatch, N,
                                                   shape, block_entries):
        g = build_grid(N, 6.0, 6.0, *shape)
        whole = _assemble_dense(g).kernel.tobytes()
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", block_entries)
        assert _assemble_dense(g).kernel.tobytes() == whole

    # (2, 2000): 4 slabs of 2000 x 2000 heights are 16 * 10^6 entries
    @pytest.mark.parametrize("N, shape", [(1, (1, 2000)), (2, (30, 40)),
                                          (3, (24, 36)), (2, (2, 2000))])
    def test_assembly_temporaries_are_bounded(self, N, shape):
        g = build_grid(N, 20.0, 20.0, *shape)
        K, extra = peak_allocation(_assemble_dense, g)
        temporaries = extra - K.kernel.nbytes
        assert temporaries <= 16 * 8 * operators._BLOCK_ENTRIES

    @pytest.mark.parametrize("shape", [(6, 10), (20, 30)])
    def test_plane_entries_match_mirror_pair_oracle(self, shape):
        g = build_grid(2, 12.0, 12.0, *shape)
        entries = _assemble_dense(g).kernel * g.quad_weights[None, :]
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

    def test_plane_manufactured_solution_converges_at_second_order(self):
        # v = z exp(-z^2 - rho^2) vanishes on the wall and decays, so
        # G f = v for f = -Lap v + v = v (9 - 4 z^2 - 4 rho^2) (N = 2).
        # The max relative error of K f falls by about 4x per doubling of
        # both node counts: 1.69e-2, 4.13e-3, 1.03e-3
        errors = []
        for nodes in ((16, 24), (32, 48), (64, 96)):
            g = build_grid(2, 8.0, 8.0, *nodes)
            rho, z = g.radii, g.heights
            v = z * np.exp(-z * z - rho * rho)
            Kf = assemble_green(g).matvec(v * (9.0 - 4.0 * z * z
                                               - 4.0 * rho * rho))
            errors.append(np.max(np.abs(Kf - v)) / np.max(v))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.1), (errors, orders)


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

    def test_a_basis_as_large_as_the_space_ends_with_it(self, monkeypatch):
        # a synthetic K = S W on a real grid whose symmetric form B has the
        # spectrum 1 - t, t from 1e-6 to 1 geometrically: wide, with a top
        # gap of about 4e-7, so no Krylov space short of the whole one
        # brings the Ritz residual to 1e-12.  Full reorthogonalization
        # keeps the basis orthonormal, so the n-th product exhausts the
        # space and rho is B's top eigenvalue; a basis that loses
        # orthogonality (local three-term Lanczos, one Gram-Schmidt pass)
        # runs on past n products, or never converges
        n = 40
        g = build_grid(1, 20.0, 20.0, 1, n)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))
        B = (q * (1.0 - np.geomspace(1e-6, 1.0, n))) @ q.T
        d = np.sqrt(2.0 * g.quad_weights)         # D at u = 1, p = 2
        S = B / np.outer(d, d)
        K = operators.KernelMatrix(g, 0.5 * (S + S.T))
        u = Field(g, np.ones(n))
        monkeypatch.setattr(operators, "_KRYLOV_BASIS", n)
        res = linearized_spectrum(K, u, 2.0, tol=1e-12)
        assert res.iterations <= n
        assert abs(res.rho / dense_rho(K, u, 2.0) - 1.0) <= 1e-12

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
        w = K_line_dense.grid.quad_weights
        Ta = K_line_dense.kernel * (w * 3.0 * u.values ** 2)[None, :]
        s = np.linalg.svd(Ta, compute_uv=False)
        assert s[19] / s[0] < 5e-3
        assert s[39] / s[0] < 1e-3


@pytest.fixture(scope="module")
def warm_state():
    """A 300-node half-line state (the p = 3 soliton at kappa = 1), its
    O(n) and dense operators, and the dense eigenpairs of K M there,
    largest first."""
    g = build_grid(1, 20.0, 20.0, 1, 300)
    u = Field(g, soliton(g.heights, 1.0))
    dense = _assemble_dense(g)
    m = g.quad_weights * 3.0 * u.values ** 2
    rho, vectors = np.linalg.eig(dense.kernel * m[None, :])
    order = np.argsort(-rho.real)
    return g, assemble_green(g), dense, u, rho.real[order], \
        vectors.real[:, order]


def _pair(g, rho, psi):
    return EigenResult(rho=rho, eigenfield=Field(g, psi), iterations=0,
                       residual=0.0)


class TestWarmStart:
    """`linearized_spectrum` started from the pair at a nearby state."""

    def test_nearby_start_refines_to_round_off(self, warm_state):
        g, K, dense, u, _, vectors = warm_state
        start = linearized_spectrum(K, Field(g, soliton(g.heights, 0.95)),
                                    3.0)
        res = linearized_spectrum(K, u, 3.0, start=start)
        assert res.iterations < linearized_spectrum(K, u, 3.0).iterations
        assert abs(res.rho / dense_rho(dense, u, 3.0) - 1.0) <= 1e-12
        psi = res.eigenfield.values
        assert np.max(psi) == 1.0 and np.all(psi > 0.0)
        assert res.residual <= 1e-8 * res.rho
        perron = vectors[:, 0] / np.max(np.abs(vectors[:, 0]))
        np.testing.assert_allclose(psi, np.abs(perron), atol=1e-8)

    @pytest.mark.parametrize("case", ["sign-change", "zero"])
    def test_bad_start_returns_the_cold_pair_without_warnings(
            self, warm_state, case):
        # the second eigenpair has a sign change, and a zero eigenfield
        # gives nothing to start from
        g, K, dense, u, rho, vectors = warm_state
        start = {"sign-change": _pair(g, rho[1], vectors[:, 1]),
                 "zero": _pair(g, rho[0], np.zeros(g.n_nodes))}[case]
        assert np.min(vectors[:, 1]) < 0.0 < np.max(vectors[:, 1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = linearized_spectrum(K, u, 3.0, tol=1e-12, start=start)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert abs(res.rho / dense_rho(dense, u, 3.0) - 1.0) <= 1e-12
        assert np.all(res.eigenfield.values >= 0.0)
        if case == "zero":
            # the cold start, bit for bit
            cold = linearized_spectrum(K, u, 3.0, tol=1e-12)
            assert (res.rho, res.iterations) == (cold.rho, cold.iterations)
            assert np.array_equal(res.eigenfield.values,
                                  cold.eigenfield.values)

    def test_a_full_basis_restarts_from_its_ritz_vector(self, warm_state,
                                                        monkeypatch):
        # three Lanczos vectors are too few for tol=1e-12, so the call
        # restarts from its top Ritz vector several times (with the full
        # basis it takes 10 products) and still returns the dense top pair
        g, K, dense, u, _, vectors = warm_state
        monkeypatch.setattr(operators, "_KRYLOV_BASIS", 3)
        res = linearized_spectrum(K, u, 3.0, tol=1e-12)
        assert 3 * 3 < res.iterations <= 30
        assert res.residual <= 1e-12 * res.rho
        assert abs(res.rho / dense_rho(dense, u, 3.0) - 1.0) <= 1e-12
        perron = vectors[:, 0] / np.max(np.abs(vectors[:, 0]))
        np.testing.assert_allclose(res.eigenfield.values, np.abs(perron),
                                   atol=1e-10)

    def test_dense_operator_takes_the_start(self, warm_state):
        # one iteration for every backend: a start saves the dense operator
        # products too, as many as it saves the O(n) one
        g, K, dense, u, rho, vectors = warm_state
        start = _pair(g, rho[0], vectors[:, 0])
        res, ref = (linearized_spectrum(op, u, 3.0, start=start)
                    for op in (dense, K))
        cold = linearized_spectrum(dense, u, 3.0)
        assert res.iterations == ref.iterations < cold.iterations
        assert abs(res.rho / dense_rho(dense, u, 3.0) - 1.0) <= 1e-12


class TestJacobian:
    def test_jacobian_structure(self):
        # a dense Jacobian is the Green product's: its products and its
        # transpose's are the dense matrix's.  N = 1 is the dense
        # reference; every case has non-constant weights
        rng = np.random.default_rng(3)
        for N, shape in [(1, (1, 300)), (2, (10, 14)), (3, (6, 8))]:
            g = build_grid(N, 6.0, 6.0, *shape)
            K = _assemble_dense(g)
            u = Field(g, rng.uniform(0.1, 1.0, g.n_nodes))
            J = jacobian(K, u, 3.0)
            assert J.K is K and lu_factor(J) is J
            np.testing.assert_array_equal(
                J.e, g.quad_weights * (3.0 * u.values ** 2.0))
            x = rng.uniform(-1.0, 1.0, g.n_nodes)
            dense = dense_jacobian(K, u, 3.0)
            for trans, A in ((0, dense), (1, dense.T)):
                np.testing.assert_allclose(J.matvec(x, trans), A @ x,
                                           rtol=0.0, atol=1e-13)

    def test_negative_part_ignored(self, grid_line, K_line, K_line_dense):
        # E = 0, so J is the identity: a dense solve takes one product, and
        # the N = 1 one has D = 0 and Lambda = I
        u = Field(grid_line, -np.ones(grid_line.n_nodes))
        b = np.cos(grid_line.heights)
        for K in (K_line_dense, K_line):
            x = lu_solve(lu_factor(jacobian(K, u, 3.0)), b)
            np.testing.assert_allclose(x, b, rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def plane_state():
    """A dense N = 2 problem on 10 x 12 nodes and its minimal solution at
    kappa = 2."""
    g = build_grid(2, 12.0, 12.0, 10, 12)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    return g, K, Pmu, monotone_iterate(2.0, K, Pmu, 3.0).solution


class TestKrylovSolve:
    """A dense Jacobian is solved by GMRES on the Green product."""

    @pytest.mark.parametrize("trans", [0, 1])
    def test_matches_the_dense_solve(self, plane_state, trans):
        g, K, _, u = plane_state
        J = dense_jacobian(K, u, 3.0)
        b = np.random.default_rng(7).uniform(-1.0, 1.0, g.n_nodes)
        ref = np.linalg.solve(J.T if trans else J, b)
        x = lu_solve(lu_factor(jacobian(K, u, 3.0)), b, trans=trans)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_jacobian_comes_back_non_finite(self, plane_state):
        # J = I - S E = 0 when S = I and E = I: GMRES meets a zero pivot
        # and stops, with no warning
        g, _, _, _ = plane_state
        n = g.n_nodes
        J = operators.KrylovJacobian(
            operators.KernelMatrix(g, np.eye(n)), np.ones(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = lu_solve(J, np.linspace(-1.0, 1.0, n))
        assert x.shape == (n,) and not np.any(np.isfinite(x))

    def test_solve_that_hits_the_cap_comes_back_non_finite(
            self, plane_state, monkeypatch):
        # the Green products are counted; this solve needs more than three
        g, K, _, u = plane_state
        products = []
        matvec = operators.KrylovJacobian.matvec

        def counting(self, x, trans=0):
            products.append(1)
            return matvec(self, x, trans)
        monkeypatch.setattr(operators.KrylovJacobian, "matvec", counting)
        b = np.random.default_rng(7).uniform(-1.0, 1.0, g.n_nodes)
        J = jacobian(K, u, 3.0)
        assert np.all(np.isfinite(lu_solve(J, b)))
        assert 3 < len(products) <= operators._GMRES_ITERS
        products.clear()
        monkeypatch.setattr(operators, "_GMRES_ITERS", 3)
        assert not np.any(np.isfinite(lu_solve(J, b)))
        assert len(products) == 3

    def test_zero_right_hand_side(self, plane_state):
        g, K, _, u = plane_state
        x = lu_solve(lu_factor(jacobian(K, u, 3.0)), np.zeros(g.n_nodes))
        assert np.array_equal(x, np.zeros(g.n_nodes))


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
        x = lu_solve(lu_factor(jacobian(K, u, 3.0)), b, trans=trans)
        J = dense_jacobian(dense, u, 3.0)
        ref = np.linalg.solve(J.T if trans else J, b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_two_node_jacobian_solves(self):
        g = build_grid(1, 5.0, 5.0, 1, 2, grading=1.0)
        u = Field(g, np.array([0.8, 0.3]))
        b = np.array([1.0, -2.0])
        J = dense_jacobian(_assemble_dense(g), u, 3.0)
        for trans in (0, 1):
            x = lu_solve(lu_factor(jacobian(assemble_green(g), u, 3.0)), b,
                         trans=trans)
            ref = np.linalg.solve(J.T if trans else J, b)
            np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_spectrum(self, half_line):
        g, K, dense, Pmu = half_line
        u = monotone_iterate(1.0, K, Pmu, 3.0).solution
        res, ref = (linearized_spectrum(op, u, 3.0) for op in (K, dense))
        assert abs(res.lambda_ - ref.lambda_) <= 1e-10
        assert res.iterations == ref.iterations

    def test_lambda_margin_at_the_fold_matches_dense(self, half_line):
        # J = I - K M is nearly singular at the fold state, where the
        # linearization's eigenvalue lambda is 1: the O(n) operator gives
        # the dense one's small margin lambda - 1
        g, K, dense, _ = half_line
        u = Field(g, np.sqrt(2.0) * _sech(g.heights))
        margin, ref = (linearized_spectrum(op, u, 3.0, tol=1e-12).lambda_ - 1.0
                       for op in (K, dense))
        assert margin == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("trans", [0, 1])
    def test_jacobian_solves_at_the_fold(self, half_line, trans):
        # cond(J) reaches ~1e6 here, so the solves are checked by their
        # residual in the dense J, not by their forward error
        g, K, dense, _ = half_line
        u = Field(g, np.sqrt(2.0) * _sech(g.heights))
        J = dense_jacobian(dense, u, 3.0)
        if trans:
            J = J.T
        b = np.random.default_rng(7).uniform(-1.0, 1.0, g.n_nodes)
        for op in (K, dense):
            x = lu_solve(lu_factor(jacobian(op, u, 3.0)), b, trans=trans)
            assert np.max(np.abs(J @ x - b)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("trans", [0, 1])
    def test_jacobian_solves_past_the_fold(self, half_line, trans):
        # on the second branch (sqrt(2) sech(x - 1), kappa = sqrt(2) sech 1)
        # J has one negative eigenvalue, and so has the symmetric
        # tridiagonal T - D that gttrf factorizes: it pivots there
        g, K, dense, _ = half_line
        u = Field(g, np.sqrt(2.0) * _sech(g.heights - 1.0))
        J = jacobian(K, u, 3.0)
        low = eigvalsh_tridiagonal(J.diag, J.off, select="i",
                                   select_range=(0, 1))
        assert low[0] < 0.0 < low[1]
        lu = lu_factor(J)
        assert np.any(lu.factors[-1] != np.arange(1, g.n_nodes + 1))
        b = np.random.default_rng(7).uniform(-1.0, 1.0, g.n_nodes)
        x = lu_solve(lu, b, trans=trans)
        J = dense_jacobian(dense, u, 3.0)
        ref = np.linalg.solve(J.T if trans else J, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fold(self, half_line):
        from scalarfield.continuation import detect_fold, trace_branch
        g, K, dense, Pmu = half_line
        folds = [detect_fold(trace_branch(0.2, op, Pmu, 3.0)).kappa
                 for op in (K, dense)]
        assert abs(folds[0] - folds[1]) <= 1e-10
