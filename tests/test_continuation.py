import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest
from scalarfield import continuation, operators
from scalarfield.cli import OUTPUT_DIR_ENV, run_command
from scalarfield.continuation import (Branch, detect_fold,
                                      solutions_at_kappa, trace_branch)
from scalarfield.discretization import Field, build_grid
from scalarfield.operators import (_assemble_dense, assemble_green,
                                   linearized_spectrum, poisson_trace)
from scalarfield.solver import estimate_kappa_star, monotone_iterate, psi_map

from conftest import dense_rho, peak_allocation, soliton


@pytest.fixture(scope="module")
def branch(K_line, Pmu_line):
    return trace_branch(0.2, K_line, Pmu_line, 3.0, step=0.05, max_points=200)


class TestTraceBranch:
    def test_passes_the_fold(self, branch, tmp_path, monkeypatch):
        assert branch.fold_index is not None
        assert np.max(branch.kappas) == pytest.approx(np.sqrt(2.0), abs=2e-3)
        # the CLI's branch.csv flags the fold point of the same trace, and
        # no other
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"H": 20.0, "nodes_height": 1000,
                                               "grading": 2.0}}))
        assert run_command(["branch", "--config", str(config)]) == 0
        rows = (tmp_path / "branch.csv").read_text().splitlines()
        flags = [int(row.split(",")[-1]) for row in rows[1:]]
        assert len(flags) == len(branch.points)
        assert sum(flags) == 1
        assert flags.index(1) == branch.fold_index

    def test_kappa_rises_then_falls(self, branch):
        i = int(np.argmax(branch.kappas))
        assert 0 < i < len(branch.points) - 1
        assert branch.points[-1].kappa < branch.points[i].kappa

    def test_arclength_increases(self, branch):
        s = [pt.arclength for pt in branch.points]
        assert np.all(np.diff(s) > 0.0)

    def test_lambda_crosses_one_exactly_once(self, branch):
        lam = np.array([pt.lambda_ for pt in branch.points])
        crossings = np.sum(np.diff(np.sign(lam - 1.0)) != 0.0)
        assert crossings == 1

    def test_sup_norm_grows_then_saturates(self, branch):
        # past the fold the interior peak reaches the cap sqrt(2)
        sup = np.array([pt.field.sup_norm() for pt in branch.points])
        assert np.all(np.diff(sup[:branch.fold_index + 1]) > 0.0)
        assert sup[-1] == pytest.approx(np.sqrt(2.0), abs=1e-3)
        norms = np.array([pt.field.norm(4.0, 0.0) for pt in branch.points])
        assert np.all(np.diff(norms) > 0.0)

    def test_points_solve_the_fixed_point_equation(self, K_line, Pmu_line,
                                                   branch):
        for pt in branch.points:
            u = pt.field.values
            residual = u - psi_map(u, pt.kappa, K_line, Pmu_line, 3.0)
            assert np.max(np.abs(residual)) <= 1e-10

    def test_dense_corrector_takes_newton_steps(self, plane, monkeypatch):
        # a dense corrector forms a fresh Jacobian at every iterate after
        # the first, as the N = 1 one does: each Jacobian is one lu_factor
        # call, and a point takes a few steps (the chord with one LU per
        # point took about 15)
        _, K, Pmu, _ = plane
        calls, lu_factor = [], continuation.lu_factor

        def counting_lu_factor(*args, **kwargs):
            calls.append(1)
            return lu_factor(*args, **kwargs)
        monkeypatch.setattr(continuation, "lu_factor", counting_lu_factor)
        short = trace_branch(0.5, K, Pmu, 3.0, step=0.05, max_points=8)
        corrections = len(short.points) - 1
        assert corrections == 7
        assert short.factorizations == len(calls)
        assert short.corrector_steps <= 3 * corrections
        # the first point's tangent, and one per step after a correction's
        # first
        assert short.factorizations == \
            1 + short.corrector_steps - corrections

    def test_half_line_refactorizes_to_save_fixed_point_maps(
            self, K_line, Pmu_line, monkeypatch):
        # the chord with one LU per point took 35 maps for these 8 points
        maps, factors = [], []

        def counting(counter, fn):
            def wrapped(*args, **kwargs):
                counter.append(1)
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(continuation, "psi_map",
                            counting(maps, continuation.psi_map))
        monkeypatch.setattr(continuation, "lu_factor",
                            counting(factors, continuation.lu_factor))
        short = trace_branch(0.2, K_line, Pmu_line, 3.0, step=0.05,
                             max_points=8)
        assert len(short.points) == 8
        assert len(maps) < 35
        assert len(factors) > len(short.points)
        assert short.factorizations == len(factors)

    def test_correction_that_leaves_the_newton_basin_stops_early(
            self, K_line, Pmu_line, branch):
        # a step of 0.4 across the fold: the residual rises after a
        # refactorization, and the corrector gives up long before its
        # iteration budget
        i = int(np.argmax(branch.kappas))
        top, before = branch.points[i], branch.points[i - 1]
        u = top.field.values
        fresh = Branch(K_line, Pmu_line, 3.0)
        tang = fresh._tangent(u, (u - before.field.values,
                                  top.kappa - before.kappa))
        assert fresh._correct(u, top.kappa, tang, 0.4) is None
        assert fresh.factorizations > 1
        assert fresh.corrector_steps < 10

    def test_points_match_the_closed_form_branch(self, grid_line, branch):
        # sqrt(2) sech(x + a) below the fold, sqrt(2) sech(x - a) above,
        # sech a = kappa / sqrt(2); a = 0 past the discrete fold (kappa
        # slightly above sqrt(2))
        z = grid_line.heights
        for pt in branch.points:
            a = np.arccosh(max(np.sqrt(2.0) / pt.kappa, 1.0))
            err = min(np.max(np.abs(pt.field.values
                                    - np.sqrt(2.0) / np.cosh(z + s * a)))
                      for s in (1.0, -1.0))
            assert err <= 1e-3

    def test_validation(self, K_line, Pmu_line):
        with pytest.raises(ValueError):
            trace_branch(0.2, K_line, Pmu_line, 3.0, step=0.0)
        with pytest.raises(ValueError):
            trace_branch(0.2, K_line, Pmu_line, 3.0, max_points=1)
        with pytest.raises(ValueError):
            trace_branch(2.5, K_line, Pmu_line, 3.0)


@pytest.fixture(scope="module")
def plane():
    """A small N = 2 problem, for the dense Jacobian path."""
    g = build_grid(2, 12.0, 12.0, 20, 30)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    return g, K, Pmu, monotone_iterate(0.5, K, Pmu, 3.0).solution.values


class TestTangentMemory:
    def test_tangent_allocates_one_matrix(self, plane):
        _, K, Pmu, u = plane
        fresh = Branch(K, Pmu, 3.0)
        previous = fresh._tangent(u, None)     # its LU stays alive
        _, extra = peak_allocation(fresh._tangent, u,
                                   (previous[1], previous[2]))
        assert extra <= 1.1 * K.kernel.nbytes

    def test_half_line_tangent_holds_a_few_vectors(self, grid_line, K_line,
                                                   Pmu_line):
        fresh = Branch(K_line, Pmu_line, 3.0)
        u = soliton(grid_line.heights, 1.0)
        previous = fresh._tangent(u, None)     # its LU stays alive
        _, extra = peak_allocation(fresh._tangent, u,
                                   (previous[1], previous[2]))
        assert extra <= 16 * 8 * grid_line.n_nodes

    def test_dense_corrector_holds_no_new_matrix(self, plane):
        # each Jacobian after the first is formed at an iterate, and its
        # solver is the operator and one vector: the corrector holds GMRES
        # bases and a few vectors, inside the vectors the budget counts
        g, K, Pmu, u = plane
        fresh = Branch(K, Pmu, 3.0)
        tang = fresh._tangent(u, None)         # the caller's solver
        result, extra = peak_allocation(fresh._correct, u, 0.5, tang, 0.5)
        assert result is not None
        # the caller's solver and one Jacobian per step after the first,
        # at least two, the last of them the converged point's tangent
        assert fresh.factorizations == fresh.corrector_steps >= 3
        assert result[2][0] is not tang[0]
        assert extra <= _budget_vectors() * 8 * g.n_nodes

    def test_dense_tangent_holds_no_matrix(self, plane):
        g, K, Pmu, u = plane
        fresh = Branch(K, Pmu, 3.0)
        (J, du, dk), extra = peak_allocation(fresh._tangent, u, None)
        assert J.K is K and J.e.shape == (g.n_nodes,)
        assert extra <= _budget_vectors() * 8 * g.n_nodes


def _budget_vectors():
    """The length-n vectors the memory budget counts for a dense command
    besides its matrix and kept fields."""
    return operators.HALF_LINE_VECTORS + operators._GMRES_ITERS + 1


class TestDetectFold:
    def test_fold_location_and_state(self, grid_line, branch):
        pt = detect_fold(branch)
        assert pt.kappa == pytest.approx(np.sqrt(2.0), abs=1e-3)
        exact = np.sqrt(2.0) / np.cosh(grid_line.heights)
        assert np.max(np.abs(pt.field.values - exact)) <= 5e-3
        assert pt.lambda_ == pytest.approx(1.0, abs=2e-2)

    def test_failed_correction_returns_the_max_kappa_point(self, branch,
                                                          monkeypatch):
        # one Newton step from the max-kappa point does not reach the fold:
        # hitting the step cap returns that point and its eigenpair
        monkeypatch.setattr(continuation, "_FOLD_REFINE", 1)
        top = branch.points[int(np.argmax(branch.kappas))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = detect_fold(branch)
        assert pt.kappa == top.kappa
        assert pt is top

    def test_singular_tangent_returns_the_max_kappa_point(self, branch,
                                                          monkeypatch):
        # a singular Jacobian at the second Newton step gives non-finite
        # solves, with no warning
        calls = []
        jacobian = continuation.jacobian

        def singular_after_first(*args):
            calls.append(1)
            J = jacobian(*args)
            if len(calls) > 1:
                J = dataclasses.replace(J, off=0.0 * J.off,
                                        diag=0.0 * J.diag)
            return J
        monkeypatch.setattr(continuation, "jacobian", singular_after_first)
        top = branch.points[int(np.argmax(branch.kappas))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = detect_fold(branch)
        assert len(calls) == 2
        assert pt.kappa == top.kappa
        assert pt is top

    def test_underflowed_state_with_p_below_two(self):
        # u^{p-2} is infinite where the state underflows to 0.0 high above
        # the wall; the fold's gradient takes it only where u > 0
        g = build_grid(1, 800.0, 800.0, 1, 2000)
        K = assemble_green(g)
        Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branch = trace_branch(0.2, K, Pmu, 1.5)
            assert np.any(branch.points[-1].field.values == 0.0)
            pt = detect_fold(branch)
        assert pt.kappa > np.max(branch.kappas)
        assert abs(pt.lambda_ - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_fold_kappa_converges_at_second_order(self, p):
        # the continuous fold is kappa*(p) = ((p + 1)/2)^{1/(p-1)}
        exact = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
        errors = []
        for n in (2000, 8000):
            g = build_grid(1, 20.0, 20.0, 1, n)
            K = assemble_green(g)
            Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
            kappa_fold = detect_fold(trace_branch(0.2, K, Pmu, p)).kappa
            errors.append(abs(kappa_fold - exact))
        assert errors[0] <= 3e-6
        assert errors[1] <= 2.0 * errors[0] * (2000 / 8000) ** 2

    @pytest.mark.parametrize("N, nodes, p, mu, secant_fold", [
        (2, (10, 12), 3.0, {"type": "point_mass", "mass": 1.0},
         5.475632554654797),
        (3, (6, 8), 7.0, {"type": "radial_density", "radii": [0.0, 1.0, 2.0],
                          "values": [1.0, 1.0, 0.0]}, 1.5531199496162897)])
    def test_dense_fold_matches_the_secant_refinement(self, monkeypatch, N,
                                                      nodes, p, mu,
                                                      secant_fold):
        # secant_fold: the fold the secant refinement of the tangent's kappa
        # component found (|dkappa| <= 1e-8, six LUs) on these grids
        g = build_grid(N, 12.0, 12.0, *nodes)
        K = assemble_green(g)
        branch = trace_branch(0.2, K, poisson_trace(g, mu), p)
        calls, lu_factor = [], continuation.lu_factor

        def counting_lu_factor(*args):
            calls.append(1)
            return lu_factor(*args)
        monkeypatch.setattr(continuation, "lu_factor", counting_lu_factor)
        kappa_fold = detect_fold(branch).kappa
        assert abs(kappa_fold / secant_fold - 1.0) <= 1e-10
        assert len(calls) <= 5

    def test_requires_a_fold(self, K_line, Pmu_line):
        short = trace_branch(0.2, K_line, Pmu_line, 3.0, step=0.05,
                             max_points=4)
        assert short.fold_index is None
        with pytest.raises(ValueError):
            detect_fold(short)


WARM_CASES = [(300, 20.0, 3.0), (2000, 20.0, 3.0), (2000, 800.0, 3.0),
              (2000, 20.0, 2.0), (2000, 20.0, 5.0)]


def _case_id(case):
    return f"{case[0]}-H{case[1]:g}-p{case[2]:g}"


@pytest.fixture(scope="module", params=WARM_CASES, ids=_case_id)
def warm_branch(request):
    """(K, p, a half-line branch from kappa = 0.2 through the fold, its fold
    point, every eigenpair computed for them in call order as (started
    warm, iterations)); at H = 800 the state underflows to 0.0 high above
    the wall."""
    n, H, p = request.param
    g = build_grid(1, H, H, 1, n)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    calls = []
    spectrum = continuation.linearized_spectrum

    def recording_spectrum(*args, start=None):
        result = spectrum(*args, start=start)
        calls.append((start is not None, result.iterations))
        return result
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "linearized_spectrum", recording_spectrum)
        branch = trace_branch(0.2, K, Pmu, p)
        fold = detect_fold(branch)
    return K, p, branch, fold, calls


class TestWarmEigenpairs:
    """Each branch point's eigenpair is started from the last one's."""

    def test_only_the_first_point_starts_cold(self, warm_branch):
        _, _, branch, _, calls = warm_branch
        assert [warm for warm, _ in calls] == \
            [False] + [True] * len(branch.points)

    def test_lambda_matches_the_cold_oracle(self, warm_branch):
        # the first point's pair is the cold one.  rho is checked at every
        # point and the fold: against the dense ARPACK oracle on the
        # 300-node branch, and at the first, max-kappa and last points and
        # the fold of the 2000-node ones (55 ms a point); at their other
        # points, against a cold call with tol=1e-13 (O(n) a product)
        K, p, branch, fold, _ = warm_branch
        first = branch.points[0]
        assert first.lambda_ == linearized_spectrum(K, first.field, p).lambda_
        points = branch.points + [fold]
        oracle = range(len(points))
        if K.grid.n_nodes > 300:
            oracle = (0, int(np.argmax(branch.kappas)), len(points) - 2,
                      len(points) - 1)
        dense = _assemble_dense(K.grid)
        for i, pt in enumerate(points):
            ref = dense_rho(dense, pt.field, p) if i in oracle else \
                linearized_spectrum(K, pt.field, p, tol=1e-13).rho
            assert abs(pt.eigen.rho / ref - 1.0) <= 1e-12

    def test_fold_point_lambda_is_one_to_round_off(self, warm_branch):
        # J = I - K M is singular at the fold, where lambda = 1.  Newton on
        # the extended fold system stops at the fold, not near it, and
        # J^{-1} b there is the eigenfield to round-off: a start from it
        # passes at the first product
        _, _, _, fold, calls = warm_branch
        assert abs(fold.lambda_ - 1.0) <= 1e-12
        assert calls[-1] == (True, 1)

    @pytest.mark.parametrize("warm_branch", WARM_CASES[1:2], ids=_case_id,
                             indirect=True)
    def test_each_point_owns_its_eigenpair(self, warm_branch):
        # lambda is the point's own 1/rho, and the pair has the bits of a
        # call started from the previous point's (the first point's is cold)
        K, p, branch, fold, _ = warm_branch
        start = None
        for pt in branch.points:
            assert pt.lambda_ == 1.0 / pt.eigen.rho
            ref = linearized_spectrum(K, pt.field, p, start=start)
            assert (pt.eigen.rho, pt.eigen.iterations, pt.eigen.residual) == \
                (ref.rho, ref.iterations, ref.residual)
            assert pt.eigen.eigenfield.values.tobytes() == \
                ref.eigenfield.values.tobytes()
            start = pt.eigen
        assert fold.lambda_ == 1.0 / fold.eigen.rho

    @pytest.mark.parametrize("warm_branch", WARM_CASES[1:2], ids=_case_id,
                             indirect=True)
    def test_fold_border_is_the_max_kappa_points_eigenfield(self, warm_branch,
                                                            monkeypatch):
        # the max-kappa point's eigenfield, moved to a new array, is the
        # border b (the first vector solved for), and the fold keeps its bits
        _, _, branch, fold, _ = warm_branch
        i = int(np.argmax(branch.kappas))
        top = branch.points[i]
        psi = Field(top.field.grid, top.eigen.eigenfield.values.copy())
        points = list(branch.points)
        points[i] = dataclasses.replace(
            top, eigen=dataclasses.replace(top.eigen, eigenfield=psi))
        solved, lu_solve = [], continuation.lu_solve

        def recording_lu_solve(lu, b):
            solved.append(b)
            return lu_solve(lu, b)
        monkeypatch.setattr(continuation, "lu_solve", recording_lu_solve)
        pt = detect_fold(dataclasses.replace(branch, points=points))
        assert solved[0] is psi.values
        assert pt.kappa == fold.kappa
        assert pt.field.values.tobytes() == fold.field.values.tobytes()

    @pytest.mark.parametrize("warm_branch", WARM_CASES[:1], ids=_case_id,
                             indirect=True)
    def test_warm_points_take_few_steps(self, warm_branch):
        # a start from the previous point saves products: each warm point
        # takes fewer than the first point's cold start
        _, _, branch, _, calls = warm_branch
        assert max(steps for _, steps in calls[1:len(branch.points)]) < \
            calls[0][1]


@pytest.mark.parametrize("N, nodes", [(2, (10, 12)), (3, (8, 12))])
def test_dense_branch_lambda_matches_the_dense_oracle(N, nodes):
    # dense branches start each eigenpair from the last one's too
    g = build_grid(N, 12.0, 12.0, *nodes)
    K = assemble_green(g)
    branch = trace_branch(0.2, K, poisson_trace(
        g, {"type": "point_mass", "mass": 1.0}), 3.0)
    fold = detect_fold(branch)
    iterations = [pt.eigen.iterations for pt in branch.points]
    assert max(iterations[1:]) < iterations[0]
    for pt in branch.points + [fold]:
        assert abs(pt.eigen.rho / dense_rho(K, pt.field, 3.0) - 1.0) <= 1e-12


@functools.cache
def point_mass_branch(N, nodes):
    """(K, Pmu, the p = 3 branch from kappa = 0.2) on a dense grid."""
    g = build_grid(N, 12.0, 12.0, *nodes)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    return K, Pmu, trace_branch(0.2, K, Pmu, 3.0)


@pytest.mark.parametrize("N, nodes", [(2, (10, 12)), (3, (8, 12))])
def test_dense_branch_points_solve_the_fixed_point_equation(N, nodes):
    K, Pmu, branch = point_mass_branch(N, nodes)
    assert branch.fold_index is not None
    for pt in branch.points:
        u = pt.field.values
        assert np.max(np.abs(u - psi_map(u, pt.kappa, K, Pmu, 3.0))) <= 1e-11


def test_dense_branch_follows_the_turning_point_loop():
    # past the fold, the N = 2, 10 x 12 branch turns at kappa = 0.536 and
    # again at 1.097 as the peak moves up one node.  A Newton corrector that
    # took the first step's 21-fold residual rise jumped that loop in one
    # step; the chord with one LU per point traced it
    kappas = point_mass_branch(2, (10, 12))[2].kappas
    turns = np.flatnonzero(np.diff(np.sign(np.diff(kappas)))) + 1
    assert turns.size == 3 and turns[0] == np.argmax(kappas)
    np.testing.assert_allclose(kappas[turns[1:]], [0.536, 1.097], atol=1e-3)


@pytest.mark.parametrize("N, shape, bracket", [
    (1, (20.0, 20.0, 1, 2000), (0.5, 2.5)),
    (2, (12.0, 12.0, 20, 30), (0.1, 20.0))],
    ids=["halfline-fold", "plane-kernel"])
def test_fold_lies_in_the_bisection_bracket(N, shape, bracket):
    # on the benchmark workloads' grids the fold of the branch is the
    # grid's threshold: the bisection brackets it
    g = build_grid(N, *shape)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    kappa_fold = detect_fold(trace_branch(0.2, K, Pmu, 3.0)).kappa
    est = estimate_kappa_star(K, Pmu, 3.0, bracket=bracket, tol=1e-2)
    assert est.lower <= kappa_fold <= est.upper


class TestSolutionsAtKappa:
    def test_two_solutions_below_fold(self, grid_line, branch):
        sols = solutions_at_kappa(branch, 1.2)
        assert len(sols) == 2
        lower, upper = sols
        a = np.arccosh(np.sqrt(2.0) / 1.2)
        exact_low = soliton(grid_line.heights, 1.2)
        exact_high = np.sqrt(2.0) / np.cosh(grid_line.heights - a)
        assert np.max(np.abs(lower.values - exact_low)) <= 1e-3
        assert np.max(np.abs(upper.values - exact_high)) <= 1e-3
        assert upper.sup_norm() - lower.sup_norm() >= 0.15

    def test_above_fold_warns_and_returns_nothing(self, branch):
        with pytest.warns(UserWarning, match="above the fold"):
            assert solutions_at_kappa(branch, 1.6) == []
