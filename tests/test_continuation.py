import json

import numpy as np
import pytest
from scipy.linalg import lu_factor

from scalarfield import continuation
from scalarfield.cli import OUTPUT_DIR_ENV, run_command
from scalarfield.continuation import (_Stepper, detect_fold,
                                      solutions_at_kappa, trace_branch)
from scalarfield.discretization import Field, build_grid
from scalarfield.operators import (KernelMatrix, assemble_green,
                                   poisson_trace)
from scalarfield.solver import monotone_iterate, psi_map

from conftest import peak_allocation, soliton


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

    def test_one_factorization_per_point(self, plane, monkeypatch):
        # a dense corrector keeps the chord, so each accepted point's
        # tangent is the only factorization
        _, K, Pmu, _ = plane
        assert not K.refactorize
        calls, lu_factor = [], continuation.lu_factor

        def counting_lu_factor(*args, **kwargs):
            calls.append(1)
            return lu_factor(*args, **kwargs)
        monkeypatch.setattr(continuation, "lu_factor", counting_lu_factor)
        short = trace_branch(0.5, K, Pmu, 3.0, step=0.05, max_points=8)
        assert len(short.points) == 8
        assert len(calls) == len(short.points)
        assert short.stepper.factorizations == len(calls)

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
        assert short.stepper.factorizations == len(factors)

    def test_correction_that_leaves_the_newton_basin_stops_early(
            self, K_line, Pmu_line, branch):
        # a step of 0.4 across the fold: the residual rises after a
        # refactorization, and the corrector gives up long before its
        # iteration budget
        i = int(np.argmax(branch.kappas))
        top, before = branch.points[i], branch.points[i - 1]
        u = top.field.values
        stepper = _Stepper(K_line, Pmu_line, 3.0)
        tang = stepper.tangent(u, (u - before.field.values,
                                   top.kappa - before.kappa))
        assert stepper.correct(u, top.kappa, tang, 0.4) is None
        assert stepper.factorizations > 1
        assert stepper.corrector_steps < 10

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
        stepper = _Stepper(K, Pmu, 3.0)
        previous = stepper.tangent(u, None)     # its LU stays alive
        _, extra = peak_allocation(stepper.tangent, u,
                                   (previous[1], previous[2]))
        assert extra <= 1.1 * K.entries.nbytes

    def test_half_line_tangent_holds_a_few_vectors(self, grid_line, K_line,
                                                   Pmu_line):
        stepper = _Stepper(K_line, Pmu_line, 3.0)
        u = soliton(grid_line.heights, 1.0)
        previous = stepper.tangent(u, None)     # its LU stays alive
        _, extra = peak_allocation(stepper.tangent, u,
                                   (previous[1], previous[2]))
        assert extra <= 16 * 8 * grid_line.n_nodes

    def test_refactorizing_corrector_holds_one_new_matrix(self, plane,
                                                          monkeypatch):
        # refactorize at every iterate after the first: each LU is dropped
        # before the next Jacobian forms, and before the converged point's
        # tangent
        _, K, Pmu, u = plane
        monkeypatch.setattr(KernelMatrix, "refactorize", True)
        stepper = _Stepper(K, Pmu, 3.0)
        tang = stepper.tangent(u, None)         # the caller's LU stays alive
        result, extra = peak_allocation(stepper.correct, u, 0.5, tang, 0.5)
        assert result is not None
        # two refactorizations, then the converged point's tangent
        assert stepper.factorizations >= 4
        assert extra <= 1.1 * K.entries.nbytes

    def test_lu_overwrites_the_fortran_ordered_jacobian(self, plane,
                                                        monkeypatch):
        g, K, Pmu, u = plane
        built, jacobian = [], continuation.jacobian

        def keep(*args):
            built.append(jacobian(*args))
            return built[-1]
        monkeypatch.setattr(continuation, "jacobian", keep)
        lu, _, _ = _Stepper(K, Pmu, 3.0).tangent(u, None)
        assert built[0].flags.f_contiguous
        assert np.shares_memory(lu[0], built[0])
        # the same factors as SciPy's copying LU of a C-ordered Jacobian
        J = np.ascontiguousarray(jacobian(K, Field(g, u), 3.0))
        copied = lu_factor(J, check_finite=False)
        assert lu[0].tobytes("F") == copied[0].tobytes("F")
        assert np.array_equal(lu[1], copied[1])


class TestDetectFold:
    def test_fold_location_and_state(self, grid_line, branch):
        kappa_fold, pt = detect_fold(branch)
        assert kappa_fold == pytest.approx(np.sqrt(2.0), abs=1e-3)
        exact = np.sqrt(2.0) / np.cosh(grid_line.heights)
        assert np.max(np.abs(pt.field.values - exact)) <= 5e-3
        assert pt.lambda_ == pytest.approx(1.0, abs=2e-2)

    def test_failed_correction_returns_the_max_kappa_point(self, branch,
                                                          monkeypatch):
        calls = []

        def fail(self, *args):
            calls.append(1)
            return None
        monkeypatch.setattr(_Stepper, "correct", fail)
        kappa_fold, pt = detect_fold(branch)
        top = branch.points[int(np.argmax(branch.kappas))]
        assert len(calls) == 1
        assert kappa_fold == top.kappa
        assert np.array_equal(pt.field.values, top.field.values)

    def test_singular_tangent_returns_the_max_kappa_point(self, branch,
                                                          monkeypatch):
        calls = []
        tangent = _Stepper.tangent

        def singular_after_first(self, *args):
            calls.append(1)
            if len(calls) > 1:
                raise FloatingPointError("singular Jacobian")
            return tangent(self, *args)
        monkeypatch.setattr(_Stepper, "tangent", singular_after_first)
        kappa_fold, pt = detect_fold(branch)
        top = branch.points[int(np.argmax(branch.kappas))]
        assert len(calls) == 2
        assert kappa_fold == top.kappa
        assert np.array_equal(pt.field.values, top.field.values)

    def test_requires_a_fold(self, K_line, Pmu_line):
        short = trace_branch(0.2, K_line, Pmu_line, 3.0, step=0.05,
                             max_points=4)
        assert short.fold_index is None
        with pytest.raises(ValueError):
            detect_fold(short)


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
