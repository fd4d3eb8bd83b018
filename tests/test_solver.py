import itertools

import numpy as np
import pytest

from scalarfield import solver
from scalarfield.discretization import Field, build_grid
from scalarfield.operators import assemble_green, poisson_trace
from scalarfield.solver import (BracketError, NearFoldError,
                                estimate_kappa_star, monotone_iterate,
                                newton_refine, psi_map)

from conftest import soliton


class TestPsiMap:
    def test_zero_input_gives_boundary_term(self, grid_line, K_line, Pmu_line):
        out = psi_map(np.zeros(grid_line.n_nodes), 0.7, K_line, Pmu_line, 3.0)
        np.testing.assert_array_equal(out, 0.7 * Pmu_line.values)

    def test_monotone_in_ordered_inputs(self, grid_line, K_line, Pmu_line):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.0, 1.0, grid_line.n_nodes)
        w = v + rng.uniform(0.0, 0.5, grid_line.n_nodes)
        lo = psi_map(v, 0.5, K_line, Pmu_line, 3.0)
        hi = psi_map(w, 0.5, K_line, Pmu_line, 3.0)
        assert np.all(hi >= lo)

    def test_negative_part_truncated(self, grid_line, K_line, Pmu_line):
        v = -np.ones(grid_line.n_nodes)
        out = psi_map(v, 0.5, K_line, Pmu_line, 3.0)
        np.testing.assert_array_equal(out, 0.5 * Pmu_line.values)


class TestMonotoneIterate:
    @pytest.mark.parametrize("kappa", [0.1, 1.0])
    def test_matches_closed_form(self, grid_line, K_line, Pmu_line, kappa):
        res = monotone_iterate(kappa, K_line, Pmu_line, 3.0)
        assert res.converged
        exact = soliton(grid_line.heights, kappa)
        assert np.max(np.abs(res.solution.values - exact)) <= 1e-3
        assert res.residual_sup <= 1e-7

    def test_divergence_above_threshold(self, K_line, Pmu_line):
        res = monotone_iterate(2.0, K_line, Pmu_line, 3.0)
        assert res.status == "diverged"
        assert res.solution is None
        assert res.residual_sup == np.inf

    def test_blowup_cap_triggers(self, K_line, Pmu_line):
        res = monotone_iterate(2.0, K_line, Pmu_line, 3.0, blowup_cap=10.0)
        assert res.status == "diverged"

    def test_iterates_nondecreasing(self, K_line, Pmu_line):
        iterates = [Pmu_line.values]
        for _ in range(7):
            iterates.append(psi_map(iterates[-1], 1.0, K_line, Pmu_line, 3.0))
        for lo, hi in zip(iterates[1:], iterates[2:]):
            assert np.all(hi >= lo - 1e-14)

    def test_zero_start_reaches_same_limit(self, grid_line, K_line, Pmu_line):
        a = monotone_iterate(1.0, K_line, Pmu_line, 3.0)
        u = np.zeros(grid_line.n_nodes)
        for _ in range(200):
            u = psi_map(u, 1.0, K_line, Pmu_line, 3.0)
        assert np.max(np.abs(a.solution.values - u)) <= 1e-7

    def test_iteration_limit_keeps_the_last_iterate(self, K_line, Pmu_line):
        res = monotone_iterate(1.0, K_line, Pmu_line, 3.0, max_iter=3)
        u = Pmu_line.values
        for _ in range(3):
            u = psi_map(u, 1.0, K_line, Pmu_line, 3.0)
        assert res.status == "iteration_limit"
        assert res.iterations == 3 and len(res.increments) == 3
        np.testing.assert_array_equal(res.solution.values, u)
        assert res.residual_sup == res.increments[-1]

    @pytest.mark.parametrize("max_iter", [3, 100_000])
    def test_keeps_the_first_ten_iterates(self, K_line, Pmu_line, max_iter):
        # U_0 = Pmu, U_{j+1} = Psi(U_j), bit for bit, min(10, iterations)
        res = monotone_iterate(1.0, K_line, Pmu_line, 3.0, max_iter=max_iter)
        assert len(res.first_iterates) == min(10, res.iterations)
        u = Pmu_line.values
        for kept in res.first_iterates:
            np.testing.assert_array_equal(kept, u)
            u = psi_map(u, 1.0, K_line, Pmu_line, 3.0)

    def test_small_kappa_contracts(self, grid_line, K_line, Pmu_line):
        # far below the threshold the map is a contraction on a small ball
        rng = np.random.default_rng(7)
        kappa = 0.1
        for _ in range(5):
            v = rng.uniform(0.0, 0.2, grid_line.n_nodes)
            w = rng.uniform(0.0, 0.2, grid_line.n_nodes)
            dv = np.max(np.abs(v - w))
            dpsi = np.max(np.abs(psi_map(v, kappa, K_line, Pmu_line, 3.0)
                                 - psi_map(w, kappa, K_line, Pmu_line, 3.0)))
            assert dpsi < dv

    def test_invalid_arguments(self, K_line, Pmu_line):
        with pytest.raises(ValueError):
            monotone_iterate(-0.5, K_line, Pmu_line, 3.0)
        with pytest.raises(ValueError):
            monotone_iterate(0.5, K_line, Pmu_line, 3.0, tol=0.0)
        with pytest.raises(ValueError):
            monotone_iterate(0.5, K_line, Pmu_line, 3.0, max_iter=0)
        with pytest.raises(ValueError):
            monotone_iterate(0.5, K_line, Pmu_line, 3.0, blowup_cap=-1.0)


    def test_refinement_against_the_closed_form(self):
        # the O(n) half-line operator reaches grids where the error of the
        # minimal solution at kappa = 1.2 meets the 1e-8 stopping rule
        errors = {}
        for n in (2000, 8000, 100_000):
            g = build_grid(1, 20.0, 20.0, 1, n)
            res = monotone_iterate(1.2, assemble_green(g), poisson_trace(
                g, {"type": "point_mass", "mass": 1.0}), 3.0)
            assert res.converged
            errors[n] = np.max(np.abs(res.solution.values
                                      - soliton(g.heights, 1.2)))
        assert errors[8000] <= errors[2000] / 8.0
        assert errors[100_000] <= 1e-8


class TestNewtonRefine:
    def test_polishes_iteration_output(self, K_line, Pmu_line):
        seed = monotone_iterate(1.0, K_line, Pmu_line, 3.0, tol=1e-6).solution
        u = newton_refine(seed, 1.0, K_line, Pmu_line, 3.0)
        res = np.max(np.abs(u.values - psi_map(u.values, 1.0, K_line,
                                               Pmu_line, 3.0)))
        assert res <= 1e-10

    def test_fixed_point_is_left_alone(self, K_line, Pmu_line):
        seed = monotone_iterate(0.5, K_line, Pmu_line, 3.0).solution
        u = newton_refine(seed, 0.5, K_line, Pmu_line, 3.0)
        v = newton_refine(u, 0.5, K_line, Pmu_line, 3.0)
        np.testing.assert_allclose(v.values, u.values, atol=1e-11)

    def test_near_fold_failure_is_reported(self, grid_line, K_line, Pmu_line):
        # seed at the fold state but ask for a solution above the threshold
        u0 = Field(grid_line, np.sqrt(2.0) / np.cosh(grid_line.heights))
        with pytest.raises(NearFoldError):
            newton_refine(u0, 1.45, K_line, Pmu_line, 3.0)


class TestKappaStar:
    def test_cubic_threshold(self, K_line, Pmu_line):
        est = estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5))
        assert est.width <= 1e-2
        assert est.lower <= np.sqrt(2.0) <= est.upper
        assert est.evaluations >= 3

    def test_quadratic_threshold(self, K_line, Pmu_line):
        est = estimate_kappa_star(K_line, Pmu_line, 2.0, bracket=(0.5, 2.5))
        assert est.lower <= 1.5 <= est.upper

    def test_doubling_the_mass_halves_the_threshold(self, grid_line, K_line):
        Pmu2 = poisson_trace(grid_line, {"type": "point_mass", "mass": 2.0})
        est = estimate_kappa_star(K_line, Pmu2, 3.0, bracket=(0.3, 1.5))
        assert est.lower <= np.sqrt(2.0) / 2.0 <= est.upper

    # the probe at 1.4140625 starts from the state certified at 1.40625, and
    # a supersolution certificate stops it after 40 iterations, inside
    # either cap (from Pmu it took 256, past the 200 cap)
    @pytest.mark.parametrize("max_iter", [200, 2000])
    def test_one_monotone_run_per_evaluation(self, K_line, Pmu_line,
                                             monkeypatch, max_iter):
        calls = []

        def spy(*args, **kwargs):
            calls.append((kwargs["max_iter"], kwargs["certify"]))
            return iterate(*args, **kwargs)
        iterate = solver._iterate
        monkeypatch.setattr(solver, "_iterate", spy)
        est = estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5),
                                  max_iter=max_iter)
        assert len(calls) == est.evaluations
        assert set(calls) == {(max_iter, True)}
        assert (est.lower, est.upper) == (1.4140625, 1.421875)

    def test_capped_probes_are_classified_by_their_tail(self, K_line,
                                                       Pmu_line):
        # the two probes next to sqrt(2) need 35 and 40 steps: at a cap of
        # 30 the increment tail decides them, in the same direction
        est = estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5),
                                  max_iter=30)
        assert (est.lower, est.upper) == (1.4140625, 1.421875)
        assert [outcome for _, outcome, _ in est.probes[-2:]] == ["tail"] * 2

    def test_one_step_probe_has_no_trend(self, K_line, Pmu_line):
        # a single increment is no contracting tail, and it takes no mean
        # of an empty ratio array (a RuntimeWarning, an error here)
        with pytest.raises(BracketError, match="lower bracket end"):
            estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5),
                                max_iter=1)

    def test_probe_record(self, K_line, Pmu_line, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return psi(*args)
        psi = solver.psi_map
        monkeypatch.setattr(solver, "psi_map", counted)
        est = estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5))
        assert est.fixed_point_maps == len(calls)
        assert len(est.probes) == est.evaluations
        # each probe's maps are the run of psi_map calls at its kappa
        assert [maps for _, _, maps in est.probes] == [
            sum(1 for _ in group) for _, group in itertools.groupby(calls)]
        assert {outcome for _, outcome, _ in est.probes} <= {
            "certified", "converged", "diverged", "tail"}
        kappas = {outcome: [k for k, o, _ in est.probes if o == outcome]
                  for outcome in ("certified", "diverged")}
        assert max(kappas["certified"]) == est.lower
        assert min(kappas["diverged"]) == est.upper

    def test_near_threshold_probe_makes_fewer_maps(self, K_line, Pmu_line):
        # 288 maps at 1.4140625 from Pmu with the candidate widened 1 %
        # above the extrapolated limit (256 iterations, 32 checks), 473 in
        # the whole bisection
        est = estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.5, 2.5))
        maps = {kappa: n for kappa, _, n in est.probes}
        assert maps[1.4140625] < 288
        assert est.fixed_point_maps <= 200

    def test_bisection_stops_when_no_float_lies_between_the_ends(self):
        # at a tolerance below the float spacing near sqrt(2), the midpoint
        # of adjacent floats is one of them: it is not probed again
        g = build_grid(1, 20.0, 20.0, 1, 300)
        Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
        est = estimate_kappa_star(assemble_green(g), Pmu, 3.0,
                                  bracket=(0.5, 2.5), tol=1e-17)
        assert est.lower < est.upper
        kappas = [kappa for kappa, _, _ in est.probes]
        assert len(set(kappas)) == len(kappas)

    def test_bad_brackets(self, K_line, Pmu_line):
        with pytest.raises(BracketError):
            estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(2.0, 3.0))
        with pytest.raises(BracketError):
            estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(0.2, 1.0))
        with pytest.raises(BracketError):
            estimate_kappa_star(K_line, Pmu_line, 3.0, bracket=(-1.0, 2.0))


def _half_line_problem(n):
    g = build_grid(1, 20.0, 20.0, 1, n)
    return g, assemble_green(g), poisson_trace(
        g, {"type": "point_mass", "mass": 1.0})


def _threshold(p):
    """kappa*(p) = ((p + 1)/2)^{1/(p-1)}, the peak of the half-line
    solution w_p(x) = kappa*(p) sech^{2/(p-1)}((p-1) x / 2)."""
    return ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))


POWERS = [1.5, 2.0, 3.0, 5.0, 9.0]


class TestHalfLineClosedFormsInP:
    """The N = 1 oracles for every p: the minimal solution at kappa is the
    shift w_p(x + a) with w_p(a) = kappa, and the threshold is w_p(0)."""

    @pytest.mark.parametrize("p", POWERS)
    def test_minimal_solution_converges_at_second_order(self, p):
        kstar = _threshold(p)
        kappa = 0.6 * kstar
        a = (2.0 / (p - 1.0)) * np.arccosh((kstar / kappa)
                                           ** ((p - 1.0) / 2.0))
        errors = []
        for n in (2000, 8000):
            g, K, Pmu = _half_line_problem(n)
            res = monotone_iterate(kappa, K, Pmu, p, tol=1e-12)
            assert res.converged
            exact = kstar / np.cosh((p - 1.0) * (g.heights + a) / 2.0) \
                ** (2.0 / (p - 1.0))
            errors.append(np.max(np.abs(res.solution.values - exact)))
        # 6.6e-7 at p = 1.5 down to 2.1e-9 at p = 9 on 2000 nodes
        assert errors[0] <= 1e-6
        assert errors[1] <= 2.0 * errors[0] * (2000 / 8000) ** 2

    @pytest.mark.parametrize("p", POWERS)
    def test_threshold_lies_in_the_bisection_bracket(self, p):
        kstar = _threshold(p)
        _, K, Pmu = _half_line_problem(2000)
        est = estimate_kappa_star(K, Pmu, p, bracket=(0.5 * kstar,
                                                      2.0 * kstar), tol=1e-2)
        assert est.lower <= kstar <= est.upper


def _reference_bisection(K, Pmu, p, bracket, tol):
    """kappa* bisection without certificates: a full monotone run per
    probe, and the increment-tail rule at the cap.  Returns the bracket and
    the monotone result of each probed kappa."""
    runs = {}

    def converges(kappa):
        res = runs[kappa] = monotone_iterate(kappa, K, Pmu, p)
        if res.status != "iteration_limit":
            return res.converged
        tail = res.increments[-10:]
        return float(np.mean(tail[1:] / tail[:-1])) < 1.0
    lo, hi = bracket
    assert converges(lo) and not converges(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return (lo, hi), runs


class TestSupersolutionCertificate:
    @pytest.fixture(scope="class")
    def problems(self):
        line = build_grid(1, 20.0, 20.0, 1, 300)
        plane = build_grid(2, 12.0, 12.0, 10, 15)
        mass = {"type": "point_mass", "mass": 1.0}
        return [(assemble_green(g), poisson_trace(g, mass), p, bracket)
                for g, bracket in ((line, (0.5, 2.5)), (plane, (0.1, 20.0)))
                for p in (2.0, 3.0, 5.0)]

    def test_brackets_match_full_runs(self, problems, monkeypatch):
        # the certificate only stops a probe early: the bisection brackets
        # are those of full monotone runs, and every certified kappa also
        # converges under monotone_iterate
        certified = []

        def spy(kappa, *args, **kwargs):
            out = iterate(kappa, *args, **kwargs)
            if out[0] == "certified":
                certified.append(kappa)
            return out
        iterate = solver._iterate
        monkeypatch.setattr(solver, "_iterate", spy)
        for K, Pmu, p, bracket in problems:
            certified.clear()
            est = estimate_kappa_star(K, Pmu, p, bracket=bracket, tol=1e-3)
            reference, runs = _reference_bisection(K, Pmu, p, bracket, 1e-3)
            assert (est.lower, est.upper) == reference
            assert certified
            for kappa in certified:
                assert runs[kappa].converged

    def test_warm_starts_lie_below_the_minimal_solution(self, problems,
                                                        monkeypatch):
        # a probe may start from the last iterate of a converging probe at a
        # smaller kappa' >= 1, never from one below 1; that start lies at or
        # below the minimal solution that monotone_iterate reaches from Pmu
        runs = []

        def spy(kappa, *args, start=None, **kwargs):
            out = iterate(kappa, *args, start=start, **kwargs)
            runs.append((kappa, start, out))
            return out
        iterate = solver._iterate
        monkeypatch.setattr(solver, "_iterate", spy)
        warm = 0
        for K, Pmu, p, bracket in problems:
            runs.clear()
            estimate_kappa_star(K, Pmu, p, bracket=bracket, tol=1e-3)
            for kappa, start, _ in runs:
                if start is None:
                    continue
                warm += 1
                source = [(k, out[0]) for k, _, out in runs
                          if out[1] is start]
                assert len(source) == 1
                k_source, status = source[0]
                assert 1.0 <= k_source < kappa and status != "diverged"
                cold = monotone_iterate(kappa, K, Pmu, p)
                if cold.converged:
                    assert np.all(start <= cold.solution.values)
        assert warm

    def test_no_certificate_above_the_threshold(self):
        # kappa = 1.5 > sqrt(2): no step of the diverging run passes the
        # check, tried at every step instead of every _CERTIFY_EVERY
        g = build_grid(1, 20.0, 20.0, 1, 300)
        K = assemble_green(g)
        Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
        u = Pmu.values
        increments = [np.inf]
        while np.max(u) <= 1e6:
            nxt = psi_map(u, 1.5, K, Pmu, 3.0)
            increments.append(float(np.max(np.abs(nxt - u))))
            assert not solver._is_supersolution_step(
                u, nxt, nxt - u, increments, 1.5, K, Pmu, 3.0)
            u = nxt
        status = solver._iterate(1.5, K, Pmu, 3.0, tol=1e-8, max_iter=100_000,
                                 blowup_cap=1e6, certify=True)[0]
        assert status == "diverged"
