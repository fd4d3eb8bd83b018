import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scalarfield
from scalarfield import cli, continuation, operators
from scalarfield.cli import (BRANCH_CSV_HEADER, OUTPUT_DIR_ENV, ConfigError,
                             load_config, run_command)
from scalarfield.discretization import build_grid
from scalarfield.operators import (IterationLimitError, assemble_green,
                                   lu_solve)
from scalarfield.solver import KappaStarEstimate, NearFoldError, psi_map
from scalarfield.verify import CheckReport

from conftest import peak_allocation

FAST_GRID = {"R": 20.0, "H": 20.0, "nodes_lateral": 1,
             "nodes_height": 400, "grading": 2.0}
# a dense N = 2 problem of n = 10 x 30 = 300 nodes
PLANE = {"problem": {"N": 2, "kappa": 0.5},
         "grid": {"R": 12.0, "H": 12.0, "nodes_lateral": 10,
                  "nodes_height": 30, "grading": 2.0}}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {"grid": dict(FAST_GRID)}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(autouse=True)
def _isolated_output(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))


class TestConfigLoading:
    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": {,}}')
        assert run_command(["solve", "--config", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, solver={"tolerance": 1e-8})
        assert run_command(["solve", "--config", path]) == 2
        with pytest.raises(ConfigError, match="solver.tolerance"):
            load_config(path)

    def test_unknown_mu_spec_key_rejected(self, tmp_path):
        path = write_config(tmp_path, problem={
            "mu_spec": {"type": "point_mass", "mass": 1.0, "weight": 2.0}})
        with pytest.raises(ConfigError, match="weight"):
            load_config(path)

    def test_bad_values_rejected(self, tmp_path):
        for overrides in ({"problem": {"N": 4}},
                          {"problem": {"kappa": -1.0}},
                          {"solver": {"bracket": [2.0, 1.0]}},
                          {"seed": 1.5}):
            path = write_config(tmp_path, **overrides)
            assert run_command(["solve", "--config", path]) == 2

    def test_defaults_filled_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["problem"]["p"] == 3.0
        assert cfg["solver"]["tol"] == 1e-8
        assert cfg["grid"]["nodes_height"] == 400

    @pytest.mark.parametrize("overrides", [
        {"problem": {"p": "3"}},
        {"problem": {"kappa": "1"}},
        {"solver": {"bracket": [0.5, "a"]}},
        {"continuation": {"max_points": None}},
        {"exponents": {"q": [4]}},
        {"grid": {"R": None}},
        {"problem": {"mu_spec": {"type": "point_mass", "mass": None}}},
        {"output_dir": 5}])
    def test_wrongly_typed_values_rejected(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match="number|type"):
            load_config(path)
        assert run_command(["solve", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, code", [
        # a grid that N = 2 accepts, so only the type of N is wrong
        ({"problem": {"N": 2.0},
          "grid": dict(FAST_GRID, nodes_lateral=4, nodes_height=6)}, 2),
        ({"grid": dict(FAST_GRID, nodes_height=400.7)}, 2),
        ({"solver": {"max_iter": 1e5}}, 2),
        ({"continuation": {"max_points": 2.5}}, 2),
        ({"problem": {"p": 3, "kappa": 1}}, 0)],
        ids=["N", "nodes_height", "max_iter", "max_points", "int-for-number"])
    def test_integer_keys_take_integers(self, tmp_path, capsys, overrides,
                                        code):
        path = write_config(tmp_path, **overrides)
        assert run_command(["solve", "--config", path]) == code
        assert ("config error" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("N", [2, 3])
    def test_default_grid_fits_every_dimension(self, tmp_path, N):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": {"N": N, "kappa": 0.5}}))
        assert run_command(["solve", "--config", str(path)]) == 0

    def test_missing_file(self, tmp_path):
        assert run_command(["solve", "--config",
                            str(tmp_path / "nope.json")]) == 2


class TestCommands:
    def test_exponents_prints_critical_values(self, capsys):
        assert run_command(["exponents", "--N", "3", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "p_sobolev" in out and "p_joseph_lundgren" in out

    def test_solve_writes_summary_and_solution(self, tmp_path):
        path = write_config(tmp_path)
        assert run_command(["solve", "--config", path]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "solve"
        assert summary["results"]["status"] == "converged"
        assert summary["results"]["residual_sup"] <= 1e-7
        assert "numpy" in summary["versions"]
        csv = (out / "solution_1.csv").read_text().splitlines()
        assert csv[0] == "height,value"
        assert len(csv) == 401

    def test_solve_divergence_exits_one(self, tmp_path):
        path = write_config(tmp_path, problem={"kappa": 2.0})
        assert run_command(["solve", "--config", path]) == 1
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text())
        assert summary["results"]["status"] == "diverged"

    def test_kappa_star_brackets_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, solver={"bracket": [0.5, 2.5]})
        assert run_command(["kappa-star", "--config", path]) == 0
        assert capsys.readouterr().err == ""   # no probe left to the tail
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text())
        est = summary["results"]["kappa_star"]
        assert est["lower"] < 2.0 ** 0.5 < est["upper"]
        assert est["width"] <= 1e-2

    def test_kappa_star_reports_its_probes(self, tmp_path):
        path = write_config(tmp_path, solver={"bracket": [0.5, 2.5]})
        assert run_command(["kappa-star", "--config", path]) == 0
        out = tmp_path / "out" / "summary.json"
        first = out.read_bytes()
        results = json.loads(first)["results"]
        probes = results["probes"]
        assert len(probes) == results["kappa_star"]["evaluations"]
        assert results["fixed_point_maps"] == sum(maps for *_, maps in probes)
        assert probes[:2] == [[0.5, "converged", 8], [2.5, "diverged", 6]]
        assert run_command(["kappa-star", "--config", path]) == 0
        assert out.read_bytes() == first

    def test_kappa_star_one_step_probe_fails_on_one_line(self, tmp_path):
        # one increment shows no trend: the lower end is not taken to
        # converge, and no NumPy warning reaches stderr
        path = write_config(tmp_path, solver={"bracket": [0.5, 2.5],
                                              "max_iter": 1})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(scalarfield.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "scalarfield.cli", "kappa-star",
             "--config", path], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "kappa-star: lower bracket end kappa=0.5 does not converge"]

    def test_kappa_star_warns_of_tail_probes(self, tmp_path, capsys):
        # on the 1000-node half line a 12-step cap leaves four probes to the
        # increment tail, and the bracket misses kappa* = sqrt(2)
        path = write_config(tmp_path, grid={**FAST_GRID, "nodes_height": 1000},
                            solver={"bracket": [0.5, 2.5], "max_iter": 12})
        assert run_command(["kappa-star", "--config", path]) == 0
        results = json.loads(
            (tmp_path / "out" / "summary.json").read_text())["results"]
        assert results["kappa_star"]["lower"] == 1.4375
        assert results["kappa_star"]["upper"] == 1.4453125
        tails = [kappa for kappa, outcome, _ in results["probes"]
                 if outcome == "tail"]
        assert tails == [1.5, 1.4375, 1.453125, 1.4453125]
        err = capsys.readouterr().err.splitlines()
        assert err == ["kappa-star: probes at kappa = 1.5, 1.4375, 1.453125, "
                       "1.4453125 reached solver.max_iter = 12 and were "
                       "decided by their increment tail; the bracket is not "
                       "certified (raise solver.max_iter)"]

    def test_kappa_star_flags_a_lower_end_without_certificate(self, tmp_path,
                                                              capsys):
        # on 300 nodes the fold is at kappa = 1.4142689586499804; a 1e-7
        # bracket ends on a probe above it that met the increment rule
        path = write_config(tmp_path, grid={**FAST_GRID, "nodes_height": 300},
                            solver={"bracket": [0.5, 2.5],
                                    "kappa_star_tol": 1e-7})
        assert run_command(["kappa-star", "--config", path]) == 0
        results = json.loads(
            (tmp_path / "out" / "summary.json").read_text())["results"]
        lower = results["kappa_star"]["lower"]
        assert lower == 1.414268970489502
        assert [lower, "converged", 10335] in results["probes"]
        assert capsys.readouterr().err.splitlines() == [
            "kappa-star: the lower end kappa = 1.414268970489502 met the "
            "solver.tol increment rule but found no supersolution; the "
            "bracket may lie above kappa* (tighten solver.tol)"]

    def test_summary_names_the_scipy_version(self, tmp_path):
        import scipy
        path = write_config(tmp_path)
        assert run_command(["solve", "--config", path]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["versions"]["scipy"] == scipy.__version__

    def test_eigen_reports_stability(self, tmp_path):
        path = write_config(tmp_path)
        assert run_command(["eigen", "--config", path]) == 0
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text())
        assert summary["results"]["stable"] is True
        assert summary["results"]["lambda"] > 1.0

    def test_branch_csv_and_reruns_identical(self, tmp_path):
        path = write_config(tmp_path,
                            continuation={"start_kappa": 0.3, "step": 0.1,
                                          "max_points": 60})
        assert run_command(["branch", "--config", path]) == 0
        out = tmp_path / "out"
        first = (out / "branch.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == BRANCH_CSV_HEADER
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["fold_index"] is not None
        assert summary["results"]["fold"]["kappa"] == pytest.approx(
            2.0 ** 0.5, abs=5e-3)
        first_summary = (out / "summary.json").read_bytes()
        assert run_command(["branch", "--config", path]) == 0
        assert (out / "branch.csv").read_bytes() == first
        assert (out / "summary.json").read_bytes() == first_summary

    def test_branch_reports_corrector_work(self, tmp_path, monkeypatch):
        # every factorization is one LU and one solve, every corrector step
        # a solve: a tangent is one factorization, and so is a step of the
        # fold's Newton solve, whose other two solves are corrector steps
        calls = {"lu_factor": 0, "lu_solve": 0}
        for name in calls:
            def counted(*args, _fn=getattr(continuation, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(continuation, name, counted)
        fold = {}
        detect_fold = continuation.detect_fold

        def counted_fold(*args):
            before = dict(calls)
            result = detect_fold(*args)
            fold.update({name: calls[name] - before[name] for name in calls})
            return result
        monkeypatch.setattr(continuation, "detect_fold", counted_fold)
        path = write_config(tmp_path,
                            continuation={"start_kappa": 0.3, "step": 0.1,
                                          "max_points": 60})
        assert run_command(["branch", "--config", path]) == 0
        results = json.loads(
            (tmp_path / "out" / "summary.json").read_text())["results"]
        assert results["factorizations"] == calls["lu_factor"]
        assert results["corrector_steps"] == (calls["lu_solve"]
                                              - calls["lu_factor"])
        assert results["factorizations"] > results["points"]
        # the fold's steps are counted too: three solves each, and the last
        # LU's one solve finds the iterate on the fold
        assert fold["lu_factor"] > 1
        assert fold["lu_solve"] == 3 * fold["lu_factor"] - 2

    def test_dense_branch_fold_matches_the_chord_trace(self, tmp_path,
                                                       monkeypatch):
        # a dense corrector takes Newton steps, a Jacobian formed at each
        # iterate after the first; the chord with the accepted point's
        # solver at every step traces other points of the same branch,
        # and both meet the same fold
        path = write_config(tmp_path, problem=PLANE["problem"],
                            grid=PLANE["grid"],
                            continuation={"start_kappa": 0.5, "step": 0.05,
                                          "max_points": 40})
        out = tmp_path / "out"
        assert run_command(["branch", "--config", path]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["fold_index"] is not None
        monkeypatch.setattr(continuation.Branch, "_correct",
                            _chord_with_one_lu)
        assert run_command(["branch", "--config", path]) == 0
        reference = json.loads((out / "summary.json").read_text())["results"]
        assert reference["fold_index"] is not None
        for key in ("kappa", "lambda"):
            assert results["fold"][key] == pytest.approx(
                reference["fold"][key], rel=1e-10)
        assert results["factorizations"] > results["points"]

    def test_verify_structure_suite(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert run_command(["verify", "--config", path,
                            "--suite", "structure"]) == 0
        assert "PASS solution_structure" in capsys.readouterr().out
        verify = json.loads(
            (tmp_path / "out" / "verify.json").read_text())
        assert verify[0]["passed"] is True

    def test_verify_kernels_suite_half_line(self, tmp_path):
        path = write_config(tmp_path)
        assert run_command(["verify", "--config", path,
                            "--suite", "kernels"]) == 0
        verify = json.loads(
            (tmp_path / "out" / "verify.json").read_text())
        assert verify[0]["passed"] is True

    def test_verify_all_suites_half_line(self, tmp_path):
        # kernels, three gintest triples, glaa and structure
        path = write_config(tmp_path, grid=dict(FAST_GRID, nodes_height=300))
        argv = ["verify", "--config", path, "--suite", "all"]
        assert run_command(argv) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        checks = summary["results"]["checks"]
        assert len(checks) == 6 and all(v is True for v in checks.values())
        assert summary["results"]["all_passed"] is True
        assert len(json.loads((out / "verify.json").read_text())) == 6
        first = [(out / name).read_bytes()
                 for name in ("summary.json", "verify.json")]
        assert run_command(argv) == 0
        assert [(out / name).read_bytes()
                for name in ("summary.json", "verify.json")] == first

    def test_verify_reports_do_not_depend_on_the_seed(self, tmp_path):
        # seed is accepted and echoed, but no check draws random numbers
        reports = []
        for seed in (0, 7):
            path = write_config(tmp_path, grid=dict(FAST_GRID, nodes_height=50),
                                seed=seed)
            assert run_command(["verify", "--config", path,
                                "--suite", "glaa"]) == 0
            reports.append((tmp_path / "out" / "verify.json").read_bytes())
        assert reports[0] == reports[1]

    def test_output_dir_config_beats_env(self, tmp_path):
        target = tmp_path / "explicit"
        path = write_config(tmp_path, output_dir=str(target))
        assert run_command(["solve", "--config", path]) == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "out" / "summary.json").exists()


def _chord_with_one_lu(self, u_prev, kappa_prev, tang, ds):
    """The chord corrector that solves with the accepted point's Jacobian
    at every step, for a reference trace."""
    lu, du, dk = tang
    dot = continuation._dot
    u, kappa = u_prev + ds * du, kappa_prev + ds * dk
    for _ in range(continuation._CORRECTOR_ITERS):
        F = u - psi_map(u, kappa, self.K, self.Pmu, self.p)
        c = dot(du, u - u_prev) + dk * (kappa - kappa_prev) - ds
        if (np.max(np.abs(F)) <= continuation._NEWTON_TOL
                and abs(c) <= continuation._NEWTON_TOL):
            try:
                return u, kappa, self._tangent(u, (du, dk))
            except FloatingPointError:
                return None
        with np.errstate(all="ignore"):
            a = lu_solve(lu, F)
        t = dot(du, a) - c
        u = u - a + t * du
        kappa = kappa + t * dk
        if not np.isfinite(kappa) or np.max(np.abs(u)) > 1e8:
            return None
    return None


def _failing_check(*args, **kwargs):
    return CheckReport(name="kernel_identities", passed=False, statistic=1.0)


def _no_grid(*args, **kwargs):
    raise AssertionError("the grid was built before the budget check")


class TestCsvLayouts:
    """_write_csv writes the bytes np.savetxt wrote for each layout."""

    @staticmethod
    def _assert_savetxt_bytes(tmp_path, columns, header, fmt=cli.FLOAT_FMT):
        ours, ref = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
        cli._write_csv(str(ours), columns, header, fmt=fmt)
        np.savetxt(str(ref), np.column_stack(columns), fmt=fmt,
                   delimiter=",", header=header, comments="")
        assert ours.read_bytes() == ref.read_bytes()

    def test_half_line_solution(self, tmp_path):
        g = build_grid(1, 20.0, 20.0, 1, 2000)
        values = np.sqrt(2.0) / np.cosh(g.heights + 0.3)
        values[::7] *= -1e-300
        self._assert_savetxt_bytes(tmp_path, (g.heights, values),
                                   "height,value")

    def test_dense_solution(self, tmp_path):
        g = build_grid(2, 12.0, 12.0, 10, 30)
        values = np.random.default_rng(3).lognormal(0.0, 20.0, g.n_nodes)
        self._assert_savetxt_bytes(tmp_path, (g.radii, g.heights, values),
                                   "radius,height,value")

    def test_branch(self, tmp_path):
        rng = np.random.default_rng(4)
        columns = ([np.arange(40)] + [rng.normal(size=40) for _ in range(5)]
                   + [rng.uniform(size=40) < 0.1])
        self._assert_savetxt_bytes(tmp_path, columns, BRANCH_CSV_HEADER,
                                   fmt=["%d"] + [cli.FLOAT_FMT] * 5 + ["%d"])


class TestExitCodes:
    # a case with config overrides runs with "--config <file>" appended;
    # overrides given as a string are the file's raw text
    @pytest.mark.parametrize("argv, overrides, patch, code, message", [
        (["frobnicate"], None, None, 2, ""),
        # exponents checks its arguments before it prints anything
        (["exponents", "--N", "0", "--p", "3"], None, None, 2,
         "exponents: --N must be a positive integer"),
        (["exponents", "--N", "3", "--p", "inf"], None, None, 2,
         "exponents: --p must be a finite number above 1"),
        (["exponents", "--N", "3", "--p", "nan"], None, None, 2,
         "exponents: --p must be a finite number above 1"),
        (["exponents", "--N", "3", "--p", "0.5"], None, None, 2,
         "exponents: --p must be a finite number above 1"),
        (["exponents", "--N", "3", "--p", "1e308"], None, None, 2,
         "exponents: --N 3 with --p 1e+308 overflows"),
        (["exponents", "--N", str(10 ** 400), "--p", "3"], None, None, 2,
         "overflows the admissibility scan"),
        # 10^9 nodes: refused from the config alone, nothing is allocated
        (["solve"], {"grid": dict(FAST_GRID, nodes_height=10 ** 9)},
         ("scalarfield.cli.build_grid", _no_grid), 2, "memory budget"),
        (["solve"], {"problem": {"mu_spec": {
            "type": "radial_density", "radii": [0.0, 1.0],
            "values": [1.0, 0.0]}}}, None, 2, "config error"),
        (["eigen"], {"problem": {"kappa": 2.0}}, None, 1,
         "eigen: no minimal solution"),
        (["eigen"], {"problem": {"N": 1, "p": 400.0, "kappa": 0.01},
                     "grid": {"nodes_height": 300}}, None, 1,
         "eigen: linearization weight p u^(p-1) vanishes identically"),
        (["kappa-star"], {"solver": {"bracket": [1.6, 2.5]}}, None, 1,
         "kappa-star: lower bracket end"),
        (["solve"], {"output_dir": "taken"}, None, 1, "io error"),
        (["verify", "--suite", "kernels"], {},
         ("scalarfield.verify.verify_kernel_identities", _failing_check), 1,
         ""),
        # every verify suite is checked before the first one runs
        (["verify", "--suite", "kernels"],
         {"grid": dict(FAST_GRID, nodes_height=10 ** 9)},
         ("scalarfield.cli.build_grid", _no_grid), 2, "memory budget"),
        # json.load reads NaN and Infinity; none of them is a valid value
        (["solve"], {"problem": {"mu_spec": {"type": "point_mass",
                                             "mass": float("nan")}}},
         None, 2, "must be finite"),
        (["solve"], {"problem": {"p": float("inf")}}, None, 2,
         "must be finite"),
        (["solve"], {"problem": {"N": 2, "mu_spec": {
            "type": "radial_density", "radii": [0.0, float("nan")],
            "values": [1.0, 0.0]}}, "grid": PLANE["grid"]}, None, 2,
         "must be finite"),
        (["solve"], {"grid": dict(FAST_GRID, R=float("inf"))}, None, 2,
         "must be finite"),
        # json.load reads 1e400 as inf; json.dumps cannot write it
        (["solve"], '{"problem": {"p": 1e400}}', None, 2,
         "'problem.p' must be finite"),
        (["verify", "--suite", "glaa"], '{"exponents": {"q": 1e400}}', None,
         2, "'exponents.q' must be finite"),
        (["solve"], '{"problem": {"kappa": %s}}' % ("9" * 400), None, 2,
         "'problem.kappa' must be finite"),
        # the lowest node height 1.5e-322 is subnormal
        (["branch"], {"grid": dict(FAST_GRID, nodes_height=50, grading=190)},
         None, 2, "grading 190"),
        # squared heights overflow; so do the cell midpoints
        (["solve"], {"grid": dict(FAST_GRID, nodes_height=50, H=1e308)},
         None, 2, "grid height H = 1e+308"),
        # squared radii overflow in the Poisson kernel
        (["solve"], {"problem": {"N": 2},
                     "grid": dict(PLANE["grid"], R=1e300)}, None, 2,
         "grid radius R = 1e+300"),
        # R and H are in bounds, but 2 pi r dr dz overflows
        (["solve"], {"problem": {"N": 3},
                     "grid": {"R": 3.3e153, "H": 3.3e153, "nodes_lateral": 20,
                              "nodes_height": 4, "grading": 2.0}}, None, 2,
         "grid radius R = 3.3e+153"),
        # every test norm underflows: the norm bound measures nothing
        (["verify", "--suite", "glaa"], {"exponents": {"q": 1e308}}, None, 2,
         "exponents q = 1e+308"),
    ], ids=["unknown-command", "exponents-N0", "exponents-p-infinity",
            "exponents-p-nan", "exponents-p-half", "exponents-p-overflow",
            "exponents-N-overflow", "memory-budget", "radial-N1",
            "eigen-above-threshold", "eigen-weight-vanishes",
            "bracket-below-threshold",
            "output-dir-is-file", "verify-check-fails",
            "verify-memory-budget", "mass-nan", "p-infinity", "radius-nan",
            "R-infinity", "p-1e400", "q-1e400-glaa", "kappa-400-digits",
            "grading-subnormal", "H-1e308", "R-1e300-plane",
            "R-3.3e153-ring", "q-1e308-glaa"])
    def test_exit_code_paths(self, tmp_path, monkeypatch, capsys, argv,
                             overrides, patch, code, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        if patch:
            # the defining module: a command imports what only it calls
            monkeypatch.setattr(*patch)
        if isinstance(overrides, str):
            (tmp_path / "raw.json").write_text(overrides)
            argv = argv + ["--config", str(tmp_path / "raw.json")]
        elif overrides is not None:
            argv = argv + ["--config", write_config(tmp_path, **overrides)]
        assert run_command(argv) == code
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err
        if argv[0] == "exponents":
            assert out == "" and "config error" not in err
        elif code == 2 and message:
            assert "config error" in err

    @pytest.mark.parametrize("error", [
        NearFoldError("singular Jacobian"),
        IterationLimitError("no convergence"),
        FloatingPointError("singular Jacobian while forming tangent")])
    def test_numerical_failure_exits_one(self, tmp_path, monkeypatch,
                                         capsys, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(continuation, "trace_branch", fail)
        path = write_config(tmp_path)
        assert run_command(["branch", "--config", path]) == 1
        err = capsys.readouterr().err
        assert str(error) in err and "Traceback" not in err

    def test_budget_counts_the_copies_each_command_holds(self, tmp_path,
                                                         monkeypatch, capsys):
        # one copy of a 300-node matrix and the vectors besides it: room for
        # solve and eigen, not for the fields branch keeps
        n = 300
        monkeypatch.setattr(operators, "MAX_MATRIX_BYTES", 8 * n * (
            n + operators.HALF_LINE_VECTORS + operators._GMRES_ITERS + 1))
        assembled = []

        def spy(grid):
            assembled.append(grid.n_nodes)
            return assemble_green(grid)
        monkeypatch.setattr(cli, "assemble_green", spy)
        path = write_config(tmp_path, **PLANE)
        assert run_command(["solve", "--config", path]) == 0
        assert run_command(["eigen", "--config", path]) == 0
        assert assembled == [n, n]
        os.remove(tmp_path / "out" / "summary.json")
        assert run_command(["branch", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()
        assert assembled == [n, n]

    def test_half_line_budget_counts_vectors_and_kept_fields(
            self, tmp_path, monkeypatch, capsys):
        n = 300
        vectors = operators.HALF_LINE_VECTORS
        # a branch point keeps its field and its eigenfield, as does the
        # fold point: 2 (max_points + 1) fields
        monkeypatch.setattr(operators, "MAX_MATRIX_BYTES",
                            (vectors + 20) * 8 * n)
        path = write_config(tmp_path, grid=dict(FAST_GRID, nodes_height=n),
                            continuation={"max_points": 9})
        assert run_command(["solve", "--config", path]) == 0
        assert run_command(["branch", "--config", path]) == 0
        path = write_config(tmp_path, grid=dict(FAST_GRID, nodes_height=n),
                            continuation={"max_points": 10})
        assert run_command(["branch", "--config", path]) == 2
        assert "memory budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, copies", [
        (["solve"], 1), (["kappa-star"], 1), (["eigen"], 1),
        (["verify", "--suite", "structure"], 1), (["branch"], 1)])
    def test_commands_hold_the_copies_the_budget_counts(self, tmp_path,
                                                        monkeypatch, argv,
                                                        copies):
        # small assembly blocks, so the dense matrices dominate the peak
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 5_000)
        n = 600
        path = write_config(tmp_path, problem=PLANE["problem"],
                            grid=dict(PLANE["grid"], nodes_lateral=20),
                            solver={"bracket": [0.1, 20.0]},
                            continuation={"start_kappa": 0.3, "step": 0.1,
                                          "max_points": 6})
        code, extra = peak_allocation(run_command,
                                      [argv[0], "--config", path] + argv[1:])
        assert code == 0
        assert copies <= extra / (8 * n * n) <= copies + 0.25

    @pytest.mark.parametrize("argv", [
        ["solve"], ["kappa-star"], ["eigen"], ["verify", "--suite", "structure"],
        ["branch"]], ids=lambda argv: argv[0])
    def test_half_line_commands_hold_no_matrix(self, tmp_path, argv):
        n = 20_000
        path = write_config(tmp_path, grid=dict(FAST_GRID, nodes_height=n),
                            solver={"bracket": [0.5, 2.5]},
                            continuation={"start_kappa": 0.3, "step": 0.1,
                                          "max_points": 6})
        code, extra = peak_allocation(run_command,
                                      [argv[0], "--config", path] + argv[1:])
        assert code == 0
        assert extra <= operators.HALF_LINE_VECTORS * 8 * n

    def test_branch_above_threshold_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, continuation={"start_kappa": 2.5})
        assert run_command(["branch", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "no minimal solution" in err and "config error" not in err

    def test_kappa_star_gets_solver_max_iter(self, tmp_path, monkeypatch):
        seen = {}

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return KappaStarEstimate(lower=1.0, upper=2.0,
                                     probes=((1.0, "converged", 1),
                                             (2.0, "diverged", 1)))
        monkeypatch.setattr(cli, "estimate_kappa_star", spy)
        path = write_config(tmp_path, solver={"max_iter": 1234})
        assert run_command(["kappa-star", "--config", path]) == 0
        assert seen["max_iter"] == 1234

    def test_calls_share_one_parser(self, capsys):
        # built by the first call, parsed again by the rest, each with its
        # own exit code
        cli._parser.cache_clear()
        assert run_command(["--help"]) == 0
        assert run_command(["exponents", "--N", "3"]) == 2
        assert run_command(["exponents", "--N", "3", "--p", "5"]) == 0
        assert run_command(["solve", "--help"]) == 0
        assert run_command(["frobnicate"]) == 2
        assert cli._parser.cache_info().misses == 1
        out, err = capsys.readouterr()
        assert "usage: scalarfield" in out and "p_sobolev" in out
        assert "required: --p" in err and "invalid choice" in err

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(scalarfield.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "scalarfield.cli", "exponents",
             "--N", "3", "--p", "5"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "p_sobolev" in proc.stdout
