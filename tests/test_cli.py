import json
import os
import subprocess
import sys

import pytest

import scalarfield
from scalarfield import cli
from scalarfield.cli import (BRANCH_CSV_HEADER, OUTPUT_DIR_ENV, ConfigError,
                             load_config, run_command)
from scalarfield.operators import IterationLimitError
from scalarfield.solver import NearFoldError

FAST_GRID = {"R": 20.0, "H": 20.0, "nodes_lateral": 1,
             "nodes_height": 400, "grading": 2.0}


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

    def test_kappa_star_brackets_threshold(self, tmp_path):
        path = write_config(tmp_path, solver={"bracket": [0.5, 2.5]})
        assert run_command(["kappa-star", "--config", path]) == 0
        summary = json.loads(
            (tmp_path / "out" / "summary.json").read_text())
        est = summary["results"]["kappa_star"]
        assert est["lower"] < 2.0 ** 0.5 < est["upper"]
        assert est["width"] <= 1e-2

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

    def test_output_dir_config_beats_env(self, tmp_path):
        target = tmp_path / "explicit"
        path = write_config(tmp_path, output_dir=str(target))
        assert run_command(["solve", "--config", path]) == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "out" / "summary.json").exists()


class TestExitCodes:
    @pytest.mark.parametrize("error", [
        NearFoldError("singular Jacobian"),
        IterationLimitError("no convergence"),
        FloatingPointError("singular Jacobian while forming tangent")])
    def test_numerical_failure_exits_one(self, tmp_path, monkeypatch,
                                         capsys, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "trace_branch", fail)
        path = write_config(tmp_path)
        assert run_command(["branch", "--config", path]) == 1
        err = capsys.readouterr().err
        assert str(error) in err and "Traceback" not in err

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(scalarfield.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "scalarfield.cli", "exponents",
             "--N", "3", "--p", "5"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "p_sobolev" in proc.stdout
