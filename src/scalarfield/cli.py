"""Command-line front end: config ingestion, dispatch, and file emission.

Every run is reproducible from one JSON config; all defaults are echoed
into summary.json so no numerical choice stays implicit.  Outputs carry no
timestamps, so identical (config, seed) reruns are byte-identical.

Exit codes: 0 success, 1 computational failure (divergence where
convergence was expected, a singular Jacobian, an iteration limit, a
floating-point error, failed checks, IO trouble), 2 config error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys

import numpy as np
import scipy

from . import __version__
from .continuation import detect_fold, trace_branch
from .discretization import build_grid
from .exponents import check_admissible, critical_exponents
from .operators import (IterationLimitError, assemble_green,
                        linearized_spectrum, poisson_trace)
from .solver import (BracketError, NearFoldError, estimate_kappa_star,
                     monotone_iterate)
from .verify import (verify_gintest_scaling, verify_glaa,
                     verify_kernel_identities, verify_solution_structure)

OUTPUT_DIR_ENV = "SCALARFIELD_OUTPUT_DIR"

BRANCH_CSV_HEADER = "index,kappa,sup_norm,lq_alpha_norm,lambda,arclength,fold_flag"

FLOAT_FMT = "%.17g"

DEFAULTS = {
    "problem": {
        "N": 1,
        "p": 3.0,
        "kappa": 1.0,
        "mu_spec": {"type": "point_mass", "mass": 1.0},
    },
    "exponents": {"q": 4.0, "alpha": 0.0},
    "grid": {"R": 20.0, "H": 20.0, "nodes_lateral": 64,
             "nodes_height": 2000, "grading": 2.0},
    "solver": {"tol": 1e-8, "max_iter": 100000, "blowup_cap": 1e6,
               "bracket": [0.05, 3.0], "kappa_star_tol": 1e-2},
    "continuation": {"start_kappa": 0.2, "step": 0.05, "max_points": 200},
    "seed": 0,
    "output_dir": None,
}

_MU_KEYS = {"point_mass": {"type", "mass", "location"},
            "radial_density": {"type", "radii", "values"}}


class ConfigError(Exception):
    pass


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"section '{path or '<root>'}' must be an object")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key == "mu_spec":
            out[key] = _check_mu_spec(value, where)
            continue
        if key not in defaults:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _check_mu_spec(spec, where):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"'{where}' must be an object with a 'type' key")
    kind = spec["type"]
    if kind not in _MU_KEYS:
        raise ConfigError(f"'{where}.type' must be one of {sorted(_MU_KEYS)}")
    extra = set(spec) - _MU_KEYS[kind]
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in '{where}'")
    return copy.deepcopy(spec)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    cfg = _merge(DEFAULTS, raw)
    _validate(cfg)
    return cfg


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _validate(cfg):
    prob, grid, solv, cont = (cfg["problem"], cfg["grid"],
                              cfg["solver"], cfg["continuation"])
    _require(prob["N"] in (1, 2, 3), "problem.N must be 1, 2 or 3")
    _require(prob["p"] > 1, "problem.p must exceed 1")
    _require(prob["kappa"] > 0, "problem.kappa must be positive")
    _require(cfg["exponents"]["q"] > 1, "exponents.q must exceed 1")
    _require(cfg["exponents"]["alpha"] >= 0, "exponents.alpha must be >= 0")
    _require(grid["R"] > 0 and grid["H"] > 0, "grid extents must be positive")
    _require(int(grid["nodes_height"]) >= 2, "grid.nodes_height must be >= 2")
    _require(prob["N"] == 1 or int(grid["nodes_lateral"]) >= 2,
             "grid.nodes_lateral must be >= 2 for N >= 2")
    _require(grid["grading"] >= 1, "grid.grading must be >= 1")
    _require(solv["tol"] > 0 and solv["blowup_cap"] > 0
             and int(solv["max_iter"]) >= 1, "solver settings must be positive")
    br = solv["bracket"]
    _require(isinstance(br, (list, tuple)) and len(br) == 2
             and 0 < br[0] < br[1], "solver.bracket must be [lower, upper] with "
             "0 < lower < upper")
    _require(solv["kappa_star_tol"] > 0, "solver.kappa_star_tol must be positive")
    _require(cont["start_kappa"] > 0 and cont["step"] > 0
             and int(cont["max_points"]) >= 2, "continuation settings invalid")
    _require(isinstance(cfg["seed"], int), "seed must be an integer")


def _output_dir(cfg) -> str:
    out = cfg["output_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _write_summary(out_dir, command, cfg, results):
    payload = {
        "command": command,
        "config": cfg,
        "results": results,
        "seed": cfg["seed"],
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "scalarfield": __version__,
        },
    }
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_solution_csv(out_dir, grid, values, kappa):
    name = f"solution_{kappa:g}.csv"
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        if grid.dimension == 1:
            fh.write("height,value\n")
            for z, v in zip(grid.heights, values):
                fh.write(f"{_fmt(z)},{_fmt(v)}\n")
        else:
            fh.write("radius,height,value\n")
            for r, z, v in zip(grid.radii, grid.heights, values):
                fh.write(f"{_fmt(r)},{_fmt(z)},{_fmt(v)}\n")
    return path


def _build_problem(cfg):
    prob, gc = cfg["problem"], cfg["grid"]
    grid = build_grid(prob["N"], gc["R"], gc["H"], int(gc["nodes_lateral"]),
                      int(gc["nodes_height"]), gc["grading"])
    K = assemble_green(grid)
    Pmu = poisson_trace(grid, prob["mu_spec"])
    return grid, K, Pmu


def _cmd_exponents(args) -> int:
    N, p = args.N, args.p
    crit = critical_exponents(N)
    print(f"N = {N}")
    print(f"p_sobolev = {_fmt(crit.p_sobolev)}")
    print(f"p_joseph_lundgren = {_fmt(crit.p_joseph_lundgren)}")
    admissible = 0
    total = 0
    q_hi = max(4 * p, 3 * N * (p - 1))  # keep the scan inside reach of N/q + alpha < 2/(p-1)
    for q in np.linspace(p + 0.25, q_hi, 16):
        for alpha in np.linspace(0.0, 1.5, 7):
            total += 1
            if check_admissible(N, p, float(q), float(alpha)).valid:
                admissible += 1
    print(f"admissibility scan at p = {p:g}: {admissible}/{total} "
          f"(q, alpha) pairs admissible")
    return 0


def _cmd_solve(cfg) -> int:
    grid, K, Pmu = _build_problem(cfg)
    prob, solv = cfg["problem"], cfg["solver"]
    result = monotone_iterate(prob["kappa"], K, Pmu, prob["p"],
                              tol=solv["tol"], max_iter=int(solv["max_iter"]),
                              blowup_cap=solv["blowup_cap"])
    out_dir = _output_dir(cfg)
    results = {"status": result.status, "iterations": result.iterations,
               "residual_sup": result.residual_sup}
    if result.converged:
        q, alpha = cfg["exponents"]["q"], cfg["exponents"]["alpha"]
        results["sup_norm"] = result.solution.sup_norm()
        results["lq_alpha_norm"] = result.solution.norm(q, alpha)
        _write_solution_csv(out_dir, grid, result.solution.values, prob["kappa"])
    _write_summary(out_dir, "solve", cfg, results)
    if not result.converged:
        print(f"solve: {result.status} at kappa={prob['kappa']:g}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_kappa_star(cfg) -> int:
    _, K, Pmu = _build_problem(cfg)
    prob, solv = cfg["problem"], cfg["solver"]
    try:
        est = estimate_kappa_star(K, Pmu, prob["p"],
                                  bracket=tuple(solv["bracket"]),
                                  tol=solv["kappa_star_tol"],
                                  solver_tol=solv["tol"],
                                  blowup_cap=solv["blowup_cap"])
    except BracketError as exc:
        print(f"kappa-star: {exc}", file=sys.stderr)
        return 1
    results = {"kappa_star": {"lower": est.lower, "upper": est.upper,
                              "width": est.width,
                              "evaluations": est.evaluations}}
    _write_summary(_output_dir(cfg), "kappa-star", cfg, results)
    return 0


def _cmd_eigen(cfg) -> int:
    grid, K, Pmu = _build_problem(cfg)
    prob, solv = cfg["problem"], cfg["solver"]
    result = monotone_iterate(prob["kappa"], K, Pmu, prob["p"],
                              tol=solv["tol"], max_iter=int(solv["max_iter"]),
                              blowup_cap=solv["blowup_cap"])
    if not result.converged:
        print(f"eigen: no minimal solution at kappa={prob['kappa']:g} "
              f"({result.status})", file=sys.stderr)
        return 1
    eig = linearized_spectrum(K, result.solution, prob["p"], tol=solv["tol"])
    out_dir = _output_dir(cfg)
    _write_solution_csv(out_dir, grid, result.solution.values, prob["kappa"])
    results = {"rho": eig.rho, "lambda": eig.lambda_,
               "iterations": eig.iterations, "residual": eig.residual,
               "stable": eig.lambda_ > 1.0}
    _write_summary(out_dir, "eigen", cfg, results)
    return 0


def _cmd_branch(cfg) -> int:
    _, K, Pmu = _build_problem(cfg)
    prob, cont, exps = cfg["problem"], cfg["continuation"], cfg["exponents"]
    branch = trace_branch(cont["start_kappa"], K, Pmu, prob["p"],
                          step=cont["step"], max_points=int(cont["max_points"]),
                          norm_q=exps["q"], norm_alpha=exps["alpha"])
    out_dir = _output_dir(cfg)
    csv_path = os.path.join(out_dir, "branch.csv")
    with open(csv_path, "w") as fh:
        fh.write(BRANCH_CSV_HEADER + "\n")
        for i, pt in enumerate(branch.points):
            fh.write(",".join([str(i), _fmt(pt.kappa), _fmt(pt.sup_norm),
                               _fmt(pt.lq_alpha_norm), _fmt(pt.lambda_),
                               _fmt(pt.arclength),
                               str(int(pt.fold_flag))]) + "\n")
    results = {"points": len(branch.points), "fold_index": branch.fold_index}
    lambdas = [pt.lambda_ for pt in branch.points]
    crossing = next((i for i in range(len(lambdas) - 1)
                     if (lambdas[i] - 1.0) * (lambdas[i + 1] - 1.0) < 0.0), None)
    results["lambda_crossing_index"] = crossing
    if branch.fold_index is not None:
        kappa_fold, fold_pt = detect_fold(branch)
        results["fold"] = {"kappa": kappa_fold, "lambda": fold_pt.lambda_,
                           "sup_norm": fold_pt.sup_norm}
    _write_summary(out_dir, "branch", cfg, results)
    return 0


_GINTEST_TRIPLES = {
    1: [(1, 1.0, -1.5), (1, 1.0, -1.2), (1, 2.0, -1.0)],
    2: [(2, 1.0, -1.5), (2, 2.0, -0.5)],
    3: [(3, 1.0, -1.5)],
}


def _cmd_verify(cfg, suite: str) -> int:
    prob = cfg["problem"]
    N, seed = prob["N"], cfg["seed"]
    reports = []
    if suite in ("kernels", "all"):
        gc = cfg["grid"]
        grid = build_grid(N, gc["R"], gc["H"], int(gc["nodes_lateral"]),
                          int(gc["nodes_height"]), gc["grading"])
        reports.append(verify_kernel_identities(grid, N, seed=seed))
    if suite in ("gintest", "all"):
        for trip in _GINTEST_TRIPLES[N]:
            reports.append(verify_gintest_scaling(*trip))
    if suite in ("glaa", "all"):
        q, alpha = cfg["exponents"]["q"], cfg["exponents"]["alpha"]
        reports.append(verify_glaa(N, q, alpha, q, alpha, seed=seed))
    if suite in ("structure", "all"):
        _, K, Pmu = _build_problem(cfg)
        reports.append(verify_solution_structure([0.2, 0.4, 0.8],
                                                 K, Pmu, prob["p"]))
    payload = [dataclasses.asdict(r) for r in reports]
    out_dir = _output_dir(cfg)
    with open(os.path.join(out_dir, "verify.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    results = {"suite": suite,
               "checks": {r.name: r.passed for r in reports},
               "all_passed": all(r.passed for r in reports)}
    _write_summary(out_dir, "verify", cfg, results)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"statistic={r.statistic:.6g}")
    return 0 if results["all_passed"] else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scalarfield",
        description="Half-space semilinear problem: solve, thresholds, "
                    "branches, and verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="critical exponents and "
                           "admissibility scan")
    p_exp.add_argument("--N", type=int, required=True)
    p_exp.add_argument("--p", type=float, required=True)

    for name, help_text in [
            ("solve", "minimal solution at a fixed kappa"),
            ("kappa-star", "bisect the existence threshold"),
            ("eigen", "stability eigenvalue of the minimal solution"),
            ("branch", "trace the solution branch through the fold"),
            ("verify", "run verification suites")]:
        p_cmd = sub.add_parser(name, help=help_text)
        p_cmd.add_argument("--config", required=True)
        if name == "verify":
            p_cmd.add_argument("--suite", default="all",
                               choices=["kernels", "gintest", "glaa",
                                        "structure", "all"])
    return ap


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "exponents":
        try:
            return _cmd_exponents(args)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "kappa-star":
            return _cmd_kappa_star(cfg)
        if args.command == "eigen":
            return _cmd_eigen(cfg)
        if args.command == "branch":
            return _cmd_branch(cfg)
        return _cmd_verify(cfg, args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (NearFoldError, IterationLimitError, FloatingPointError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
