"""Command-line front end: config ingestion, dispatch, and file emission.

Every run is reproducible from one JSON config; all defaults are echoed
into summary.json so no numerical choice stays implicit.  Outputs carry no
timestamps, so reruns of identical configs are byte-identical.

Exit codes, all mapped in `run_command`: 0 success; 1 a computational
outcome ("<command>: <message>": no minimal solution, a bracket that does
not straddle kappa*, a singular Jacobian, ...), failed checks or IO trouble;
2 a config error, including a wrongly typed value or a grid whose arrays
would not fit the memory budget, or bad command-line arguments
("exponents: <message>" for an out-of-range --N or --p).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
# continuation, verify and exponents are imported by the one command that
# calls each, so the other commands never load them
from .discretization import build_grid
from .kernels import _scipy_attr
from .operators import (DegenerateLinearizationError, IterationLimitError,
                        assemble_green, check_memory_budget,
                        linearized_spectrum, poisson_trace)
from .solver import (BracketError, NearFoldError, NoMinimalSolutionError,
                     estimate_kappa_star, monotone_iterate)

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

# (nodes_lateral, nodes_height) for N >= 2 where the config leaves them out
_GRID_NODES = {2: (30, 40), 3: (16, 24)}

_MU_KEYS = {"point_mass": {"type", "mass", "location"},
            "radial_density": {"type", "radii", "values"}}


class ConfigError(Exception):
    pass


def _merge(defaults, user, path=""):
    _require(isinstance(user, dict),
             f"section '{path or '<root>'}' must be an object")
    out = {key: value if key in user else copy.deepcopy(value)
           for key, value in defaults.items()}  # set keys are replaced below
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key == "mu_spec":
            out[key] = _check_mu_spec(value, where)
            continue
        _require(key in defaults, f"unknown config key '{where}'")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, where)
            continue
        _require(_typed_like(value, defaults[key], where),
                 f"'{where}' has the wrong type: {value!r}")
        out[key] = value
    return out


def _typed_like(value, default, where) -> bool:
    """An int for an int default, a number for a float one (never a bool),
    a list of numbers, or str/null for a null default.  A number for a float
    default or in a list must be finite, not NaN, Infinity or past range."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list) and all(_typed_like(v, 0.0, where)
                                               for v in value)
    kinds = int if isinstance(default, int) else (int, float)
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    _require(kinds is int or abs(value) <= sys.float_info.max,
             f"'{where}' must be finite")
    return True


def _check_mu_spec(spec, where):
    _require(isinstance(spec, dict) and isinstance(spec.get("type"), str),
             f"'{where}' must be an object with a 'type' key")
    _require(spec["type"] in _MU_KEYS,
             f"'{where}.type' must be one of {sorted(_MU_KEYS)}")
    extra = set(spec) - _MU_KEYS[spec["type"]]
    _require(not extra, f"unknown keys {sorted(extra)} in '{where}'")
    for key, value in spec.items():
        _require(key == "type" or (key == "location" and value is None)
                 or _typed_like(value, 1.0 if key == "mass" else [],
                                f"{where}.{key}"),
                 f"'{where}.{key}' must be a number or a list of numbers")
    return spec


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
    nodes = _GRID_NODES.get(cfg["problem"]["N"], ())
    for key, n in zip(("nodes_lateral", "nodes_height"), nodes):
        if key not in raw.get("grid", {}):
            cfg["grid"][key] = n
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
    _require(grid["nodes_height"] >= 2, "grid.nodes_height must be >= 2")
    _require(prob["N"] == 1 or grid["nodes_lateral"] >= 2,
             "grid.nodes_lateral must be >= 2 for N >= 2")
    _require(grid["grading"] >= 1, "grid.grading must be >= 1")
    _require(solv["tol"] > 0 and solv["blowup_cap"] > 0
             and solv["max_iter"] >= 1, "solver settings must be positive")
    br = solv["bracket"]
    _require(isinstance(br, (list, tuple)) and len(br) == 2
             and 0 < br[0] < br[1], "solver.bracket must be [lower, upper] with "
             "0 < lower < upper")
    _require(solv["kappa_star_tol"] > 0, "solver.kappa_star_tol must be positive")
    _require(cont["start_kappa"] > 0 and cont["step"] > 0
             and cont["max_points"] >= 2, "continuation settings invalid")


def _output_dir(cfg) -> str:
    out = cfg["output_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(out_dir, command, cfg, results):
    payload = {
        "command": command,
        "config": cfg,
        "results": results,
        "seed": cfg["seed"],
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            # scipy/version.py run alone: no command imports scipy itself
            "scipy": _scipy_attr("version", "version", "version"),
            "scalarfield": __version__,
        },
    }
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, columns, header, fmt=FLOAT_FMT):
    """The bytes np.savetxt writes with comments="", formatted by one `%`
    over the whole table instead of one per row; fmt is one format or one
    per column."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    row = ",".join([fmt] * cols if isinstance(fmt, str) else fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(row * rows % tuple(table.ravel().tolist()))


def _write_solution_csv(out_dir, grid, values, kappa):
    path = os.path.join(out_dir, f"solution_{kappa:g}.csv")
    if grid.dimension == 1:
        _write_csv(path, (grid.heights, values), "height,value")
    else:
        _write_csv(path, (grid.radii, grid.heights, values),
                   "radius,height,value")


def _grid(cfg):
    gc = cfg["grid"]
    return build_grid(cfg["problem"]["N"], gc["R"], gc["H"],
                      gc["nodes_lateral"], gc["nodes_height"], gc["grading"])


def _check_budget(cfg, fields=0):
    """Refuse, from the config alone, a grid whose arrays and `fields` kept
    fields exceed the memory budget (`check_memory_budget`)."""
    N, gc = cfg["problem"]["N"], cfg["grid"]
    n = gc["nodes_height"] * (1 if N == 1 else gc["nodes_lateral"])
    check_memory_budget(N, n, fields)


def _build_problem(cfg, fields=0):
    """Grid, Green operator and Pmu; the budget is checked before the grid
    is built."""
    _check_budget(cfg, fields)
    grid = _grid(cfg)
    K = assemble_green(grid)
    Pmu = poisson_trace(grid, cfg["problem"]["mu_spec"])
    return grid, K, Pmu


def _minimal_solution(cfg, K, Pmu):
    prob, solv = cfg["problem"], cfg["solver"]
    return monotone_iterate(prob["kappa"], K, Pmu, prob["p"],
                            tol=solv["tol"], max_iter=solv["max_iter"],
                            blowup_cap=solv["blowup_cap"])


def _cmd_exponents(args) -> int:
    from .exponents import check_admissible, critical_exponents
    N, p = args.N, args.p
    if N < 1:
        return _exponents_usage(f"--N must be a positive integer, not {N}")
    if not (math.isfinite(p) and p > 1.0):
        return _exponents_usage(f"--p must be a finite number above 1, "
                                f"not {p:g}")
    try:
        crit = critical_exponents(N)
        # keep the scan inside reach of N/q + alpha < 2/(p-1)
        q_hi = max(4 * p, 3 * N * (p - 1))
    except OverflowError:       # an N past float range
        q_hi = math.inf
    if not math.isfinite(q_hi):
        return _exponents_usage(f"--N {N} with --p {p:g} overflows the "
                                "admissibility scan")
    scan = [check_admissible(N, p, float(q), float(alpha)).valid
            for q in np.linspace(p + 0.25, q_hi, 16)
            for alpha in np.linspace(0.0, 1.5, 7)]
    print(f"N = {N}")
    print(f"p_sobolev = {FLOAT_FMT % crit.p_sobolev}")
    print(f"p_joseph_lundgren = {FLOAT_FMT % crit.p_joseph_lundgren}")
    print(f"admissibility scan at p = {p:g}: {sum(scan)}/{len(scan)} "
          f"(q, alpha) pairs admissible")
    return 0


def _exponents_usage(message: str) -> int:
    print(f"exponents: {message}", file=sys.stderr)
    return 2


def _cmd_solve(cfg) -> int:
    grid, K, Pmu = _build_problem(cfg)
    prob = cfg["problem"]
    result = _minimal_solution(cfg, K, Pmu)
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
    est = estimate_kappa_star(K, Pmu, prob["p"],
                              bracket=tuple(solv["bracket"]),
                              tol=solv["kappa_star_tol"],
                              solver_tol=solv["tol"],
                              max_iter=solv["max_iter"],
                              blowup_cap=solv["blowup_cap"])
    results = {"kappa_star": {"lower": est.lower, "upper": est.upper,
                              "width": est.width,
                              "evaluations": est.evaluations},
               "fixed_point_maps": est.fixed_point_maps,
               "probes": [list(probe) for probe in est.probes]}
    _write_summary(_output_dir(cfg), "kappa-star", cfg, results)
    tails = [repr(kappa) for kappa, outcome, _ in est.probes if outcome == "tail"]
    if tails:
        # a short increment tail cannot tell slow divergence from slow
        # convergence, so the bracket rests on a guess
        print(f"kappa-star: probes at kappa = {', '.join(tails)} reached "
              f"solver.max_iter = {solv['max_iter']} and were decided by "
              "their increment tail; the bracket is not certified (raise "
              "solver.max_iter)", file=sys.stderr)
    outcomes = {kappa: outcome for kappa, outcome, _ in est.probes}
    if outcomes[est.lower] == "converged":
        # the increment rule also passes slow iterates just above kappa*
        print(f"kappa-star: the lower end kappa = {est.lower!r} met the "
              "solver.tol increment rule but found no supersolution; the "
              "bracket may lie above kappa* (tighten solver.tol)",
              file=sys.stderr)
    return 0


def _cmd_eigen(cfg) -> int:
    grid, K, Pmu = _build_problem(cfg)
    prob, solv = cfg["problem"], cfg["solver"]
    result = _minimal_solution(cfg, K, Pmu)
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
    from .continuation import detect_fold, trace_branch
    cont = cfg["continuation"]
    # the branch points and the fold point keep a field and an eigenfield each
    _, K, Pmu = _build_problem(cfg, fields=2 * (cont["max_points"] + 1))
    prob, exps = cfg["problem"], cfg["exponents"]
    branch = trace_branch(cont["start_kappa"], K, Pmu, prob["p"],
                          step=cont["step"], max_points=cont["max_points"])
    out_dir = _output_dir(cfg)
    pts = branch.points
    lambdas = [pt.lambda_ for pt in pts]
    columns = [[pt.kappa for pt in pts],
               [pt.field.sup_norm() for pt in pts],
               [pt.field.norm(exps["q"], exps["alpha"]) for pt in pts],
               lambdas,
               [pt.arclength for pt in pts],
               [i == branch.fold_index for i in range(len(pts))]]
    _write_csv(os.path.join(out_dir, "branch.csv"),
               [np.arange(len(pts))] + columns, BRANCH_CSV_HEADER,
               fmt=["%d"] + [FLOAT_FMT] * 5 + ["%d"])
    results = {"points": len(pts), "fold_index": branch.fold_index}
    crossing = next((i for i in range(len(lambdas) - 1)
                     if (lambdas[i] - 1.0) * (lambdas[i + 1] - 1.0) < 0.0), None)
    results["lambda_crossing_index"] = crossing
    if branch.fold_index is not None:
        fold = detect_fold(branch)
        results["fold"] = {"kappa": fold.kappa, "lambda": fold.lambda_,
                           "sup_norm": fold.field.sup_norm()}
    # tracing and fold detection together
    results["corrector_steps"] = branch.corrector_steps
    results["factorizations"] = branch.factorizations
    _write_summary(out_dir, "branch", cfg, results)
    return 0


_GINTEST_TRIPLES = {
    1: [(1, 1.0, -1.5), (1, 1.0, -1.2), (1, 2.0, -1.0)],
    2: [(2, 1.0, -1.5), (2, 2.0, -0.5)],
    3: [(3, 1.0, -1.5)],
}


def _cmd_verify(cfg, suite: str) -> int:
    from .verify import (verify_gintest_scaling, verify_glaa,
                         verify_kernel_identities, verify_solution_structure)
    prob = cfg["problem"]
    N = prob["N"]
    # the kernels and structure suites build the config's grid
    _check_budget(cfg)
    reports = []
    if suite in ("kernels", "all"):
        reports.append(verify_kernel_identities(_grid(cfg)))
    if suite in ("gintest", "all"):
        for trip in _GINTEST_TRIPLES[N]:
            reports.append(verify_gintest_scaling(*trip))
    if suite in ("glaa", "all"):
        q, alpha = cfg["exponents"]["q"], cfg["exponents"]["alpha"]
        reports.append(verify_glaa(N, q, alpha, q, alpha))
    if suite in ("structure", "all"):
        _, K, Pmu = _build_problem(cfg)
        reports.append(verify_solution_structure([0.2, 0.4, 0.8],
                                                 K, Pmu, prob["p"]))
    payload = [vars(r) for r in reports]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    `run_command` call in the process."""
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
    try:
        if args.command == "exponents":
            return _cmd_exponents(args)
        cfg = load_config(args.config)
        if args.command == "verify":
            return _cmd_verify(cfg, args.suite)
        return {"solve": _cmd_solve, "kappa-star": _cmd_kappa_star,
                "eigen": _cmd_eigen, "branch": _cmd_branch}[args.command](cfg)
    # first, because BracketError, NoMinimalSolutionError and
    # DegenerateLinearizationError are ValueErrors
    except (BracketError, NoMinimalSolutionError, NearFoldError,
            DegenerateLinearizationError, IterationLimitError,
            FloatingPointError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
