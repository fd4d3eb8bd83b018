"""The benchmark's workloads: configs, command lists and output checks.

Each workload is one researcher at work: its commands run one after
another, each in a fresh process.  A check returns a list of problems (empty
when the output is right).  N = 1 has closed-form oracles; N = 2 is compared
with reference values recorded from the first benchmarked commit, within
the tolerances named below.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)

# relative agreement with the recorded N = 2 reference values
REFERENCE_RTOL = 1e-6
RESIDUAL_MAX = 1e-7


@dataclass(frozen=True)
class Command:
    metric: str            # end-to-end metric stem: solve, eigen, ...
    args: tuple            # CLI command and its arguments besides --config
    overrides: dict        # problem-section keys for this command
    check: object          # check(summary, out_dir) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple
    # oracle_metrics(out_dirs by command metric) -> {name: (value, unit)}
    oracle_metrics: object = None

    def config_for(self, command, seed):
        cfg = {key: dict(value) if isinstance(value, dict) else value
               for key, value in self.config.items()}
        cfg["problem"] = {**cfg["problem"], **command.overrides}
        cfg["seed"] = seed
        return cfg


def _close(name, value, reference, rtol=REFERENCE_RTOL):
    if abs(value - reference) <= rtol * abs(reference):
        return []
    return [f"{name} = {value!r} differs from reference {reference!r} "
            f"by more than {rtol:g} relative"]


def _verify_passed(summary, out_dir):
    res = summary["results"]
    if res.get("all_passed") is not True:
        failed = sorted(k for k, v in res.get("checks", {}).items() if not v)
        return [f"verify checks failed: {failed}"]
    return []


def _converged(res):
    problems = []
    if res["status"] != "converged":
        problems.append(f"solve status {res['status']!r}")
    elif not res["residual_sup"] <= RESIDUAL_MAX:
        problems.append(f"residual_sup {res['residual_sup']:g} > {RESIDUAL_MAX:g}")
    return problems


# -- halfline-fold: closed-form oracles for N = 1, p = 3 ---------------------

SOLUTION_ERR_MAX = 1e-3
HALFLINE_SOLVE_KAPPA = 1.2


def solution_err(out_dir, kappa):
    """max |u - sqrt(2) sech(x + a)| over the solution CSV, sech(a) = kappa/sqrt(2)."""
    a = math.acosh(SQRT2 / kappa)
    with open(os.path.join(out_dir, f"solution_{kappa:g}.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return math.inf
    return max(abs(float(r["value"]) - SQRT2 / math.cosh(float(r["height"]) + a))
               for r in rows)


def _halfline_kappa_star(summary, out_dir):
    est = summary["results"]["kappa_star"]
    problems = []
    if not est["lower"] <= SQRT2 <= est["upper"]:
        problems.append(f"kappa* bracket [{est['lower']}, {est['upper']}] "
                        "misses sqrt(2)")
    if not est["width"] <= 1e-2:
        problems.append(f"kappa* bracket width {est['width']} > 1e-2")
    return problems


def _halfline_solve(summary, out_dir):
    res = summary["results"]
    problems = _converged(res)
    if not problems:
        err = solution_err(out_dir, summary["config"]["problem"]["kappa"])
        if not err <= SOLUTION_ERR_MAX:
            problems.append(f"solution_err {err:g} > {SOLUTION_ERR_MAX:g}")
    return problems


def _halfline_eigen(summary, out_dir):
    lam = summary["results"]["lambda"]
    return [] if lam > 1.05 else [f"lambda {lam} <= 1.05 at kappa = 0.7"]


def _halfline_branch(summary, out_dir):
    fold = summary["results"].get("fold")
    if fold is None:
        return ["branch found no fold"]
    problems = []
    if not abs(fold["kappa"] - SQRT2) <= 1.5e-2:
        problems.append(f"fold kappa {fold['kappa']} not within 1.5e-2 of sqrt(2)")
    if not abs(fold["lambda"] - 1.0) <= 2e-2:
        problems.append(f"fold lambda {fold['lambda']} not within 2e-2 of 1")
    return problems


# -- plane-kernel: reference values ------------------------------------------

def _reference_solve(ref):
    def check(summary, out_dir):
        res = summary["results"]
        problems = _converged(res)
        if not problems:
            problems += _close("sup_norm", res["sup_norm"], ref["sup_norm"])
            problems += _close("lq_alpha_norm", res["lq_alpha_norm"],
                               ref["lq_alpha_norm"])
        return problems
    return check


def _reference_eigen(ref):
    def check(summary, out_dir):
        lam = summary["results"]["lambda"]
        if not lam > 1.0:
            return [f"lambda {lam} <= 1 at kappa = 0.5"]
        return _close("lambda", lam, ref["lambda"])
    return check


def _reference_kappa_star(ref):
    def check(summary, out_dir):
        est = summary["results"]["kappa_star"]
        tol = summary["config"]["solver"]["kappa_star_tol"]
        problems = []
        if not est["width"] <= tol:
            problems.append(f"kappa* bracket width {est['width']} > {tol}")
        if not est["lower"] > 0.5:
            problems.append(f"kappa = 0.5 is not below the bracket "
                            f"[{est['lower']}, {est['upper']}]")
        if not est["lower"] - tol <= ref["kappa_star"] <= est["upper"] + tol:
            problems.append(f"reference kappa* {ref['kappa_star']} outside "
                            f"[{est['lower']}, {est['upper']}] +- {tol}")
        return problems
    return check


# recorded on the 20 x 30 grid below with the hand-built Bessel K0/K1;
# kappa_star is the midpoint of the recorded bracket
PLANE_REFERENCE = {"sup_norm": 0.23076244366393794,
                   "lq_alpha_norm": 0.18679347178337108,
                   "lambda": 89.97100567465112,
                   "kappa_star": 3.1267822265625}

WORKLOADS = {
    "halfline-fold": Workload(
        name="halfline-fold",
        why="N = 1 acceptance grid: dense LU in continuation dominates, kernels "
            "are closed-form exp; the only workload with closed-form oracles",
        config={
            "problem": {"N": 1, "p": 3.0, "kappa": 1.2,
                        "mu_spec": {"type": "point_mass", "mass": 1.0}},
            "grid": {"H": 20.0, "nodes_height": 2000, "grading": 2.0},
            "solver": {"bracket": [0.5, 2.5], "kappa_star_tol": 1e-2},
            "continuation": {"start_kappa": 0.2, "step": 0.05},
        },
        commands=(
            Command("kappa_star", ("kappa-star",), {}, _halfline_kappa_star),
            Command("solve", ("solve",), {"kappa": HALFLINE_SOLVE_KAPPA},
                    _halfline_solve),
            Command("eigen", ("eigen",), {"kappa": 0.7}, _halfline_eigen),
            Command("branch", ("branch",), {}, _halfline_branch),
            Command("verify", ("verify", "--suite", "all"), {}, _verify_passed),
        ),
        oracle_metrics=lambda dirs: {"solution_err": (
            solution_err(dirs["solve"], HALFLINE_SOLVE_KAPPA), "abs")}
        if "solve" in dirs else {}),
    "plane-kernel": Workload(
        name="plane-kernel",
        why="N = 2: Bessel K0/K1 inside assemble_green is most of the work; "
            "one expensive assembly, few matvecs, no continuation",
        config={
            "problem": {"N": 2, "p": 3.0, "kappa": 0.5,
                        "mu_spec": {"type": "point_mass", "mass": 1.0}},
            "grid": {"R": 12.0, "H": 12.0, "nodes_lateral": 20,
                     "nodes_height": 30, "grading": 2.0},
            "solver": {"bracket": [0.1, 20.0], "kappa_star_tol": 1e-2},
        },
        commands=(
            Command("solve", ("solve",), {"kappa": 0.5},
                    _reference_solve(PLANE_REFERENCE)),
            Command("eigen", ("eigen",), {"kappa": 0.5},
                    _reference_eigen(PLANE_REFERENCE)),
            Command("kappa_star", ("kappa-star",), {},
                    _reference_kappa_star(PLANE_REFERENCE)),
            Command("verify", ("verify", "--suite", "kernels"), {},
                    _verify_passed),
        )),
}
