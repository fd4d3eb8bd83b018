"""Per-layer tracing of one scalarfield CLI process, from outside `src/`.

`Tracer.install()` wraps the public functions of each layer.  The CLI and
several modules bind names with `from .x import y`, so every module attribute
that refers to a wrapped function is replaced, and `unwrapped_bindings()`
reports any binding that still points at an original.  SciPy's `lu_factor` /
`lu_solve` are wrapped per importing module, which splits LU work between
`solver`, `continuation` and `operators`.

Spans are aggregated in memory by (name, parent name): count, inclusive time,
time covered by child spans, and a work amount (elements, nodes or
iterations, depending on the span).  Nothing is written to disk here.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

MODULES = ("cli", "continuation", "discretization", "exponents", "kernels",
           "operators", "solver", "verify")

# (defining module, function name); the span is named "<module>.<function>"
LAYER_FUNCTIONS = (
    ("cli", "load_config"),
    ("discretization", "build_grid"),
    ("discretization", "weighted_norm"),
    ("kernels", "bessel_k0"),
    ("kernels", "bessel_k1"),
    ("kernels", "fundamental_E"),
    ("kernels", "poisson_P"),
    ("operators", "assemble_green"),
    ("operators", "poisson_trace"),
    ("operators", "linearized_spectrum"),
    ("operators", "jacobian"),
    ("solver", "psi_map"),
    ("solver", "monotone_iterate"),
    ("solver", "newton_refine"),
    ("solver", "estimate_kappa_star"),
    ("continuation", "trace_branch"),
    ("continuation", "detect_fold"),
    ("verify", "verify_kernel_identities"),
    ("verify", "verify_gintest_scaling"),
    ("verify", "verify_glaa"),
    ("verify", "verify_solution_structure"),
)

# third-party names wrapped separately in each module that imports them
PER_MODULE_IMPORTS = (
    ("solver", "lu_factor"), ("solver", "lu_solve"),
    ("continuation", "lu_factor"), ("continuation", "lu_solve"),
    ("operators", "lu_factor"), ("operators", "lu_solve"),
)

ROOT = "<root>"


# work amount per span, from the arguments before the call (elements
# evaluated) or from the result after it (nodes, iterations, points)
WORK_FROM_ARGS = {
    "kernels.bessel_k0": lambda args: int(np.size(args[0])),
    "kernels.bessel_k1": lambda args: int(np.size(args[0])),
    "kernels.fundamental_E": lambda args: int(np.size(args[1])),
}
WORK_FROM_RESULT = {
    "operators.assemble_green": lambda r: int(r.grid.n_nodes) ** 2,
    "operators.poisson_trace": lambda r: int(r.grid.n_nodes),
    "operators.linearized_spectrum": lambda r: int(r.iterations),
    "solver.monotone_iterate": lambda r: int(r.iterations),
    "solver.estimate_kappa_star": lambda r: int(r.evaluations),
    "continuation.trace_branch": lambda r: len(r.points),
    "verify.verify_kernel_identities": lambda r: int(not r.passed),
    "verify.verify_gintest_scaling": lambda r: int(not r.passed),
    "verify.verify_glaa": lambda r: int(not r.passed),
    "verify.verify_solution_structure": lambda r: int(not r.passed),
}


class Tracer:
    def __init__(self):
        # (name, parent) -> [count, time, child_time, work, largest work]
        self.stats = {}
        self.rerun_iters = 0      # monotone iterations in _classify's retries
        self._stack = []          # [name, child_time] of active spans
        self._originals = []      # every function that was wrapped
        self._modules = {}
        self._kappa_star_max_iter = []

    # -- recording -------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else ROOT
        frame = [name, 0.0]
        self._stack.append(frame)
        work = WORK_FROM_ARGS[name](args) if name in WORK_FROM_ARGS else 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
        if name in WORK_FROM_RESULT:
            work = WORK_FROM_RESULT[name](result)
        entry = self.stats.setdefault((name, parent), [0, 0.0, 0.0, 0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += frame[1]
        entry[3] += work
        entry[4] = max(entry[4], work)
        if name == "solver.monotone_iterate" and self._is_rerun(kwargs):
            self.rerun_iters += work
        return result

    def _is_rerun(self, kwargs):
        # estimate_kappa_star hands max_iter to _classify, whose second
        # attempt runs monotone_iterate with 10 * max_iter
        if not self._kappa_star_max_iter:
            return False
        return kwargs.get("max_iter") == 10 * self._kappa_star_max_iter[-1]

    def _wrap(self, name, fn):
        if name == "solver.estimate_kappa_star":
            default = inspect.signature(fn).parameters["max_iter"].default

            def wrapper(*args, **kwargs):
                self._kappa_star_max_iter.append(kwargs.get("max_iter", default))
                try:
                    return self.span(name, fn, *args, **kwargs)
                finally:
                    self._kappa_star_max_iter.pop()
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"scalarfield.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("scalarfield")
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            self._originals.append(original)
        for mod_name, attr in PER_MODULE_IMPORTS:
            mod = mods[mod_name]
            original = getattr(mod, attr)
            self._originals.append(original)
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", original))
        self._modules = mods

    def unwrapped_bindings(self):
        """Module attributes that still refer to an original function."""
        originals = {id(o) for o in self._originals}
        return sorted(f"{mod.__name__}.{attr}"
                      for mod in self._modules.values()
                      for attr, value in vars(mod).items()
                      if id(value) in originals)

    def snapshot(self):
        return [[name, parent, *vals]
                for (name, parent), vals in sorted(self.stats.items())]



class Spans:
    """Span rows [name, parent, count, time, child_time, work, largest work]
    gathered from one or more traced commands."""

    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]

    def _sum(self, column, name, parent=None):
        return sum(r[column] for r in self.rows
                   if r[0] == name and (parent is None or r[1] == parent))

    def count(self, name, parent=None):
        return self._sum(2, name, parent)

    def time(self, name, parent=None):
        return self._sum(3, name, parent)

    def self_time(self, name):
        return self._sum(3, name) - self._sum(4, name)

    def work(self, name, parent=None):
        return self._sum(5, name, parent)

    def largest(self, name):
        return max((r[6] for r in self.rows if r[0] == name), default=0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: Spans, rerun_iters: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from aggregated spans."""
    s = spans
    trace, fold = "continuation.trace_branch", "continuation.detect_fold"
    bessel = ("kernels.bessel_k0", "kernels.bessel_k1")
    verify_failed = sum(s.work(f"verify.{fn}") for fn in (
        "verify_kernel_identities", "verify_gintest_scaling", "verify_glaa",
        "verify_solution_structure"))
    return {
        "cli.load_config_s": (s.time("cli.load_config"), "s"),
        "cli.self_s": (s.self_time("cli.run_command"), "s"),
        "discretization.build_grid_s": (s.time("discretization.build_grid"), "s"),
        "discretization.weighted_norm_calls":
            (s.count("discretization.weighted_norm"), "count"),
        "discretization.weighted_norm_s":
            (s.time("discretization.weighted_norm"), "s"),
        "kernels.bessel_points": (sum(s.work(b) for b in bessel), "count"),
        "kernels.bessel_s": (sum(s.time(b) for b in bessel), "s"),
        "kernels.fundamental_E_points":
            (s.work("kernels.fundamental_E"), "count"),
        "kernels.fundamental_E_s": (s.time("kernels.fundamental_E"), "s"),
        "kernels.poisson_P_calls": (s.count("kernels.poisson_P"), "count"),
        "kernels.poisson_P_s": (s.time("kernels.poisson_P"), "s"),
        "operators.assemble_calls": (s.count("operators.assemble_green"), "count"),
        "operators.assemble_s": (s.time("operators.assemble_green"), "s"),
        "operators.assemble_entries_per_s":
            (_ratio(s.work("operators.assemble_green"),
                    s.time("operators.assemble_green")), "1/s"),
        "operators.matrix_mb":
            (8 * s.largest("operators.assemble_green") / 2 ** 20, "MB"),
        "operators.poisson_trace_nodes":
            (s.work("operators.poisson_trace"), "count"),
        "operators.poisson_trace_s": (s.time("operators.poisson_trace"), "s"),
        "operators.spectrum_calls":
            (s.count("operators.linearized_spectrum"), "count"),
        "operators.spectrum_iters":
            (s.work("operators.linearized_spectrum"), "count"),
        "operators.spectrum_s": (s.time("operators.linearized_spectrum"), "s"),
        "operators.jacobian_calls": (s.count("operators.jacobian"), "count"),
        "operators.jacobian_s": (s.time("operators.jacobian"), "s"),
        "solver.psi_calls": (s.count("solver.psi_map"), "count"),
        "solver.psi_s": (s.time("solver.psi_map"), "s"),
        "solver.monotone_calls": (s.count("solver.monotone_iterate"), "count"),
        "solver.monotone_iters": (s.work("solver.monotone_iterate"), "count"),
        "solver.monotone_s": (s.time("solver.monotone_iterate"), "s"),
        "solver.kappa_star_evals":
            (s.work("solver.estimate_kappa_star"), "count"),
        "solver.rerun_iter_share":
            (_ratio(rerun_iters, s.work("solver.monotone_iterate")), "ratio"),
        "solver.lu_calls": (s.count("solver.lu_factor"), "count"),
        "solver.lu_s": (s.time("solver.lu_factor") + s.time("solver.lu_solve"), "s"),
        "solver.newton_calls": (s.count("solver.newton_refine"), "count"),
        "solver.newton_s": (s.time("solver.newton_refine"), "s"),
        "continuation.trace_s": (s.time(trace), "s"),
        "continuation.points": (s.work(trace), "count"),
        "continuation.lu_calls": (s.count("continuation.lu_factor", trace), "count"),
        "continuation.lu_s": (s.time("continuation.lu_factor", trace)
                              + s.time("continuation.lu_solve", trace), "s"),
        "continuation.lu_per_point":
            (_ratio(s.count("continuation.lu_factor", trace), s.work(trace)),
             "ratio"),
        "continuation.fold_s": (s.time(fold), "s"),
        "continuation.fold_lu_calls":
            (s.count("continuation.lu_factor", fold), "count"),
        "verify.kernel_identities_s":
            (s.time("verify.verify_kernel_identities"), "s"),
        "verify.gintest_s": (s.time("verify.verify_gintest_scaling"), "s"),
        "verify.glaa_s": (s.time("verify.verify_glaa"), "s"),
        "verify.structure_s": (s.time("verify.verify_solution_structure"), "s"),
        "verify.checks_failed": (verify_failed, "count"),
    }
