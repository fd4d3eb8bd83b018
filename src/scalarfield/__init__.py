"""Numerical study of -Laplace(u) + u = u^p on the half space with
measure boundary data: minimal solutions, existence threshold, fold
continuation, and verification of the underlying kernel inequalities.

The public names are resolved on first access (PEP 562), so a process
loads only the modules it uses: a command that never verifies does not
import `verify`."""

import importlib

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "continuation": ("Branch", "BranchPoint", "detect_fold",
                     "solutions_at_kappa", "trace_branch"),
    "discretization": ("Field", "Grid", "build_grid", "weight_h",
                       "weighted_norm"),
    "exponents": ("AdmissiblePair", "CriticalExponents", "DSetParams",
                  "check_admissible", "check_besov_region",
                  "critical_exponents", "d_membership",
                  "energy_exponent_window_ok", "green_norm_pair_ok",
                  "point_mass_admissible", "stabilization_index"),
    "kernels": ("bessel_k0", "bessel_k1", "fundamental_E", "fundamental_dE",
                "green_G", "poisson_P"),
    "operators": ("DegenerateLinearizationError", "EigenResult",
                  "HalfLineGreen", "IterationLimitError", "KernelMatrix",
                  "apply_green", "assemble_green", "jacobian",
                  "linearized_spectrum", "poisson_trace"),
    "solver": ("BracketError", "KappaStarEstimate", "NearFoldError",
               "SolveResult", "estimate_kappa_star", "monotone_iterate",
               "newton_refine", "psi_map"),
    "verify": ("CheckReport", "verify_gintest_scaling", "verify_glaa",
               "verify_kernel_identities", "verify_solution_structure"),
}
_HOMES = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__),
                    name)
    globals()[name] = value
    return value
