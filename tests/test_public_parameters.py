"""The public API and its settable values, pinned.

`scalarfield.__all__` is listed below in full, so a public name is added or
removed here, where it is reviewed.  Every defaulted parameter of a public
function is a value a caller may set, counted with `inspect.signature`.  The
list below is the whole set, so a new one is added here, where it is
reviewed, or becomes a module constant.
"""

import inspect

import scalarfield

PUBLIC = [
    "AdmissiblePair", "BracketError", "Branch", "BranchPoint", "CheckReport",
    "CriticalExponents", "DSetParams", "DegenerateLinearizationError",
    "EigenResult", "Field", "Grid", "HalfLineGreen", "IterationLimitError",
    "KappaStarEstimate", "KernelMatrix", "NearFoldError", "SolveResult",
    "apply_green", "assemble_green", "bessel_k0", "bessel_k1", "build_grid",
    "check_admissible", "check_besov_region", "critical_exponents",
    "d_membership", "detect_fold", "energy_exponent_window_ok",
    "estimate_kappa_star", "fundamental_E", "fundamental_dE", "green_G",
    "green_norm_pair_ok", "jacobian", "linearized_spectrum",
    "monotone_iterate", "newton_refine", "point_mass_admissible",
    "poisson_P", "poisson_trace", "psi_map", "solutions_at_kappa",
    "stabilization_index", "trace_branch", "verify_gintest_scaling",
    "verify_glaa", "verify_kernel_identities", "verify_solution_structure",
    "weight_h", "weighted_norm",
]

DEFAULTED = {
    "build_grid": ["grading"],
    "estimate_kappa_star": ["bracket", "tol", "solver_tol", "max_iter",
                            "blowup_cap"],
    "linearized_spectrum": ["tol", "start"],
    "monotone_iterate": ["tol", "max_iter", "blowup_cap"],
    "poisson_P": ["z"],
    "trace_branch": ["step", "max_points"],
    "weighted_norm": ["alpha"],
}


def defaulted_parameters() -> dict[str, list[str]]:
    out = {}
    for name in scalarfield.__all__:
        obj = getattr(scalarfield, name)
        if not inspect.isfunction(obj):
            continue
        params = [p.name for p in inspect.signature(obj).parameters.values()
                  if p.default is not inspect.Parameter.empty]
        if params:
            out[name] = params
    return out


def test_public_defaulted_parameters_are_pinned():
    assert defaulted_parameters() == DEFAULTED
    assert sum(len(params) for params in DEFAULTED.values()) == 15


def test_public_names_are_pinned():
    assert scalarfield.__all__ == PUBLIC
