"""The settable values of the public API, pinned.

Every defaulted parameter of a public `scalarfield` function is a value a
caller may set, counted with `inspect.signature`.  The list below is the
whole set, so a new one is added here, where it is reviewed, or becomes a
module constant.
"""

import inspect

import scalarfield

DEFAULTED = {
    "build_grid": ["grading"],
    "estimate_kappa_star": ["bracket", "tol", "solver_tol", "max_iter",
                            "blowup_cap"],
    "linearized_spectrum": ["tol"],
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
    assert sum(len(params) for params in DEFAULTED.values()) == 14
