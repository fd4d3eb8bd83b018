"""Records that hold arrays compare and hash by identity.

A generated dataclass `__eq__` compares the fields as a tuple, and `==` of
two distinct arrays has no truth value; a generated `__hash__` hashes the
arrays.  So each record below declares `eq=False`: `==` against a distinct
record with equal values is False, not a ValueError, and a record can be a
dict key or a set member.
"""

import copy

import pytest

from scalarfield.continuation import trace_branch
from scalarfield.discretization import Field, build_grid
from scalarfield.operators import (assemble_green, jacobian,
                                   linearized_spectrum, lu_factor,
                                   poisson_trace)
from scalarfield.solver import monotone_iterate
from scalarfield.verify import CheckReport

from conftest import soliton


NAMES = ["Branch", "BranchPoint", "CheckReport", "EigenResult", "Field",
         "Grid", "HalfLineGreen", "KernelMatrix", "KrylovJacobian",
         "SolveResult", "TridiagonalJacobian", "_TridiagonalLU"]


@pytest.fixture(scope="module")
def records():
    """One instance of each array-holding record, by name."""
    g = build_grid(1, 20.0, 20.0, 1, 200)
    K = assemble_green(g)
    Pmu = poisson_trace(g, {"type": "point_mass", "mass": 1.0})
    u = Field(g, soliton(g.heights, 1.0))
    branch = trace_branch(0.2, K, Pmu, 3.0, max_points=3)
    plane = build_grid(2, 4.0, 4.0, 3, 4)
    dense = assemble_green(plane)
    return {
        "Grid": g,
        "Field": u,
        "HalfLineGreen": K,
        "KernelMatrix": dense,
        "KrylovJacobian": jacobian(dense, Field(plane, soliton(
            plane.heights, 1.0)), 3.0),
        "TridiagonalJacobian": jacobian(K, u, 3.0),
        # lu_factor overwrites its Jacobian's diagonal
        "_TridiagonalLU": lu_factor(jacobian(K, u, 3.0)),
        "EigenResult": linearized_spectrum(K, u, 3.0),
        "SolveResult": monotone_iterate(1.0, K, Pmu, 3.0),
        "BranchPoint": branch.points[-1],
        "Branch": branch,
        # its details are a dict, which a generated hash cannot hash
        "CheckReport": CheckReport(name="check", passed=True, statistic=0.0,
                                   details={"error": 0.0}),
    }


@pytest.mark.parametrize("name", NAMES)
def test_records_compare_and_hash_by_identity(records, name):
    a = records[name]
    assert type(a).__name__ == name
    b = copy.deepcopy(a)        # equal values, no array shared with a
    assert (a == b) is False
    assert (a != b) is True
    assert (a == a) is True
    assert {a: 0}[a] == 0
    assert len({a, b}) == 2
