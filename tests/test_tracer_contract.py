"""The benchmark tracer (perfbench/tracer.py) still sees every layer call.

The benchmark's traced pass looks the layer functions up by name, so a
refactor that renames or stops calling one of them breaks that pass; this
test reports it here first.  It runs `solve`, a `branch` through the fold,
`kappa-star` and `eigen` on a 300-node half-line grid under the tracer, in a
fresh process, and checks the same invariants as the benchmark's
self-checks.
"""

import json
import os
import subprocess
import sys

import scalarfield

SRC = os.path.dirname(os.path.dirname(scalarfield.__file__))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

SCRIPT = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from scalarfield.cli import run_command

tracer = Tracer()
tracer.install()
out = {"codes": {}, "spans": {}, "results": {}}
for command in ("solve", "branch", "kappa-star", "eigen"):
    out["codes"][command] = run_command([command, "--config", sys.argv[2]])
    out["spans"][command] = tracer.snapshot()
    with open(os.path.join(os.environ["SCALARFIELD_OUTPUT_DIR"],
                           "summary.json")) as fh:
        out["results"][command] = json.load(fh)["results"]
out["unwrapped"] = tracer.unwrapped_bindings()
print(json.dumps(out))
"""


def test_traced_run_keeps_the_tracer_contract(tmp_path):
    sys.path.insert(0, PERFBENCH)
    try:
        from tracer import Spans
    finally:
        sys.path.remove(PERFBENCH)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"nodes_height": 300}}))
    env = dict(os.environ, PYTHONPATH=SRC,
               SCALARFIELD_OUTPUT_DIR=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, PERFBENCH,
                           str(config)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)

    assert out["codes"] == {"solve": 0, "branch": 0, "kappa-star": 0,
                            "eigen": 0}
    assert out["unwrapped"] == []
    results = out["results"]
    # each snapshot holds the commands run so far
    solve = Spans(out["spans"]["solve"])
    assert solve.count("solver.psi_map") == results["solve"]["iterations"] + 1
    trace = "continuation.trace_branch"
    branch = Spans(out["spans"]["branch"])
    lus = branch.count("continuation.lu_factor", trace)
    assert lus == branch.count("operators.jacobian", trace) > 0
    # branch.csv's lq_alpha_norm column, one weighted norm per point, and
    # none for the fold point
    assert "fold" in results["branch"]
    norm = "discretization.weighted_norm"
    assert (branch.count(norm) - solve.count(norm)
            == results["branch"]["points"] > 0)
    kappa_star = Spans(out["spans"]["kappa-star"])
    assert (kappa_star.work("solver.estimate_kappa_star")
            == results["kappa-star"]["kappa_star"]["evaluations"] > 0)
    # the traced spectrum work is the products eigen reports, in one call
    spectrum = "operators.linearized_spectrum"
    eigen = Spans(out["spans"]["eigen"])
    assert eigen.count(spectrum) - kappa_star.count(spectrum) == 1
    assert (eigen.work(spectrum) - kappa_star.work(spectrum)
            == results["eigen"]["iterations"] > 0)
