"""scalarfield benchmark: one closed-loop client running real CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The client runs the workload's commands
one after another, each in a fresh `python3` process with PYTHONPATH=src, and
checks every output.  The seed goes into the config's `seed` key and into
the seeded points of the Bessel micro-measure.

--trace 0: one pass over the commands, then a repeat phase that re-runs the
  passing commands, cheapest first and round robin, until S seconds have
  passed since the pass began (at least one repeat; each repeat must give a
  byte-identical summary.json).  Prints the end-to-end metrics.
--trace 1: one untraced pass, then a separate traced pass that wraps each
  layer's public functions (tracer.py) and a Bessel micro-measure.  Prints
  the end-to-end metrics of the untraced pass, the per-layer metrics and the
  tracing overhead (traced minus untraced total_s).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (E2E_REPORTED with --trace 0, the per-layer metrics with
--trace 1).  An operation is one workload command; it fails on a nonzero
exit code, an uncaught exception or a failed output check, and `correct` is
false when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Spans, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMAND_TIMEOUT_S = 170
# each untraced process repeats its command until this much command time has
# passed, so the sub-second N = 1 commands get several samples
PROCESS_MIN_SECONDS = 1.0

# end-to-end metrics in the JSON result.  The per-command times are printed
# but not reported there: the sub-second N = 1 commands spread by 10-30 %
# between runs on a shared 2-core machine, more than any bound allows.
E2E_REPORTED = ("setup_s", "total_s", "peak_rss_mb")


@dataclass
class Execution:
    record: dict
    wall_s: float
    out_dir: str
    errors: list = field(default_factory=list)   # crash or nonzero exit
    wrong: list = field(default_factory=list)    # failed output checks
    summary_digest: str | None = None

    @property
    def failed(self):
        return bool(self.errors or self.wrong)


class Client:
    def __init__(self, root, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.runs = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.configs = {}
        for cmd in workload.commands:
            path = os.path.join(work_dir, f"{cmd.metric}.json")
            with open(path, "w") as fh:
                json.dump(workload.config_for(cmd, seed), fh, indent=1)
            self.configs[cmd.metric] = path

    def _launch(self, tail):
        self.runs += 1
        out_dir = os.path.join(self.work_dir, f"run{self.runs:03d}")
        os.makedirs(out_dir)
        record_path = os.path.join(out_dir, "record.json")
        env = dict(self.env, SCALARFIELD_OUTPUT_DIR=out_dir)
        with open(os.path.join(out_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(out_dir, "stderr.txt"), "w") as err:
            launch = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), record_path,
                 repr(launch), *tail],
                cwd=out_dir, env=env, stdout=out, stderr=err,
                timeout=COMMAND_TIMEOUT_S)
            wall = time.monotonic() - launch
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"exit_code": None, "exception": None,
                      "worker_exit": proc.returncode}
        return Execution(record=record, wall_s=wall, out_dir=out_dir)

    def run(self, cmd, trace):
        min_seconds = 0.0 if trace else PROCESS_MIN_SECONDS
        ex = self._launch([str(int(trace)), repr(min_seconds), "--", cmd.args[0],
                           "--config", self.configs[cmd.metric], *cmd.args[1:]])
        rec = ex.record
        if "worker_exit" in rec:
            ex.errors.append(f"worker died with code {rec['worker_exit']}")
        elif rec["exception"]:
            ex.errors.append(f"uncaught {rec['exception']}")
        elif rec["exit_code"] != 0:
            ex.errors.append(f"exit code {rec['exit_code']}")
        if not ex.errors:
            try:
                with open(os.path.join(ex.out_dir, "summary.json")) as fh:
                    ex.wrong += cmd.check(json.load(fh), ex.out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ex.wrong.append(f"unreadable output: {type(exc).__name__}: {exc}")
            digests = set(rec["digests"])
            ex.summary_digest = rec["digests"][0]
            if len(digests) > 1:
                ex.wrong.append(f"summary.json differs between the "
                                f"{len(rec['digests'])} runs in one process")
        return ex

    def micro(self):
        return self._launch(["micro", str(self.seed)])

    def run_pass(self, trace):
        return {cmd.metric: [self.run(cmd, trace)]
                for cmd in self.workload.commands}

    def repeat_phase(self, executions, deadline):
        """Re-run the passing commands, cheapest first, round robin, while the
        next one fits before `deadline` (a time.monotonic() value); at least
        one repeat is made."""
        cmds = sorted((c for c in self.workload.commands
                       if not executions[c.metric][0].failed),
                      key=lambda c: executions[c.metric][0].wall_s)
        repeats, ran = 0, True
        while ran:
            ran = False
            for cmd in cmds:
                first = executions[cmd.metric][0]
                if repeats and first.wall_s > deadline - time.monotonic():
                    continue
                ex = self.run(cmd, False)
                if not ex.failed and ex.summary_digest != first.summary_digest:
                    ex.wrong.append("summary.json differs from the first run")
                executions[cmd.metric].append(ex)
                repeats += 1
                ran = True


def end_to_end(workload, executions):
    """End-to-end metrics, name -> (value, unit), from untraced executions."""
    metrics = {}
    every = [ex for runs in executions.values() for ex in runs]
    setups = [ex.record["setup_s"] for ex in every if "setup_s" in ex.record]
    metrics["setup_s"] = (statistics.median(setups) if setups else math.nan, "s")
    total = 0.0
    for cmd in workload.commands:
        times = [t for ex in executions[cmd.metric]
                 for t in ex.record.get("command_s", [])]
        value = statistics.median(times) if times else math.nan
        metrics[f"{cmd.metric}_s"] = (value, "s")
        total += value
    metrics["total_s"] = (total, "s")
    metrics["peak_rss_mb"] = (max(ex.record.get("peak_rss_mb", 0.0)
                                  for ex in every), "MB")
    return metrics


def traced_metrics(client, workload, traced, untraced_total):
    """Per-layer metrics of a traced pass, plus the Bessel micro-measure and
    the tracing overhead; returns (metrics, failed self-checks)."""
    rows = [row for runs in traced.values() for row in
            runs[0].record.get("spans", [])]
    rerun = sum(runs[0].record.get("rerun_iters", 0) for runs in traced.values())
    layers = layer_metrics(Spans(rows), rerun)
    micro = client.micro()
    mpt = micro.record.get("points", 0) / 1e6
    layers["kernels.k01_us_per_mpt"] = (
        micro.record["k01_s"] * 1e6 / mpt if mpt else math.nan, "us/Mpt")
    layers["trace.overhead_s"] = (first_total(traced) - untraced_total, "s")
    checks = self_checks(workload, traced)
    if not micro.record.get("finite"):
        checks.append("micro-measure: Bessel values missing or not finite")
    return layers, checks


def first_total(executions):
    """Sum over commands of the first (cold) run in the first process."""
    return sum(runs[0].record.get("command_s", [0.0])[0]
               for runs in executions.values())


def tally(*passes):
    """(attempted, failed, correct): one operation per workload command,
    failed if any of its executions failed; correct if no output was wrong."""
    metrics = passes[0].keys()
    runs = {m: [ex for p in passes for ex in p[m]] for m in metrics}
    failed = sum(any(ex.failed for ex in r) for r in runs.values())
    correct = not any(ex.wrong for r in runs.values() for ex in r)
    return len(runs), failed, correct


def self_checks(workload, executions):
    """The traced pass must have seen every call it is meant to count."""
    problems = []
    for metric, runs in executions.items():
        ex = runs[0]
        rec = ex.record
        if "spans" not in rec:
            problems.append(f"{metric}: no trace recorded")
            continue
        if rec["unwrapped"]:
            problems.append(f"{metric}: unwrapped bindings {rec['unwrapped']}")
        spans = Spans(rec["spans"])
        if metric != "verify" and spans.count("operators.assemble_green") != 1:
            problems.append(f"{metric}: {spans.count('operators.assemble_green')} "
                            "assemble_green calls, expected 1")
        if metric == "solve" and not ex.failed:
            with open(os.path.join(ex.out_dir, "summary.json")) as fh:
                iterations = json.load(fh)["results"]["iterations"]
            if spans.count("solver.psi_map") != iterations + 1:
                problems.append(f"solve: {spans.count('solver.psi_map')} psi_map "
                                f"calls, expected iterations + 1 = {iterations + 1}")
        if metric == "branch":
            trace = "continuation.trace_branch"
            lus = spans.count("continuation.lu_factor", trace)
            jacs = spans.count("operators.jacobian", trace)
            if lus != jacs:
                problems.append(f"branch: {lus} continuation LUs but {jacs} "
                                "jacobians inside trace_branch")
    return problems


def machine_facts():
    import numpy as np
    import scipy
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": ".".join(map(str, sys.version_info[:3])),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
             "l3_bytes": _getconf("LEVEL3_CACHE_SIZE")}
    for lib, mod in (("numpy", np), ("scipy", scipy)):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts[f"{lib}_blas"] = f"{blas['name']} {blas['version']}"
        facts[f"{lib}_blas_threads"] = _blas_threads(mod)
    facts["blas_thread_env"] = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return facts


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out) if out.isdigit() else None


def _blas_threads(mod):
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                          f"{mod.__name__}.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {unit}")


def _print_failures(executions):
    for metric, runs in executions.items():
        for ex in runs:
            for problem in ex.errors + ex.wrong:
                print(f"  FAIL {metric}: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scalarfield", "cli.py")):
        print("benchmark: no src/scalarfield in the current directory; run it "
              "from the root of a scalarfield checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runs_dir = os.path.join(HERE, ".runs")
    os.makedirs(runs_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs_dir)
    try:
        client = Client(root, workload, args.seed, work_dir)
        start = time.monotonic()
        plain = client.run_pass(trace=False)
        if not args.trace:
            client.repeat_phase(plain, start + args.seconds)
        e2e = end_to_end(workload, plain)
        attempted, failed, correct = tally(plain)
        e2e["error_rate"] = (failed / attempted, "ratio")
        if workload.oracle_metrics:
            e2e.update(workload.oracle_metrics(
                {metric: runs[0].out_dir for metric, runs in plain.items()
                 if not runs[0].failed}))

        print(f"workload {workload.name} seed {args.seed}: {workload.why}")
        print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
        processes = sum(len(r) for r in plain.values())
        _print_metrics(f"end-to-end, tracing off ({processes} command "
                       "processes)", e2e)
        _print_failures(plain)
        result = {name: e2e[name] for name in E2E_REPORTED}
        if args.trace:
            traced = client.run_pass(trace=True)
            layers, checks = traced_metrics(client, workload, traced,
                                            first_total(plain))
            _print_metrics("per-layer, traced pass", layers)
            _print_failures(traced)
            for problem in checks:
                print(f"  SELF-CHECK FAILED: {problem}")
            attempted, failed, correct = tally(plain, traced)
            correct = correct and not checks
            result = layers
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result.items()}}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
