"""Run one scalarfield CLI command in this fresh process and record it.

    python3 perfbench/worker.py RECORD LAUNCH TRACE MIN_SECONDS -- CLI-ARGS...
    python3 perfbench/worker.py RECORD LAUNCH micro SEED

RECORD is the JSON file written at the end.  LAUNCH is the client's
`time.monotonic()` just before it started this process, so `setup_s` runs
from process launch until `scalarfield.cli` is imported.  TRACE is 0 or 1;
with 1 the layer functions are wrapped (see tracer.py) before the command
runs.  The command is run again in this process until MIN_SECONDS of command
time have passed (the first run is cold, the rest warm), and the
summary.json digest of every run is recorded.  `micro` times `bessel_k0` +
`bessel_k1` on 10^6 seeded points instead.  `scalarfield` is found through
PYTHONPATH, which the client sets to `src`; outputs go to the directory named
by SCALARFIELD_OUTPUT_DIR.
"""

import hashlib
import json
import os
import resource
import sys
import time

MICRO_POINTS = 1_000_000
MAX_RUNS = 25


def _summary_digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _command(argv, launch, trace, min_seconds):
    from scalarfield.cli import run_command
    record = {"setup_s": time.monotonic() - launch,
              "exit_code": None, "exception": None,
              "command_s": [], "digests": []}
    tracer = None
    call = run_command
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        call = lambda args: tracer.span("cli.run_command", run_command, args)
    summary = os.path.join(os.environ["SCALARFIELD_OUTPUT_DIR"], "summary.json")
    while True:
        if os.path.exists(summary):
            os.remove(summary)
        start = time.perf_counter()
        try:
            record["exit_code"] = call(argv)
        except Exception as exc:  # counted as a failed operation by the client
            record["exception"] = f"{type(exc).__name__}: {exc}"
        record["command_s"].append(time.perf_counter() - start)
        record["digests"].append(_summary_digest(summary))
        if (record["exception"] or record["exit_code"] != 0
                or sum(record["command_s"]) >= min_seconds
                or len(record["command_s"]) >= MAX_RUNS):
            break
    if tracer is not None:
        record["spans"] = tracer.snapshot()
        record["rerun_iters"] = tracer.rerun_iters
        record["unwrapped"] = tracer.unwrapped_bindings()
    return record


def _micro(seed):
    import numpy as np
    from scalarfield.kernels import bessel_k0, bessel_k1
    rng = np.random.default_rng(seed)
    # log-uniform over the distances a Green matrix meets, both K0/K1 branches
    x = np.exp(rng.uniform(np.log(1e-3), np.log(40.0), MICRO_POINTS))
    start = time.perf_counter()
    k0 = bessel_k0(x)
    k1 = bessel_k1(x)
    elapsed = time.perf_counter() - start
    finite = bool(np.all(np.isfinite(k0)) and np.all(np.isfinite(k1)))
    return {"k01_s": elapsed, "points": MICRO_POINTS, "finite": finite,
            "exit_code": 0 if finite else 1, "exception": None}


def main():
    record_path = sys.argv[1]
    if sys.argv[3] == "micro":
        record = _micro(int(sys.argv[4]))
    else:
        record = _command(sys.argv[6:], float(sys.argv[2]), sys.argv[3] == "1",
                          float(sys.argv[4]))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
