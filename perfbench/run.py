"""Benchmark of the adiabat pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured process is a fresh ``perfbench/worker.py`` with the
program's defaults: ``ADIABAT_THREADS`` and the BLAS thread variables are
removed from its environment.  With ``--trace 0`` the run starts the
worker three times; two of them only set up, so that ``setup_s`` is the
median of three set-ups, and the last also runs the workload for about
S seconds.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("newton-ladder", "monodromy", "identities", "readme-cli")
THREAD_VARS = ("ADIABAT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
               "GOTO_NUM_THREADS")
SETUPS = 3
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"


def spawn(args, workdir, setup_only, deadline):
    """Run one worker to completion; (parsed last line, spawn time)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "adiabat", "__init__.py")):
        sys.stderr.write("run from the root of an adiabat checkout: "
                         "src/adiabat is missing\n")
        return 2
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                rep, spawned = spawn(args, workdir, True, deadline)
                setups.append(rep["ready_at"] - spawned)
        rep, spawned = spawn(args, workdir, False, deadline)
        setups.append(rep["ready_at"] - spawned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"machine": rep["machine"], "rounds": rep["rounds"],
                      "wall_per_round_s": rep["wall_per_round"],
                      "setups_s": setups, "op_times_s": rep["op_times"],
                      "op_errors": rep["op_errors"],
                      "failures": rep["failures"]}))
    if args.trace:
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"rounds": rep["rounds"],
                       "wall_per_round_s": rep["wall_per_round"],
                       "spans": rep["spans"]}, fh, indent=1, sort_keys=True)
        metrics = rep["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": rep["wall_per_round"],
            "op_p50_s": statistics.median(rep["op_times"]),
            "cpu_s": rep["cpu_per_round"],
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                 "cpu_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}
    print(json.dumps({"correct": not rep["failures"],
                      "attempted": rep["attempted"],
                      "failed": rep["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
