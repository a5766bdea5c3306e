"""One benchmark process: set up a workload, run its rounds, report JSON.

``run.py`` starts this script as a fresh process with the program's
default environment and reads the last line of its standard output.
Run from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only] --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import adiabat  # noqa: E402
from adiabat import (braid, cli, monopole, topology, transport,  # noqa: E402
                     vortexfield, zlattice)

import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI_COMMANDS = ("count", "fix", "braid-make", "braid-census", "vortex",
                "transport", "newton", "check-identities")


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars_set": sorted(v for v in THREAD_VARS if v in os.environ),
    }


# -- tracing ---------------------------------------------------------------

def install_tracer():
    tr = Tracer()

    def kw_steps(t, result):
        t.count("vortexfield.kw_newton_steps", len(result[1]))

    def trace_steps(t, result):
        t.count("transport.steps", len(result.states) - 1)

    def newton_steps(t, result):
        t.count("monopole.newton_steps",
                sum(1 for e in result[1] if e["increment_1_2_eps"] > 0.0))

    tr.span(vortexfield, "vortex_solve", on_result=kw_steps)
    tr.span(transport, "numeric_monodromy")
    tr.span(transport, "transport", on_result=trace_steps)
    tr.span(transport, "solve_psi")
    tr.counter(transport, "_rk4_step", "transport.rk4_steps")
    tr.counter(transport, "apply_psi_operator", "transport.psi_matvecs")
    tr.span(monopole, "assemble_adiabatic")
    tr.span(monopole, "newton_refine", on_result=newton_steps)
    tr.span(monopole, "linearize_apply")
    tr.span(monopole, "sw_map")
    tr.span(monopole, "weighted_norm")
    tr.span(monopole, "identity_check")
    tr.span(monopole, "random_tangent")
    tr.span(braid, "braid_construct")
    tr.span(braid, "braid_census")
    tr.span(topology, "jacobian_fixed_points")
    tr.span(zlattice, "cokernel")
    tr.span(cli, "main")
    for name in CLI_COMMANDS:
        tr.span(cli, "cmd_" + name.replace("-", "_"), name=f"cli.{name}")
    return tr


def layer_metrics(tr, rounds):
    """Per-round per-layer metrics from a tracer's spans and counters."""
    spans = tr.summary()
    counts = tr.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / rounds

    def self_s(name):
        return spans.get(name, {}).get("self", 0.0) / rounds

    def count(name):
        return counts.get(name, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("vortexfield.vortex_solve", "transport.transport",
                 "transport.solve_psi", "monopole.linearize_apply",
                 "monopole.sw_map", "monopole.random_tangent"):
        put(name + ".calls", calls(name), "count")
    for name in ("vortexfield.vortex_solve", "transport.numeric_monodromy",
                 "transport.transport", "transport.solve_psi",
                 "monopole.newton_refine", "monopole.linearize_apply",
                 "monopole.sw_map", "monopole.weighted_norm",
                 "monopole.assemble_adiabatic", "monopole.identity_check",
                 "monopole.random_tangent", "braid.braid_construct",
                 "braid.braid_census", "topology.jacobian_fixed_points",
                 "zlattice.cokernel"):
        put(name + ".s", self_s(name), "s")
    steps = count("transport.steps")
    stages = 4 * count("transport.rk4_steps")
    put("vortexfield.kw_newton_steps", count("vortexfield.kw_newton_steps"),
        "count")
    put("transport.steps", steps, "count")
    put("transport.rk4_stages", stages, "count")
    # a halving replaces one step attempt by a failed one and two halves
    put("transport.step_halvings", (stages / 4 - steps) / 2, "count")
    put("transport.psi_matvecs", count("transport.psi_matvecs"), "count")
    put("transport.psi_matvecs_per_solve",
        ratio(count("transport.psi_matvecs"), calls("transport.solve_psi")),
        "matvec/solve")
    newton = count("monopole.newton_steps")
    put("monopole.newton_steps", newton, "count")
    put("monopole.matvecs_per_newton_step",
        ratio(calls("monopole.linearize_apply"), newton), "matvec/step")
    for name in CLI_COMMANDS:
        rec = spans.get(f"cli.{name}", {})
        put(f"cli.{name}.s", rec.get("total", 0.0) / rounds, "s")
    put("cli.self.s", sum(self_s(f"cli.{name}") for name in CLI_COMMANDS)
        + self_s("cli.main"), "s")
    return out, spans


# -- main ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "adiabat")
    if os.path.dirname(os.path.abspath(adiabat.__file__)) != src:
        raise SystemExit(f"adiabat imported from {adiabat.__file__}, "
                         f"not from {src}")
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warm_up()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tr = install_tracer() if args.trace else None
    ops = workloads.Ops()
    failures = []
    round_walls = []
    wall = cpu = 0.0
    first = time.monotonic()
    while True:
        if tr:
            tr.enabled = True
        w0, c0 = time.perf_counter(), time.process_time()
        out = wl.round(ops)
        w1, c1 = time.perf_counter(), time.process_time()
        if tr:
            tr.enabled = False
        wall += w1 - w0
        cpu += c1 - c0
        round_walls.append(w1 - w0)
        failures += wl.check(out)
        # run the whole number of rounds nearest to the run length: start
        # another round only if at least half of it is expected to fit
        if time.monotonic() - first + statistics.median(round_walls) / 2 \
                > args.seconds:
            break
    rounds = len(round_walls)
    report = {
        "ready_at": ready_at,
        "rounds": rounds,
        "wall_per_round": wall / rounds,
        "cpu_per_round": cpu / rounds,
        "op_times": ops.times,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "op_errors": sorted(set(ops.errors)),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "machine": machine_facts(),
    }
    if tr:
        report["per_layer"], report["spans"] = layer_metrics(tr, rounds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
