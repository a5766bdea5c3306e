"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        [--seeds 1-10] [--trace 0|1] [--log FILE]

For each workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json.  Every run's last two lines (its facts and its result)
are appended to the log file with the time of the run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=".bench_out/spread.jsonl")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = bench["command"]
    bad = False
    for wl in args.workload:
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                cmd + ["--workload", wl, "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            info, res = (json.loads(line)
                         for line in out.strip().splitlines()[-2:])
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed,
                                     "trace": args.trace, "at": time.time(),
                                     "info": info, **res}) + "\n")
            runs.append(res)
            bad |= not res["correct"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: {len(runs)} runs, correct "
              f"{sum(r['correct'] for r in runs)}, failed shares {shares}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:36s} median {med:12.5g}  spread {spread:7.4f}"
                  f"  bound {bounds.get(name, '-')}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
