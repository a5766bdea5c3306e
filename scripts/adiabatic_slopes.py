"""Scaling of the epsilon-deformed equations around an adiabatic assembly.

Assembles a 3D configuration from a smooth one-vortex family, then for each
epsilon measures the deformed-map residual at the assembly and the weighted
distance to the Newton-refined true solution.  Log-log slopes near 1 and 2
are the expected scaling laws.
"""

import argparse
import json
import sys
import time

import numpy as np

from adiabat.cli import parse_floats, report_errors
from adiabat.monopole import adiabatic_config, refine_ladder
from adiabat.vortexfield import FlatCurve, smooth_family


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--slices", type=int, default=32)
    ap.add_argument("--tsteps", type=int, default=256)
    ap.add_argument("--eps", default="0.2,0.1,0.05")
    args = ap.parse_args()
    eps_list = parse_floats(args.eps)
    if len(set(eps_list)) < 2:
        raise ValueError("--eps needs at least two distinct values to fit "
                         "a slope")

    Xi0 = adiabatic_config(FlatCurve(0.2 + 1.0j, args.grid), smooth_family(),
                           args.slices, args.tsteps)
    r0s, diffs = [], []
    t0 = time.time()
    for row, _ in refine_ladder(Xi0, eps_list):
        r0s.append(row["residual_0_2_eps"])
        diffs.append(row["distance_1_2_eps"])
        print(json.dumps({"eps": row["eps"], "residual_0_2_eps": r0s[-1],
                          "distance_1_2_eps": diffs[-1],
                          "newton_iterations": len(row["iterations"]),
                          "seconds": round(time.time() - t0, 1)}))
        t0 = time.time()
    le = np.log(eps_list)
    s1 = np.polyfit(le, np.log(r0s), 1)[0]
    s2 = np.polyfit(le, np.log(diffs), 1)[0]
    print(f"residual slope {s1:.3f} (expect 1), distance slope {s2:.3f} "
          f"(expect 2)")


if __name__ == "__main__":
    sys.exit(report_errors(main))
