"""Operator identity residuals under grid refinement.

Identities 0 and 1 hold pointwise for any assembled configuration, so their
residuals sit at the band-limit/aliasing floor.  Identity 2 carries a
remainder that is valid at converged solutions; with a spatially varying
tau its residual is dominated by spatial discretization error and should
drop rapidly as n increases.
"""

import argparse
import json
import sys
import time

from adiabat.cli import report_errors
from adiabat.monopole import adiabatic_config, identity_check
from adiabat.vortexfield import FlatCurve, smooth_family, tau_profile


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="16,32")
    ap.add_argument("--slices", type=int, default=32)
    ap.add_argument("--tsteps", type=int, default=128)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--flat-tau", action="store_true",
                    help="use constant tau instead of the spatial profile")
    args = ap.parse_args()

    fam = smooth_family(None if args.flat_tau else tau_profile)
    for n in (int(x) for x in args.grids.split(",")):
        t0 = time.time()
        Xi = adiabatic_config(FlatCurve(0.2 + 1.0j, n), fam, args.slices,
                              args.tsteps)
        report = identity_check(Xi, samples=args.samples)
        report["n"] = n
        report["seconds"] = round(time.time() - t0, 1)
        print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    sys.exit(report_errors(main))
