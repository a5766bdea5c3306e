"""Grid convergence of the framed vortex solver.

For a spatially varying tau the solver is a spectral Newton iteration; the
L2 mass identity ||Phi||^2 = 4 pi tau_bar (degree-zero chamber) should hold
to spectral accuracy once the grid resolves tau.  Reports the mass defect
and the final moment-map residual per resolution.
"""

import argparse
import math
import sys
import time

import numpy as np

from adiabat.cli import report_errors
from adiabat.vortexfield import FlatCurve, moment_residual, vortex_solve


def tau_profile(X, Y):
    return 2.0 + 0.5 * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y) \
        + 0.3 * np.sin(2 * np.pi * X)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="8,12,16,24,32")
    ap.add_argument("--modulus", type=float, nargs=2, default=[0.2, 1.0])
    args = ap.parse_args()

    hol = np.array([[0.13, -0.21], [-0.32, 0.05]])
    mass_target = 4.0 * math.pi * 2.0
    print(f"{'n':>4} {'mass defect':>14} {'moment res':>12} "
          f"{'newton iters':>12} {'time':>8}")
    for n in (int(x) for x in args.grids.split(",")):
        curve = FlatCurve(complex(*args.modulus), n)
        t0 = time.time()
        cfg, increments = vortex_solve(curve, hol, 0, tau_profile)
        dt = time.time() - t0
        defect = abs(cfg.phi_l2_sq() - mass_target)
        res = moment_residual(cfg, tau_profile)
        print(f"{n:>4} {defect:>14.3e} {res:>12.3e} "
              f"{len(increments):>12} {dt:>7.2f}s")


if __name__ == "__main__":
    sys.exit(report_errors(main))
