"""Numeric monodromy versus combinatorial braid permutation.

Builds random braids with f* = -identity, runs the parallel-transport ODE
for every strand, and compares the resulting permutation of vortex points
against the braid's closing permutation.
"""

import argparse
import random
import sys
import time

from adiabat.braid import braid_census, braid_construct, braid_validate
from adiabat.cli import report_errors
from adiabat.topology import validate_mapping_class
from adiabat.transport import numeric_monodromy
from adiabat.vortexfield import FlatBundleFamily, FlatCurve
from adiabat.zlattice import IntMatrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--braids", type=int, default=10)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--tsteps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    mc = validate_mapping_class(1, IntMatrix.from_rows([[-1, 0], [0, -1]]))
    elems = mc.classes.elements()
    rng = random.Random(args.seed)
    curve = FlatCurve(0.2 + 1.0j, args.grid)

    ok = 0
    for i in range(args.braids):
        N = 2 + (i % 2)
        targets = {}
        for _ in range(rng.randint(0, N)):
            c = rng.choice(elems)
            targets[c] = targets.get(c, 0) + 1
        braid = braid_validate(braid_construct(mc, targets, N))
        fam = FlatBundleFamily.from_braid(braid, tau_bar=2.0)
        t0 = time.time()
        perm = numeric_monodromy(curve, fam, braid, steps=args.tsteps)
        match = perm == braid.closing_permutation
        ok += match
        census = braid_census(braid)
        print(f"braid {i}: N={N} targets={targets} perm={perm} "
              f"match={match} fixed={len(census.fixed_strands)} "
              f"({time.time() - t0:.1f}s)")
    print(f"{ok}/{args.braids} matched")


if __name__ == "__main__":
    sys.exit(report_errors(main))
