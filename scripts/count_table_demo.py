"""Signed multi-monopole count tables for a sample of mapping classes.

Prints one table per matrix: per torsion class the large-degree count
sign(det(1 - f*)) * N * (d + 1 - g), plus the fixed-point census of the
induced Jacobian map.
"""

import argparse
import sys

from adiabat.cli import report_errors
from adiabat.topology import (count_large_d, jacobian_fixed_points,
                              validate_mapping_class)
from adiabat.zlattice import IntMatrix

SAMPLES = [
    ("Anosov", [[2, 1], [1, 1]]),
    ("elliptic involution", [[-1, 0], [0, -1]]),
    ("order four", [[0, -1], [1, 0]]),
    ("order six", [[1, -1], [1, 0]]),
    ("parabolic", [[1, 1], [0, 1]]),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", type=int, default=2, help="spinor rank N")
    ap.add_argument("--degree", type=int, default=3, help="fiber degree d")
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args()

    for name, rows in SAMPLES:
        mc = validate_mapping_class(1, IntMatrix.from_rows(rows))
        det = mc.one_minus_fstar.det()
        print(f"== {name}: f* = {rows}, det(1 - f*) = {det}")
        table = count_large_d(mc, args.rank, args.degree)
        if args.csv:
            print(table.to_csv())
        else:
            for cls, count in table.rows:
                print(f"   class {cls.torsion_class}: count {count}")
            print(f"   total {table.total()}")
        if det != 0:
            pts = jacobian_fixed_points(mc)
            print(f"   {len(pts)} isolated fixed points on the Jacobian")
        print()


if __name__ == "__main__":
    sys.exit(report_errors(main))
