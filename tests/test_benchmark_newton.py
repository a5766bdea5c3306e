"""The benchmark's Newton checks hold on one ``newton-ladder`` round.

``perfbench/checks.quadratic_contraction`` requires r_{k+1} < 10 r_k^2 for
every residual above 1e-12, so a GMRES tolerance too loose on the last
Newton step fails the benchmark; this test fails first.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def test_newton_ladder_round_passes_its_checks(tmp_path):
    ladder = workloads.NewtonLadder(1, str(tmp_path))
    ops = workloads.Ops()
    results = ladder.round(ops)
    assert ops.failed == 0, ops.errors
    assert ladder.check(results) == []
