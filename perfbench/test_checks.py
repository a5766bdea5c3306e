"""The benchmark's checks fail on wrong answers.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from adiabat import braid, topology, transport, vortexfield, monopole  # noqa: E402,E501
from adiabat.zlattice import IntMatrix  # noqa: E402


def test_permutation():
    assert checks.same_permutation((0, 2, 1), (0, 2, 1)) == []
    assert checks.same_permutation((0, 1, 2), (0, 2, 1))


def test_census():
    assert checks.census_meets({(0, 1): 2}, {(0, 1): 2}) == []
    assert checks.census_meets({(0, 1): 1}, {(0, 1): 2})
    assert checks.census_meets({}, {(1, 1): 1})


def test_class_count():
    assert checks.det_one_minus(workloads.MINUS_ID) == 4
    assert checks.class_count(4, workloads.MINUS_ID) == []
    assert checks.class_count(3, workloads.MINUS_ID)


def test_step_order():
    assert checks.step_order([1.6e-5, 1e-6]) == []
    assert checks.step_order([4e-6, 1e-6])  # second order
    assert checks.step_order([0.0, 1e-6])


def test_quadratic_contraction():
    assert checks.quadratic_contraction([1.2, 1.1e-2, 1.6e-6, 2.5e-14]) == []
    assert checks.quadratic_contraction([0.29, 2.3e-4, 1.5e-10]) == []
    assert checks.quadratic_contraction([1.0, 0.5, 0.25, 0.125])
    assert checks.quadratic_contraction([1e-2, 1e-4, 1e-6, 1e-8])
    assert checks.quadratic_contraction([1e-2, 1e-4, 2e-4])
    assert checks.quadratic_contraction([1.0])


def test_slope():
    eps = [0.2, 0.1, 0.05]
    assert checks.slope_within("r", eps, [2 * e for e in eps], 1.0, 0.2) == []
    assert checks.slope_within("r", eps, [e ** 1.5 for e in eps], 1.0, 0.2)
    assert checks.slope_within("r", eps, [1.0, math.nan, 0.5], 1.0, 0.2)


def test_bounds():
    assert checks.below("x", 1e-12, 1e-9) == []
    assert checks.below("x", 1e-3, 1e-9)
    assert checks.below("x", math.nan, 1e-9)
    assert checks.ratio_at_least("r", 8.0, 1.0, 4.0) == []
    assert checks.ratio_at_least("r", 3.0, 1.0, 4.0)
    assert checks.ratio_at_least("r", 3.0, 0.0, 4.0)


def test_strict_json_rejects_nan():
    assert checks.parse_strict_json("x", '{"a": 1.5}') == ({"a": 1.5}, [])
    assert checks.parse_strict_json("x", '{"a": NaN}')[1]
    assert checks.parse_strict_json("x", '[Infinity]')[1]
    assert checks.parse_strict_json("x", '{"a": ')[1]


def test_count_rows():
    rows = [[2, 1], [1, 1]]
    assert checks.count_rows({"rows": [{"count": -6}]}, rows, 2, 3) == []
    assert checks.count_rows({"rows": [{"count": -6}, {"count": 6}]},
                             rows, 2, 3)
    assert checks.count_rows({"rows": []}, rows, 2, 3)


def test_half_period_points():
    good = [["0 0"], ["0 1/2"], ["1/2 0"], ["1/2 1/2"]]
    assert checks.half_period_points(good) == []
    assert checks.half_period_points(good[:3] + [["1/2 1/4"]])
    assert checks.half_period_points(good[:3])
    assert checks.half_period_points([["x y"]] + good[1:])


def test_perturbed_configuration_fails_the_residual_check():
    """The README braid's strands are constant, so its adiabatic
    configuration solves the equations; a perturbed copy does not."""
    mc = topology.validate_mapping_class(
        1, IntMatrix.from_rows(workloads.MINUS_ID))
    b = braid.braid_construct(mc, {(0, 1): 1, (1, 0): 1}, 2)
    family = vortexfield.FlatBundleFamily.from_braid(b, tau_bar=2.0)
    curve = vortexfield.FlatCurve(1j, 8)
    start, _ = vortexfield.vortex_solve(curve, family.holonomies(0.0), 0,
                                        family.tau())
    trace = transport.transport(curve, family, start, 32)
    Xi = monopole.assemble_adiabatic(trace, family, 8, k0=0)
    assert checks.below("r", workloads.refined_residual(Xi, 0.2), 1e-9) == []
    g = np.random.default_rng(0)
    bad = dataclasses.replace(
        Xi, Phi=Xi.Phi + 1e-4 * g.standard_normal(Xi.Phi.shape))
    assert checks.below("r", workloads.refined_residual(bad, 0.2), 1e-9)


# -- whole-workload checks on fabricated outputs ----------------------------

@pytest.fixture
def readme(tmp_path):
    wl = workloads.ReadmeCli(0, str(tmp_path))
    good = {
        "count": (0, json.dumps({"rows": [{"count": -6}] * 4}), ""),
        "fix": (0, "fixed_point,torsion_class\r\n0 0,0 0\r\n0 1/2,1 0\r\n"
                   "1/2 0,0 1\r\n1/2 1/2,1 1\r\n", ""),
        "braid-make": (0, "", ""),
        "braid-census": (0, json.dumps({"permutation": [0, 1]}), ""),
        "vortex": (0, json.dumps({"moment_residual": 0.0}), ""),
        "transport": (0, json.dumps({"match": True}), ""),
        "newton": (0, json.dumps([{"iterations": [
            {"residual_0_2_eps": 1e-15}]}]), ""),
        "check-identities": (0, json.dumps({"identity0": 0.0,
                                            "identity1": 1e-15}), ""),
        "braid": json.dumps({"N": 2}),
        "trace": json.dumps({"t": 0.0}) + "\n",
    }
    assert wl.check(good) == []
    return wl, good


@pytest.mark.parametrize("name, value", [
    ("vortex", (0, '{"moment_residual": NaN}', "")),
    ("transport", (0, json.dumps({"match": False}), "")),
    ("newton", (0, json.dumps([{"iterations": [
        {"residual_0_2_eps": 1e-3}]}]), "")),
    ("count", (0, json.dumps({"rows": [{"count": -5}]}), "")),
    ("check-identities", (0, json.dumps({"identity0": 1e-3,
                                         "identity1": 0.0}), "")),
    ("newton", (2, "", '{"error": "divergence"}')),
    ("trace", '{"t": NaN}\n'),
])
def test_readme_check_fails_on_wrong_output(readme, name, value):
    wl, good = readme
    bad = copy.deepcopy(good)
    bad[name] = value
    assert wl.check(bad)


def test_monodromy_check_fails_on_swapped_permutation():
    wl = workloads.Monodromy(0, None)
    mc = wl.mc
    b = braid.braid_construct(mc, {}, 3)
    census = braid.braid_census(b)
    finals = [np.array([1.6e-5]), np.array([1e-6]), np.array([0.0])]
    perm = braid.braid_permutation(b)
    assert wl.check(([({}, b, census, perm)], finals)) == []
    swapped = (perm[1], perm[0]) + tuple(perm[2:])
    assert wl.check(([({}, b, census, swapped)], finals))
    assert wl.check(([({(0, 1): 1}, b, census, perm)], finals))
