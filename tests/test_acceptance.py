"""End-to-end acceptance suite: one test per criterion, with a report line.

Each test measures its figures of merit, records a single
"criterion N: PASS/FAIL (...)" line in REPORT (echoed in the terminal
summary), and then asserts.  Runtime budgets are asserted where stated.
"""

import dataclasses
import math
import random
import time

import numpy as np

from adiabat.braid import (braid_census, braid_construct, braid_permutation,
                           braid_validate)
from adiabat.monopole import (adiabatic_config, config_norm_diff,
                              config_update, dsw_apply, identity_check, ip3,
                              linearize_apply, newton_refine, quadratic_term,
                              random_tangent, sw_map)
from adiabat.topology import (count_large_d, jacobian_fixed_points,
                              validate_mapping_class)
from adiabat.transport import numeric_monodromy, transported
from adiabat.vortexfield import (FlatBundleFamily, FlatCurve, smooth_family,
                                 vortex_solve)
from adiabat.zlattice import IntMatrix, cokernel

from tests.test_braid import even_winding_braid, odd_winding_braid

REPORT = []

MU = 0.2 + 1.0j
MINUS_ID = IntMatrix.from_rows([[-1, 0], [0, -1]])


def record(num, ok, detail):
    REPORT.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, REPORT[-1]


def assemble(n, slices, tsteps, tau_spatial=None):
    return adiabatic_config(FlatCurve(MU, n), smooth_family(tau_spatial),
                            slices, tsteps)


def tau_profile(X, Y):
    return 2.0 + 0.5 * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y) \
        + 0.3 * np.sin(2 * np.pi * X)


def test_criterion_1_fixed_point_census():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    while checked < 200:
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        A = IntMatrix.from_rows(rows)
        if A.det() != 1:
            continue
        mc = validate_mapping_class(1, A)
        det = mc.one_minus_fstar.det()
        if det == 0:
            continue
        grp = cokernel(mc.one_minus_fstar)
        pts = jacobian_fixed_points(mc)
        labels = {lab for _, lab in pts}
        ok = ok and len(pts) == abs(det) == grp.order
        ok = ok and labels == {grp.normalize(list(w)) for w in grp.elements()}
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record(1, ok, f"{checked} matrices, |Fix| = |coker| = |det| with "
                  f"bijective labels, {elapsed:.2f}s")


def test_criterion_2_count_formula():
    mats = [[[2, 1], [1, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]],
            [[1, 1], [0, 1]], [[1, 0], [0, 1]], [[2, 3], [1, 2]],
            [[0, 1], [-1, -1]], [[3, 2], [4, 3]], [[1, -1], [1, 0]],
            [[-2, -1], [-1, -1]]]
    cases = 0
    ok = True
    for rows in mats:
        mc = validate_mapping_class(1, IntMatrix.from_rows(rows))
        det = mc.one_minus_fstar.det()
        sign = (det > 0) - (det < 0)
        for N in range(1, 5):
            for d in range(1, 6):
                want = sign * N * (d + 1 - 1)
                table = count_large_d(mc, N, d)
                ok = ok and all(c == want for _, c in table.rows)
                if det != 0:
                    ok = ok and len(table.rows) == abs(det)
                cases += 1
    ok = ok and cases >= 50
    record(2, ok, f"{cases} exact (f*, N, d) cases incl. sign(0) = 0")


def test_criterion_3_winding_examples():
    even = braid_census(braid_validate(even_winding_braid()))
    odd = braid_census(braid_validate(odd_winding_braid()))
    grp = cokernel(validate_mapping_class(1, MINUS_ID).one_minus_fstar)
    csum = grp.normalize([sum(v) for v in
                          zip(*(c for _, c in even.fixed_strands))])
    ok = (even.permutation == (0, 1) and len(even.fixed_strands) == 2
          and csum == grp.normalize([0, 0])
          and odd.permutation == (1, 0) and odd.fixed_strands == ())
    record(3, ok, "even winding: 2 fixed strands, classes sum to zero; "
                  "odd winding: transposition, 0 fixed strands")


def test_criterion_4_constructor_roundtrip():
    mc = validate_mapping_class(1, MINUS_ID)
    grp = cokernel(mc.one_minus_fstar)
    elems = [grp.normalize(list(w)) for w in grp.elements()]
    rng = random.Random(77)
    ok = True
    for _ in range(100):
        N = rng.randint(1, 6)
        targets = {}
        for _ in range(rng.randint(0, N)):
            c = rng.choice(elems)
            targets[c] = targets.get(c, 0) + 1
        census = braid_census(braid_validate(braid_construct(mc, targets, N)))
        for c, want in targets.items():
            ok = ok and census.per_class_counts.get(c, 0) >= want
    record(4, ok, "100 random target maps, census >= targets pointwise")


def test_criterion_5_vortex_solver():
    t0 = time.perf_counter()
    curve = FlatCurve(MU, 32)
    hol = np.array([[0.13, -0.21], [-0.32, 0.05]])

    cfg, _ = vortex_solve(curve, hol, 0, 2.0)
    dens = np.sum(np.abs(cfg.Phi) ** 2, axis=0)
    flat_err = float(np.max(np.abs(dens - 4.0)))

    def tau(X, Y):
        return 2.0 + 0.6 * np.cos(2 * np.pi * X)

    cfg2, increments = vortex_solve(curve, hol, 0, tau)
    mass_err = abs(cfg2.phi_l2_sq() - 4 * math.pi * 2.0)
    incs = [x for x in increments if x > 1e-13]
    quad = len(incs) >= 3 and all(b < 10 * a ** 2
                                  for a, b in zip(incs[-3:], incs[-2:]))
    elapsed = time.perf_counter() - t0
    ok = flat_err < 1e-12 and mass_err < 1e-8 and quad and elapsed < 10.0
    record(5, ok, f"||Phi|^2 - 2tau| = {flat_err:.1e}, L2 mass defect "
                  f"{mass_err:.1e}, quadratic increments, {elapsed:.1f}s")


def test_criterion_6_transport_fidelity():
    t0 = time.perf_counter()
    curve = FlatCurve(MU, 16)
    mc = validate_mapping_class(1, MINUS_ID)
    grp = cokernel(mc.one_minus_fstar)
    elems = [grp.normalize(list(w)) for w in grp.elements()]
    rng = random.Random(101)
    matched = 0
    for i in range(10):
        N = 2 + (i % 2)
        targets = {}
        for _ in range(rng.randint(0, N)):
            c = rng.choice(elems)
            targets[c] = targets.get(c, 0) + 1
        braid = braid_validate(braid_construct(mc, targets, N))
        fam = FlatBundleFamily.from_braid(braid, tau_bar=2.0)
        # tol certifies the moment residual stays below 1e-6 throughout
        perm = numeric_monodromy(curve, fam, braid, steps=200, tol=1e-6)
        matched += perm == braid_permutation(braid)

    fam = smooth_family()

    def hol(steps):
        return transported(curve, fam, 0, steps).final.holonomy

    ref = hol(320)
    e1 = float(np.max(np.abs(hol(20) - ref)))
    e2 = float(np.max(np.abs(hol(40) - ref)))
    order = math.log2(e1 / e2)
    elapsed = time.perf_counter() - t0
    ok = matched == 10 and abs(order - 4.0) <= 0.5 and elapsed < 120.0
    record(6, ok, f"{matched}/10 monodromies match, step order "
                  f"{order:.2f}, {elapsed:.0f}s")


def test_criterion_7_adiabatic_scaling():
    t0 = time.perf_counter()
    Xi0 = assemble(16, 32, 256)
    eps_list = [0.2, 0.1, 0.05]
    r0s, diffs = [], []
    for eps in eps_list:
        Xi_eps, log = newton_refine(Xi0, eps)
        r0s.append(log[0]["residual_0_2_eps"])
        diffs.append(config_norm_diff(Xi_eps, Xi0, eps, 2, 1).value)
    le = np.log(eps_list)
    s1 = float(np.polyfit(le, np.log(r0s), 1)[0])
    s2 = float(np.polyfit(le, np.log(diffs), 1)[0])
    elapsed = time.perf_counter() - t0
    # the refined distance moves with where Newton stops below NEWTON_TOL;
    # its slope may drift by at most 1e-5 from the figure of GMRES solves
    # at a fixed relative tolerance of 1e-8
    drift = abs(s2 - 1.944229021)
    ok = abs(s1 - 1.0) <= 0.2 and abs(s2 - 2.0) <= 0.3 and drift < 1e-5 \
        and elapsed < 600.0
    record(7, ok, f"residual slope {s1:.3f}, refined-distance slope "
                  f"{s2:.3f} (drift {drift:.1e}), {elapsed:.0f}s")


def test_criterion_8_structural_identities():
    reports = {}
    Xi16 = None
    for n in (16, 32):
        Xi = assemble(n, 32, 128, tau_spatial=tau_profile)
        reports[n] = identity_check(Xi, samples=50, seed=7)
        if n == 16:
            Xi16 = Xi
    small = all(reports[n][key] < 1e-6
                for n in (16, 32) for key in ("identity0", "identity1"))
    id2_ratio = reports[16]["identity2"] / reports[32]["identity2"]

    # negative control: rough (non band-limited) spinor perturbation
    g = np.random.default_rng(3)
    noise = 0.1 * (g.standard_normal(Xi16.Phi.shape)
                   + 1j * g.standard_normal(Xi16.Phi.shape))
    bad = identity_check(dataclasses.replace(Xi16, Phi=Xi16.Phi + noise),
                         samples=50, seed=7)
    id1_ratio = bad["identity1"] / reports[16]["identity1"]

    ok = small and id1_ratio >= 1e3 and id2_ratio >= 4.0
    record(8, ok, f"identity0/1 < 1e-6 at n = 16, 32; control raises "
                  f"identity1 {id1_ratio:.1e}x; identity2 drops "
                  f"{id2_ratio:.0f}x under refinement")


def test_criterion_9_operator_contracts():
    Xi = assemble(12, 16, 64)
    rng = np.random.default_rng(5)

    asym = 0.0
    for _ in range(5):
        u = random_tangent(Xi, rng)
        w = random_tangent(Xi, rng)
        lhs = ip3(Xi, linearize_apply(Xi, u, 0.2), w, 0.2)
        rhs = ip3(Xi, u, linearize_apply(Xi, w, 0.2), 0.2)
        asym = max(asym, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0))

    xi = random_tangent(Xi, rng)
    lhs = sw_map(config_update(Xi, xi), 0.2)
    f0 = sw_map(Xi, 0.2)
    lin = dsw_apply(Xi, xi, 0.2)
    quad = quadratic_term(Xi, xi, 0.2)
    split = max(float(np.max(np.abs(
        getattr(lhs, nm) - getattr(f0, nm)
        - getattr(lin, nm) - getattr(quad, nm))))
        for nm in ("a", "phi", "v", "c", "psi"))

    q1 = quadratic_term(Xi, xi, 0.2)
    q2 = quadratic_term(Xi, xi.scale(2.0), 0.2)
    homog = max(float(np.max(np.abs(getattr(q2, nm) - 4.0 * getattr(q1, nm))))
                for nm in ("a", "phi", "v", "c", "psi"))

    scale = max(1.0, xi.sup() ** 2)
    ok = asym < 1e-10 and split < 1e-12 * scale and homog < 1e-12 * scale
    record(9, ok, f"self-adjointness asymmetry {asym:.1e}, quadratic "
                  f"split defect {split:.1e}, homogeneity defect "
                  f"{homog:.1e}")
