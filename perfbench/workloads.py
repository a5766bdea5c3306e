"""The four benchmark workloads.

A workload builds its inputs from the seed in its constructor, warms up,
and then runs rounds: one round is a fixed amount of work made of ops,
the unit whose times give ``op_p50_s``.  ``check`` validates a round's
outputs with the functions of ``checks``.

Every call into the library goes through a module attribute
(``monopole.newton_refine``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import time

import numpy as np

from adiabat import (braid, cli, monopole, topology, transport, vortexfield,
                     zlattice)
from adiabat.errors import AdiabatError

import checks

MU = 0.2 + 1.0j
MINUS_ID = [[-1, 0], [0, -1]]


class Ops:
    """Times the ops of a run; an op that raises a library error fails."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except AdiabatError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.times.append(time.perf_counter() - t0)
        return out


def smooth_family(tau_spatial=None):
    """One-vortex family over a trigonometric holonomy loop, f* = id."""
    mc = topology.validate_mapping_class(1, zlattice.IntMatrix.identity(2))
    path = vortexfield.HolonomyPath.trigonometric(
        [0.3, 0.1], [1, 0], amp=[0.15, -0.1])
    return vortexfield.FlatBundleFamily(
        N=1, mc=mc, closing_permutation=(0,), paths=[path], tau_bar=2.0,
        tau_spatial=tau_spatial)


def tau_profile(X, Y):
    return 2.0 + 0.5 * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y) \
        + 0.3 * np.sin(2 * np.pi * X)


def solve_transport_assemble(curve, family, m, steps):
    """The vortex start, and the adiabatic 3D configuration built on it."""
    start, _ = vortexfield.vortex_solve(curve, family.holonomies(0.0), 0,
                                        family.tau())
    trace = transport.transport(curve, family, start, steps=steps)
    return start, monopole.assemble_adiabatic(trace, family, m)


def refined_residual(Xi, eps):
    return monopole.weighted_norm(Xi, monopole.sw_map(Xi, eps), eps, 2,
                                  0).value


class NewtonLadder:
    """Criterion 7: Newton refinement of the smooth family over eps.

    One op is one eps: the start residual, ``newton_refine`` and the
    refined distance.  Each eps starts from the same configuration, so
    the seed draws only the order of the three eps and every seed does
    the same work.
    """

    n, m, steps = 8, 8, 32
    eps_list = (0.2, 0.1, 0.05)

    def __init__(self, seed, workdir):
        self.eps_order = random.Random(seed).sample(self.eps_list, 3)
        self.curve = vortexfield.FlatCurve(MU, self.n)
        self.family = smooth_family()

    def warm_up(self):
        vortexfield.vortex_solve(self.curve, self.family.holonomies(0.0), 0,
                                 self.family.tau())

    def _refine(self, Xi0, eps):
        r0 = refined_residual(Xi0, eps)
        Xi, log = monopole.newton_refine(Xi0, eps)
        dist = monopole.config_norm_diff(Xi, Xi0, eps, 2, 1).value
        return eps, r0, dist, Xi, log

    def round(self, op):
        _, Xi0 = solve_transport_assemble(self.curve, self.family, self.m,
                                          self.steps)
        return [op(self._refine, Xi0, eps) for eps in self.eps_order]

    def check(self, results):
        out = []
        done = [r for r in results if r is not None]
        for eps, _, _, Xi, log in done:
            out += checks.below(f"eps {eps} refined residual",
                                refined_residual(Xi, eps), 1e-9)
            out += checks.quadratic_contraction(
                [e["residual_0_2_eps"] for e in log])
        if len(done) == len(self.eps_list):
            eps = [r[0] for r in done]
            out += checks.slope_within("start residual", eps,
                                       [r[1] for r in done], 1.0, 0.2)
            out += checks.slope_within("refined distance", eps,
                                       [r[2] for r in done], 2.0, 0.3)
        return out


class Monodromy:
    """Criterion 6: numeric monodromy of constructed f* = -id braids.

    One op is one braid.  The seed draws the class of each braid's
    targets; the make-up is fixed, so every seed does the same work: an
    N = 2 braid with a class fixed twice (a constant strand and a
    translated copy) and an N = 3 braid with one class fixed (a constant
    strand and two padding strands swapped by the closing).  Each round
    also checks the step order of transport on the smooth family.
    """

    n, steps, tol = 16, 200, 1e-6
    make_up = ((2, 2), (3, 1))
    order_steps = (20, 40, 320)

    def __init__(self, seed, workdir):
        self.mc = topology.validate_mapping_class(
            1, zlattice.IntMatrix.from_rows(MINUS_ID))
        grp = zlattice.cokernel(self.mc.one_minus_fstar)
        self.classes = [grp.normalize(list(w)) for w in grp.elements()]
        rng = random.Random(seed)
        self.targets = [(N, {rng.choice(self.classes): copies})
                        for N, copies in self.make_up]
        self.curve = vortexfield.FlatCurve(MU, self.n)
        self.smooth = smooth_family()

    def warm_up(self):
        vortexfield.vortex_solve(self.curve, self.smooth.holonomies(0.0), 0,
                                 self.smooth.tau())

    def _monodromy(self, b):
        family = vortexfield.FlatBundleFamily.from_braid(b, tau_bar=2.0)
        return transport.numeric_monodromy(self.curve, family, b,
                                           steps=self.steps, tol=self.tol)

    def round(self, op):
        braids = []
        for N, targets in self.targets:
            b = braid.braid_validate(braid.braid_construct(self.mc, targets,
                                                           N))
            census = braid.braid_census(b)
            braids.append((targets, b, census, op(self._monodromy, b)))
        start, _ = vortexfield.vortex_solve(
            self.curve, self.smooth.holonomies(0.0), 0, self.smooth.tau())
        finals = [transport.transport(self.curve, self.smooth, start,
                                      steps=s).final.holonomy
                  for s in self.order_steps]
        return braids, finals

    def check(self, out):
        braids, finals = out
        fails = checks.class_count(len(self.classes), MINUS_ID)
        for targets, b, census, perm in braids:
            fails += checks.census_meets(census.per_class_counts, targets)
            if perm is not None:
                fails += checks.same_permutation(
                    perm, braid.braid_permutation(b))
        ref = finals[-1]
        fails += checks.step_order([float(np.max(np.abs(h - ref)))
                                    for h in finals[:-1]])
        return fails


class Identities:
    """Criterion 8: operator identities on the spatial-tau smooth family.

    One op is one ``identity_check``: at n = 16 and 32, then the rough
    noise negative control at n = 16.  The round includes the vortex
    solve, transport and assembly at both grids.  The seed draws the
    sampling seed of ``identity_check`` and the control's noise.
    """

    grids, m, steps, samples = (16, 32), 32, 64, 10

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.sample_seed = rng.randrange(2 ** 31)
        self.noise_seed = rng.randrange(2 ** 31)
        self.family = smooth_family(tau_spatial=tau_profile)

    def warm_up(self):
        curve = vortexfield.FlatCurve(MU, self.grids[0])
        vortexfield.vortex_solve(curve, self.family.holonomies(0.0), 0,
                                 self.family.tau())

    def round(self, op):
        per_grid = {}
        for n in self.grids:
            curve = vortexfield.FlatCurve(MU, n)
            start, Xi = solve_transport_assemble(curve, self.family, self.m,
                                                 self.steps)
            report = op(monopole.identity_check, Xi, samples=self.samples,
                        seed=self.sample_seed)
            per_grid[n] = (start, report)
            if n == self.grids[0]:
                coarse_Xi = Xi
        Xi = coarse_Xi
        g = np.random.default_rng(self.noise_seed)
        noise = 0.1 * (g.standard_normal(Xi.Phi.shape)
                       + 1j * g.standard_normal(Xi.Phi.shape))
        control = op(monopole.identity_check,
                     dataclasses.replace(Xi, Phi=Xi.Phi + noise),
                     samples=self.samples, seed=self.sample_seed)
        return per_grid, control

    def check(self, out):
        per_grid, control = out
        fails = []
        for n, (start, report) in per_grid.items():
            fails += checks.below(
                f"n={n} start moment residual",
                vortexfield.moment_residual(start, self.family.tau()), 1e-10)
            if report is not None:
                for key in ("identity0", "identity1"):
                    fails += checks.below(f"n={n} {key}", report[key], 1e-6)
        coarse, fine = (per_grid[n][1] for n in self.grids)
        if coarse is not None and fine is not None:
            fails += checks.ratio_at_least(
                "identity2 refinement", coarse["identity2"],
                fine["identity2"], 4.0)
        if coarse is not None and control is not None:
            fails += checks.ratio_at_least(
                "negative control identity1", control["identity1"],
                coarse["identity1"], 1e3)
        return fails


class ReadmeCli:
    """The README command sequence through ``adiabat.cli.main``.

    One op is one pass of the eight commands.  The seed draws the
    ``vortex`` holonomies and the ``check-identities`` sampling seed.
    The README braid's two strands are constant, so its ``newton`` and
    ``check-identities`` do no Newton steps.
    """

    count_matrix, rank, degree = [[2, 1], [1, 1]], 2, 3

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        hol = [[rng.uniform(-0.4, 0.4) for _ in range(2)] for _ in range(2)]
        hol_text = ";".join(",".join(f"{x:.3f}" for x in row) for row in hol)
        self.paths = {k: os.path.join(workdir, f)
                      for k, f in (("targets", "targets.json"),
                                   ("braid", "b.json"),
                                   ("trace", "tr.jsonl"))}
        with open(self.paths["targets"], "w") as fh:
            json.dump([{"class": [0, 1], "count": 1},
                       {"class": [1, 0], "count": 1}], fh)
        b = self.paths["braid"]
        self.commands = [
            ("count", ["count", "--matrix", "2,1;1,1", "--rank",
                       str(self.rank), "--degree", str(self.degree)]),
            ("fix", ["fix", "--matrix=-1,0;0,-1", "--format", "csv"]),
            ("braid-make", ["braid-make", "--matrix=-1,0;0,-1", "--rank", "2",
                            "--targets", self.paths["targets"], "--out", b]),
            ("braid-census", ["braid-census", "--braid", b]),
            ("vortex", ["vortex", f"--holonomies={hol_text}", "--grid", "32",
                        "--tau", "2.0"]),
            ("transport", ["transport", "--braid", b, "--grid", "16",
                           "--tsteps", "200", "--out", self.paths["trace"]]),
            ("newton", ["newton", "--braid", b, "--grid", "12", "--slices",
                        "16", "--eps", "0.2"]),
            ("check-identities", ["check-identities", "--braid", b, "--grid",
                                  "16", "--slices", "32", "--seed",
                                  str(rng.randrange(1000))]),
        ]

    def warm_up(self):
        curve = vortexfield.FlatCurve(1j, 16)
        vortexfield.vortex_solve(curve, [[0.1, 0.2]], 0, 2.0)

    def _pass(self):
        outs = {}
        for name, argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outs[name] = (code, out.getvalue(), err.getvalue())
        for key in ("braid", "trace"):
            with open(self.paths[key]) as fh:
                outs[key] = fh.read()
        return outs

    def round(self, op):
        return op(self._pass)

    def check(self, outs):
        fails = []
        for name, _ in self.commands:
            code, _, err = outs[name]
            if code != 0:
                fails.append(f"{name} exited {code}: {err.strip()}")
        if fails:
            return fails
        parsed = {}
        for name, _ in self.commands:
            if name in ("fix", "braid-make"):
                continue
            parsed[name], bad = checks.parse_strict_json(name, outs[name][1])
            fails += bad
        fails += checks.parse_strict_json("braid-make --out",
                                          outs["braid"])[1]
        for line in outs["trace"].splitlines():
            fails += checks.parse_strict_json("transport --out", line)[1]
        rows, bad = checks.parse_csv("fix", outs["fix"][1],
                                     ["fixed_point", "torsion_class"])
        fails += bad
        if rows is not None:
            fails += checks.half_period_points(rows)
        if fails:
            return fails
        fails += checks.count_rows(parsed["count"], self.count_matrix,
                                   self.rank, self.degree)
        if parsed["transport"].get("match") is not True:
            fails.append(f"transport: match is {parsed['transport']!r}")
        final = parsed["newton"][-1]["iterations"][-1]["residual_0_2_eps"]
        fails += checks.below("newton final residual", final, 1e-9)
        for key in ("identity0", "identity1"):
            fails += checks.below(key, parsed["check-identities"][key], 1e-6)
        return fails


WORKLOADS = {
    "newton-ladder": NewtonLadder,
    "monodromy": Monodromy,
    "identities": Identities,
    "readme-cli": ReadmeCli,
}
