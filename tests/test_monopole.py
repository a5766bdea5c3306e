"""Three-dimensional assembly, the epsilon-deformed map, and Newton descent."""

import json
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from adiabat import monopole
from adiabat.braid import TorusBraid, braid_construct
from adiabat.errors import (Divergence, LinearSolveFailure,
                            NonConvergence, PeriodicityMismatch)
from adiabat.monopole import (FORCING_MAX, GMRES_TOL, NEWTON_TOL, SeamGluing,
                              Tangent3D, adiabatic_config,
                              adiabatic_residual, assemble_adiabatic,
                              build_seam, config_norm_diff,
                              config_update, dsw_apply, identity_check, ip3,
                              linearize_apply,
                              newton_refine, quadratic_term, random_tangent,
                              save_config3d, sw_map, weighted_norm)
from adiabat.topology import validate_mapping_class
from adiabat.transport import transported, vortex_seed
from adiabat.vortexfield import (FlatBundleFamily, FlatCurve, HolonomyPath,
                                 invariant_modulus, smooth_family)
from adiabat.zlattice import IntMatrix, cokernel

MU = 0.2 + 1.0j
MINUS_ID = [[-1, 0], [0, -1]]


def made_braid(rows, rank, targets):
    """``braid-make``: a braid over f* = rows meeting the class counts."""
    mc = validate_mapping_class(1, IntMatrix.from_rows(rows))
    grp = cokernel(mc.one_minus_fstar)
    return braid_construct(mc, {grp.normalize(c): k for c, k in targets},
                           rank)


def winding_braid():
    """f* = identity; strand 1 winds once in x past the constant strand 0."""
    mc = validate_mapping_class(1, IntMatrix.identity(2))
    q = Fraction
    strands = (((q(0), q(1, 4), q(1, 4)), (q(1), q(1, 4), q(1, 4))),
               ((q(0), q(3, 4), q(1, 2)), (q(1), q(7, 4), q(1, 2))))
    return TorusBraid(2, strands, (0, 1), mc)


def seam_of(family, n):
    """The seam of a family on the curve its f* preserves, first fixed
    strand active."""
    curve = FlatCurve(invariant_modulus(family.mc.fstar.to_lists()), n)
    k0 = [k for k, j in enumerate(family.closing_permutation) if j == k][0]
    return build_seam(curve, family, k0, vortex_seed(curve, family, k0).twists)


README_BRAID = (MINUS_ID, 2, [([0, 1], 1), ([1, 0], 1)])

# rank-2 braids whose second strand moves: (f*, targets)
MOVING_BRAIDS = {
    "minus-id": (MINUS_ID, [([0, 1], 2)]),
    "order4": ([[0, -1], [1, 0]], [([0, 0], 2)]),
    "order6": ([[0, -1], [1, 1]], [([0, 0], 2)]),
}
ROWS = ("a", "phi", "v", "c", "psi")


def rows(xi):
    """The five fields of a tangent, in ``ROWS`` order."""
    return [getattr(xi, row) for row in ROWS]


@pytest.fixture(scope="module")
def Xi():
    return adiabatic_config(FlatCurve(MU, 12), smooth_family(), 16, 64)


@pytest.fixture(scope="module")
def coarse_Xi():
    """The smooth family at n = 8 on 8 slices, transported in 32 steps."""
    return adiabatic_config(FlatCurve(MU, 8), smooth_family(), 8, 32)


@pytest.fixture(scope="module")
def moving_strand_configs():
    """The ``MOVING_BRAIDS`` assembled with the moving strand active, on
    the curve f* preserves (n = 8, m = 8, 32 transport steps)."""
    out = {}
    for name, (fstar, targets) in MOVING_BRAIDS.items():
        family = FlatBundleFamily.from_braid(made_braid(fstar, 2, targets))
        curve = FlatCurve(invariant_modulus(family.mc.fstar.to_lists()), 8)
        out[name] = assemble_adiabatic(transported(curve, family, 1, 32),
                                       family, 8, k0=1)
    return out


def block_sum(Xi, xi, eps):
    """D_eps as the sum of its operator blocks, the reference for the
    mode-symbol ``linearize_apply``."""
    ie2 = 1.0 / eps ** 2
    Na, Nphi = monopole.block_N(Xi, xi.a, xi.phi)
    Ga, Gphi = monopole.block_G(Xi, xi.v)
    Sa, Sphi = monopole.block_Sstar(Xi, xi.c, xi.psi)
    gauge = ie2 * monopole.block_Gstar(Xi, xi.a, xi.phi) \
        + monopole.block_Lstar(Xi, xi.c, xi.psi)
    Sc, Spsi = monopole.block_S(Xi, xi.a, xi.phi)
    Lc, Lpsi = monopole.block_L(Xi, xi.v)
    Mc, Mpsi = monopole.block_M(Xi, xi.c, xi.psi)
    return Tangent3D(
        a=Na + Ga + Sa,
        phi=Nphi + Gphi + Sphi + Xi.V[:, None] * xi.phi,
        v=gauge,
        c=ie2 * Sc + Lc + Mc,
        psi=ie2 * Spsi + Lpsi + Mpsi + Xi.V[:, None] * xi.psi)


def base_point_family(a0):
    """``smooth_family`` with its loop moved to the base point a0."""
    mc = validate_mapping_class(1, IntMatrix.identity(2))
    path = HolonomyPath.trigonometric(a0, [1, 0], amp=[0.15, -0.1])
    return FlatBundleFamily(N=1, mc=mc, closing_permutation=(0,),
                            paths=[path], tau_bar=2.0)


@pytest.fixture(scope="module")
def base_point_configs():
    """The one-vortex loop at a0 = (0.1344, 0.8474), n = 8, m = 6, on which
    a fixed GMRES tolerance of 1e-8 stalled (info 40) at Newton iteration
    2; keyed by modulus."""
    family = base_point_family([0.1344, 0.8474])
    return {mu: adiabatic_config(FlatCurve(mu, 8), family, 6, 24)
            for mu in (MU, 1j)}


def counting_products(monkeypatch):
    """Count ``linearize_apply`` calls, the GMRES operator products."""
    calls = []
    original = monopole.linearize_apply

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(monopole, "linearize_apply", counted)
    return calls


class TestAssembly:
    def test_assembly_residual_small(self, Xi):
        assert adiabatic_residual(Xi, 0.2) < 1e-6

    def test_rejects_no_slices(self):
        family = smooth_family()
        trace = transported(FlatCurve(MU, 8), family, 0, 32)
        with pytest.raises(ValueError):
            assemble_adiabatic(trace, family, 0)

    def test_sw_norm_scales_linearly_in_eps(self, Xi):
        vals = [weighted_norm(Xi, sw_map(Xi, e), e).value for e in (0.2, 0.1)]
        ratio = vals[0] / vals[1]
        assert 1.6 < ratio < 2.4


class TestSeam:
    def test_maps_smooth_sections_to_smooth_sections(self):
        """U carries a smooth twist-theta_sigma(k) section to a smooth
        twist-theta_k one: without the lattice-wrap phase, component 1 of
        the README braid has a fifth of its peak in modes |k| >= 6."""
        seam = seam_of(FlatBundleFamily.from_braid(made_braid(*README_BRAID)),
                       16)
        curve = seam.curve
        M, K = curve.modes()
        size = np.maximum(np.abs(M), np.abs(K))
        rng = np.random.default_rng(0)
        shape = (2, 16, 16)
        coef = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        image = seam.push_section(curve.from_modes(coef * (size <= 2),
                                                   seam.twists))
        out = np.abs(curve.to_modes(image, seam.twists))
        assert np.max(out[:, size >= 6]) < 1e-3 * np.max(out)

    @pytest.mark.parametrize("family, n, order", [
        (smooth_family(), 8, 1),
        (FlatBundleFamily.from_braid(made_braid(*README_BRAID)), 8, 2),
        (FlatBundleFamily.from_braid(
            made_braid([[0, -1], [1, 0]], 2, [([0, 0], 2)])), 8, 4),
        (FlatBundleFamily.from_braid(
            made_braid([[0, -1], [1, 1]], 2, [([0, 0], 2)])), 8, 6),
        (FlatBundleFamily.from_braid(winding_braid()), 16, 16),
    ], ids=["smooth", "readme", "order4", "order6", "winding"])
    def test_order_is_exact(self, family, n, order):
        """The integer order is the least power of U that is the identity
        on random data of every kind."""
        seam = seam_of(family, n)
        assert seam.order == order
        rng = np.random.default_rng(1)
        N = len(seam.perm)
        probes = {kind: rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape)
                  for kind, shape in (("scalar", (n, n)),
                                      ("form", (2, n, n)),
                                      ("section", (N, n, n)),
                                      ("form01", (N, n, n)))}

        def moved(r):
            out = {}
            for kind, arr in probes.items():
                for _ in range(r):
                    arr = seam.apply(arr, kind)
                out[kind] = float(np.max(np.abs(arr - probes[kind])))
            return max(out.values())

        assert moved(order) < 1e-12
        for p in (2, 3, 5):
            if order % p == 0:
                assert moved(order // p) > 1e-3

    def test_rejects_grid_map_without_unit_determinant(self):
        with pytest.raises(PeriodicityMismatch):
            SeamGluing(FlatCurve(1j, 8), 2 * np.eye(2, dtype=int), (0,),
                       np.zeros((1, 2)), np.zeros((1, 2), int))

    @pytest.mark.parametrize("name", list(MOVING_BRAIDS))
    def test_moving_active_strand_refines(self, moving_strand_configs, name):
        """A braid refined with its moving strand active, on seams of order
        2, 4 and 6, contracts quadratically at eps 0.2."""
        _, log = newton_refine(moving_strand_configs[name], eps=0.2)
        res = [entry["residual_0_2_eps"] for entry in log]
        assert res[0] > 1.0
        assert res[-1] < 1e-9
        for a, b in zip(res, res[1:]):
            if a < 1e-1:
                assert b < 10 * a ** 2


class TestLinearization:
    def test_quadratic_split_exact(self, Xi):
        rng = np.random.default_rng(5)
        xi = random_tangent(Xi, rng)
        lhs = sw_map(config_update(Xi, xi), 0.2)
        f0 = sw_map(Xi, 0.2)
        lin = dsw_apply(Xi, xi, 0.2)
        quad = quadratic_term(Xi, xi, 0.2)
        parts = []
        for name in ("a", "phi", "v", "c", "psi"):
            d = getattr(lhs, name) - getattr(f0, name) \
                - getattr(lin, name) - getattr(quad, name)
            parts.append(float(np.max(np.abs(d))))
        scale = max(xi.sup(), 1.0)
        assert max(parts) < 1e-10 * scale

    def test_quadratic_term_homogeneous(self, Xi):
        rng = np.random.default_rng(9)
        xi = random_tangent(Xi, rng)
        q1 = quadratic_term(Xi, xi, 0.2)
        q2 = quadratic_term(Xi, xi.scale(2.0), 0.2)
        for name in ("a", "phi", "v", "c", "psi"):
            d = getattr(q2, name) - 4.0 * getattr(q1, name)
            assert float(np.max(np.abs(d))) < 1e-12

    def test_linearization_symmetric(self, Xi):
        # the unweighted block operator is symmetric in the eps inner product
        rng = np.random.default_rng(11)
        for eps in (1.0, 0.2):
            u = random_tangent(Xi, rng)
            w = random_tangent(Xi, rng)
            lhs = ip3(Xi, linearize_apply(Xi, u, eps), w, eps)
            rhs = ip3(Xi, u, linearize_apply(Xi, w, eps), eps)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) < 1e-10 * scale

    @pytest.mark.parametrize("eps", [0.2, 0.05])
    @pytest.mark.parametrize("name", ["smooth", *MOVING_BRAIDS])
    def test_matches_block_sum(self, Xi, moving_strand_configs, name, eps):
        """The mode symbol plus the pointwise coupling is the block
        operator, on full-band complex tangents and with V, b != 0."""
        rng = np.random.default_rng(17)

        def noise(arr):
            return rng.standard_normal(arr.shape) \
                + 1j * rng.standard_normal(arr.shape)

        base = Xi if name == "smooth" else moving_strand_configs[name]
        base = replace(base, V=noise(base.V), b=noise(base.b))
        xi = Tangent3D(*map(noise, rows(Tangent3D.zero(base))))
        got = linearize_apply(base, xi, eps)
        want = block_sum(base, xi, eps)
        for row, g, w in zip(ROWS, rows(got), rows(want)):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), row

    def test_preconditioner_inverts_the_symbol(self, Xi):
        """On the zero background D_eps is its mode symbol: the
        preconditioner undoes it on every mode but the mean, to the
        PRECONDITIONER_DELTA shift, and leaves the mean as it is."""
        flat = replace(Xi, dev=0 * Xi.dev, Phi=0 * Xi.Phi, V=0 * Xi.V,
                       b=0 * Xi.b, Psi=0 * Xi.Psi, cq=0 * Xi.cq)
        symbol = monopole._ModeSymbol(flat, 0.2)
        xi = random_tangent(flat, np.random.default_rng(19))
        xi = Tangent3D(*(f - np.mean(f, axis=(0, -2, -1), keepdims=True)
                         for f in rows(xi)))
        back = symbol.precondition(linearize_apply(flat, xi, 0.2, symbol))
        for row, b, f in zip(ROWS, rows(back), rows(xi)):
            assert np.max(np.abs(b - f)) < 1e-2 * np.max(np.abs(f)), row
        mean = Tangent3D(*map(np.ones_like, rows(Tangent3D.zero(flat))))
        for row, k in zip(ROWS, rows(symbol.precondition(mean))):
            assert np.max(np.abs(k - 1.0)) < 1e-12, row

    def test_finite_difference_oracle(self, Xi):
        rng = np.random.default_rng(13)
        xi = random_tangent(Xi, rng)
        h = 1e-5
        fp = sw_map(config_update(Xi, xi.scale(h)), 0.2)
        fm = sw_map(config_update(Xi, xi.scale(-h)), 0.2)
        lin = dsw_apply(Xi, xi, 0.2)
        for name in ("a", "phi", "v", "c", "psi"):
            fd = (getattr(fp, name) - getattr(fm, name)) / (2 * h)
            err = float(np.max(np.abs(fd - getattr(lin, name))))
            assert err < 1e-5


class TestIdentities:
    def test_needs_a_sample(self, Xi):
        with pytest.raises(ValueError):
            identity_check(Xi, samples=0)

    def test_structural_identities(self, Xi):
        out = identity_check(Xi, samples=6, seed=3)
        assert out["identity0"] < 1e-8
        assert out["identity1"] < 1e-8
        assert out["identity2"] < 1e-7

    def test_non_finite_residual_raises(self, Xi, monkeypatch):
        """A NaN residual after a finite one is not read as 0."""
        results = iter([(1e-9, 0.0, 0.0), (np.nan, 0.0, 0.0)])
        monkeypatch.setattr(monopole, "_identity_residuals",
                            lambda *args: next(results))
        with pytest.raises(Divergence):
            identity_check(Xi, samples=2)


class TestNewton:
    def test_refine_converges_quadratically(self, Xi):
        refined, log = newton_refine(Xi, eps=0.2)
        res = [entry["residual_0_2_eps"] for entry in log]
        assert res[-1] < 1e-9
        # quadratic contraction on the middle iterations
        for a, b in zip(res, res[1:]):
            if a < 1e-1 and b > 1e-13:
                assert b < 10 * a ** 2
        dist = config_norm_diff(refined, Xi, eps=0.2).value
        assert 0 < dist < 1.0

    @pytest.mark.parametrize("mu, eps", [(MU, 0.2), (MU, 0.1), (1j, 0.1)])
    def test_base_point_refines(self, base_point_configs, mu, eps):
        _, log = newton_refine(base_point_configs[mu], eps)
        assert log[-1]["residual_0_2_eps"] < NEWTON_TOL

    def test_log_counts_gmres_products(self, base_point_configs,
                                       monkeypatch):
        calls = counting_products(monkeypatch)
        _, log = newton_refine(base_point_configs[MU], 0.1)
        assert sum(e["gmres_products"] for e in log) == len(calls) > 0
        closing = log[-1]
        assert closing["gmres_rtol"] == 0.0
        assert closing["gmres_products"] == 0
        for entry in log[:-1]:
            assert GMRES_TOL <= entry["gmres_rtol"] <= FORCING_MAX
            assert entry["gmres_products"] > 0
        # loose far from the solution, tight near it
        assert log[0]["gmres_rtol"] == FORCING_MAX
        assert log[-2]["gmres_rtol"] < 1e-2 * FORCING_MAX

    def test_forcing_term(self):
        assert monopole.forcing_term(10.0) == FORCING_MAX
        assert monopole.forcing_term(1e-2) == pytest.approx(1e-4)
        assert monopole.forcing_term(3e-5) == GMRES_TOL
        # near the solution the safeguard asks for eta * r = 1e-4 NEWTON_TOL
        assert monopole.forcing_term(1e-8) == pytest.approx(1e-5)
        for r in NEWTON_TOL * 10.0 ** np.arange(0.0, 11.0):
            assert GMRES_TOL <= monopole.forcing_term(r) <= FORCING_MAX

    def test_solve_failure_carries_solver_counters(self, base_point_configs,
                                                   monkeypatch):
        calls = counting_products(monkeypatch)
        monkeypatch.setattr(monopole, "GMRES_MAXITER", 1)
        with pytest.raises(LinearSolveFailure) as info:
            newton_refine(base_point_configs[MU], 0.1)
        detail = info.value.detail
        assert detail["iteration"] == 0
        assert detail["info"] > 0
        assert detail["rtol"] == FORCING_MAX
        assert detail["rhs_norm"] > 0
        assert detail["products"] == len(calls) > 0
        assert FORCING_MAX < detail["residual"] < math.inf
        json.dumps(info.value.to_json(), allow_nan=False)

    @pytest.mark.parametrize("eps", [0.0, -0.2, math.nan, math.inf, 1e-300,
                                     1e-160, 1e-78, 1e80, 1e300])
    @pytest.mark.filterwarnings("error")
    def test_eps_out_of_range_refused(self, coarse_Xi, eps):
        """eps must be positive with eps^4 and 1/eps^4 finite and nonzero:
        1e-300 squares to 0 and 1e-160 to a subnormal whose inverse
        overflows, and 1e300 ** 2 raises OverflowError."""
        for fn in (newton_refine, sw_map):
            with pytest.raises(ValueError, match="eps must be positive"):
                fn(coarse_Xi, eps)

    def test_eps_range_ends(self):
        for eps in (1e-77, 1e76):
            assert monopole.check_eps(eps) == eps

    def test_growing_residual_diverges(self, coarse_Xi, monkeypatch):
        """Steps of -4 times the right-hand side raise the residual twice;
        the error carries the log of the two steps taken."""
        monkeypatch.setattr(monopole, "_gmres",
                            lambda mv, pc, b, rtol: (-4 * b, 0, 0.0))
        with pytest.raises(Divergence) as info:
            newton_refine(coarse_Xi, 0.2)
        assert (info.value.code, info.value.exit_code) == ("divergence", 2)
        log = info.value.detail["log"]
        assert [e["k"] for e in log] == [0, 1]
        assert log[1]["residual_0_2_eps"] > log[0]["residual_0_2_eps"]

    def test_non_finite_residual_diverges_before_any_solve(self, coarse_Xi,
                                                           monkeypatch):
        """A NaN in Phi makes the first residual NaN: Divergence at k = 0
        with an empty log, and no GMRES solve."""
        def no_solve(*args):
            raise AssertionError("GMRES called on a non-finite residual")

        monkeypatch.setattr(monopole, "_gmres", no_solve)
        Phi = coarse_Xi.Phi.copy()
        Phi[0, 0, 0, 0] = np.nan
        with pytest.raises(Divergence, match="not finite") as info:
            newton_refine(replace(coarse_Xi, Phi=Phi), 0.2)
        assert info.value.detail["log"] == []
        assert math.isnan(info.value.detail["residual"])
        json.dumps(info.value.to_json(), allow_nan=False)

    def test_converging_on_the_last_step_closes_the_log(self, coarse_Xi,
                                                        monkeypatch):
        """At eps = 0.2 the refinement converges after three steps; with
        three allowed, the log still ends with its closing entry."""
        monkeypatch.setattr(monopole, "NEWTON_MAX_ITER", 3)
        _, log = newton_refine(coarse_Xi, 0.2)
        assert [e["k"] for e in log] == [0, 1, 2, 3]
        assert log[-1]["residual_0_2_eps"] < NEWTON_TOL
        assert log[-1]["gmres_products"] == 0
        assert all(e["gmres_products"] > 0 for e in log[:-1])

    def test_iteration_cap_raises(self, coarse_Xi, monkeypatch):
        monkeypatch.setattr(monopole, "NEWTON_MAX_ITER", 2)
        with pytest.raises(NonConvergence) as info:
            newton_refine(coarse_Xi, 0.2)
        assert (info.value.code, info.value.exit_code) == \
            ("non_convergence", 2)
        detail = info.value.detail
        assert detail["residual"] == pytest.approx(1.68e-6, rel=1e-2)
        assert [e["k"] for e in detail["log"]] == [0, 1]
        json.dumps(info.value.to_json(), allow_nan=False)


def counted(fn, calls):
    """``fn`` appending to ``calls`` at each call."""
    def wrapped(vec):
        calls.append(1)
        return fn(vec)
    return wrapped


class TestGmres:
    """``monopole._gmres`` against scipy's ``gmres``, the algorithm it
    ports, with the same restart, cycle cap and tolerances."""

    @staticmethod
    def scipy_gmres(mv, pc, b, rtol):
        from scipy.sparse.linalg import LinearOperator, gmres
        shape = (len(b), len(b))
        return gmres(LinearOperator(shape, matvec=mv, dtype=float), b,
                     rtol=rtol, atol=0.0, restart=60,
                     M=LinearOperator(shape, matvec=pc, dtype=float),
                     maxiter=monopole.GMRES_MAXITER)

    def test_matches_scipy_on_the_newton_systems(self, coarse_Xi,
                                                 monkeypatch):
        """Each step's system of the n = 8, m = 8 refinement at eps 0.2,
        solved by both while the step's operator is current: the same
        solution to 1e-10 and the same products to within one."""
        solves = []
        original = monopole._gmres

        def compared(mv, pc, b, rtol):
            ours, theirs = [], []
            out = original(counted(mv, ours), pc, b, rtol)
            ref = self.scipy_gmres(counted(mv, theirs), pc, b, rtol)
            solves.append((out, ref, rtol, len(ours), len(theirs)))
            return out

        monkeypatch.setattr(monopole, "_gmres", compared)
        newton_refine(coarse_Xi, 0.2)
        assert len(solves) == 3
        for (x, info, residual), (ref, ref_info), rtol, ours, theirs \
                in solves:
            assert info == ref_info == 0
            assert residual <= rtol
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert abs(ours - theirs) <= 1

    def test_restarts_on_a_dense_nonsymmetric_system(self):
        """n = 200 with eigenvalues spread over [1, 100]: more than one
        60-product cycle reaches rtol, as scipy does."""
        rng = np.random.default_rng(0)
        n, rtol = 200, 1e-10
        A = np.diag(np.linspace(1.0, 100.0, n)) \
            + rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal(n)
        calls = []
        x, info, residual = monopole._gmres(counted(lambda v: A @ v, calls),
                                            lambda v: v, b, rtol)
        assert info == 0
        assert len(calls) > 61
        assert np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)
        assert residual == pytest.approx(
            np.linalg.norm(b - A @ x) / np.linalg.norm(b), rel=1e-6)
        ref, ref_info = self.scipy_gmres(lambda v: A @ v, lambda v: v, b,
                                         rtol)
        assert ref_info == 0
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_zero_rhs_takes_no_product(self):
        def never(vec):
            raise AssertionError("no product for a zero right-hand side")

        x, info, residual = monopole._gmres(never, never, np.zeros(12), 1e-8)
        assert (info, residual) == (0, 0.0)
        assert np.array_equal(x, np.zeros(12))


class TestSerialization:
    def test_save_config3d(self, Xi, tmp_path):
        files = save_config3d(str(tmp_path / "xi"), Xi, eps=0.2)
        assert len(files) >= 1
        for f in files:
            assert os.path.exists(f)
        with open(files[0] + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["twists"] == Xi.twists.tolist()
        assert "holonomies" not in sidecar


class TestTangent:
    def test_random_tangent_shapes_and_zero(self, Xi):
        rng = np.random.default_rng(1)
        xi = random_tangent(Xi, rng)
        z = Tangent3D.zero(Xi)
        assert xi.a.shape == z.a.shape
        assert xi.psi.shape == z.psi.shape
        assert z.sup() == 0.0
        assert xi.sup() > 0.0

    def test_coarse_grid_keeps_constant_tangents(self):
        """At n = 8 an order-6 seam whose grid map spreads modes by 5
        leaves no spatial band: the tangent is finite and spatially
        constant."""
        family = FlatBundleFamily.from_braid(
            made_braid([[-2, -3], [1, 1]], 1, [([0, 0], 1)]))
        curve = FlatCurve(invariant_modulus(family.mc.fstar.to_lists()), 8)
        Xi = assemble_adiabatic(transported(curve, family, 0, 32), family, 8)
        with np.errstate(all="raise"):
            xi = random_tangent(Xi, np.random.default_rng(4))
        for field in rows(xi):
            assert np.all(np.isfinite(field))
            assert np.allclose(field, field[..., :1, :1], atol=1e-14)
        assert xi.sup() > 0.0

    def test_ip3_positive(self, Xi):
        rng = np.random.default_rng(2)
        xi = random_tangent(Xi, rng)
        assert ip3(Xi, xi, xi, 0.3) > 0.0
