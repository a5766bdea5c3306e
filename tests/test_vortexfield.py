"""Flat curves, twisted Dolbeault operators, and framed vortex solutions."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

import adiabat.vortexfield
from adiabat.errors import HolonomyMismatch, NonConvergence
from adiabat.vortexfield import (KW_CG_MAXITER, KW_CG_RTOL,
                                 TWIST_CACHE_SIZE, Dolbeault,
                                 FlatBundleFamily, FlatCurve,
                                 _kw_laplacian_symbol, d_scalar, d_star,
                                 hodge_star, integral,
                                 invariant_modulus, ip_form01,
                                 ip_section, load_field, moment_residual,
                                 pcg, save_field, save_vortex_config,
                                 smooth_family, star_d, vortex_solve,
                                 wrap_twist)

MU = 0.2 + 1.0j


def band_limited(rng, n, width=3):
    """Random smooth periodic grid function from a few low Fourier modes."""
    modes = np.zeros((n, n), complex)
    modes[:width, :width] = rng.standard_normal((width, width)) \
        + 1j * rng.standard_normal((width, width))
    modes[-width:, -width:] = rng.standard_normal((width, width)) \
        + 1j * rng.standard_normal((width, width))
    return np.fft.ifft2(modes, norm="forward")


class TestFlatCurve:
    def test_total_area(self):
        curve = FlatCurve(MU, 16)
        assert abs(integral(curve, np.ones((16, 16))) - 2 * math.pi) < 1e-12

    def test_spectral_derivative_exact_on_modes(self):
        curve = FlatCurve(MU, 16)
        X, Y = curve.grid()
        f = np.exp(2j * math.pi * (2 * X - Y))
        df = curve.spectral(f, curve.dz_symbol())
        # mode (m, k) = (2, -1) is an eigenvector of d/dz
        want = (math.pi / MU.imag) * (-1 - np.conj(MU) * 2)
        assert np.max(np.abs(df - want * f)) < 1e-10

    @pytest.mark.parametrize("modulus", [
        complex(0.0, math.inf),
        complex(math.nan, 1.0),
    ])
    def test_rejects_non_finite(self, modulus):
        with pytest.raises(ValueError):
            FlatCurve(modulus, 16)

    @pytest.mark.parametrize("fstar, mu", [
        ([[1, 0], [0, 1]], 1j),
        ([[-1, 0], [0, -1]], 1j),
        ([[0, -1], [1, 0]], 1j),
        ([[0, 1], [-1, 0]], 1j),
        ([[0, -1], [1, 1]], complex(-0.5, math.sqrt(0.75))),
        ([[-1, -1], [1, 0]], complex(-0.5, math.sqrt(0.75))),
        ([[0, -1], [1, -1]], complex(0.5, math.sqrt(0.75))),
        ([[2, 1], [1, 1]], 1j),
        ([[1, 1], [0, 1]], 1j),
    ])
    def test_invariant_modulus(self, fstar, mu):
        got = invariant_modulus(fstar)
        assert abs(got - mu) < 1e-15
        (c00, c10), (c01, c11) = fstar
        if abs(c00 + c11) < 2:
            # f preserves the structure: C10 mu^2 + (C00 - C11) mu = C01
            assert abs(c10 * got ** 2 + (c00 - c11) * got - c01) < 1e-15

    def test_wrap_twist_range(self):
        w = wrap_twist(np.array([0.7, -0.5, 1.2, -1.49]))
        assert np.all(w > -0.5 - 1e-12) and np.all(w <= 0.5 + 1e-12)


class TestDolbeault:
    @pytest.mark.parametrize("stacked", [False, True], ids=["q0", "q_stack"])
    def test_adjointness(self, stacked):
        """<dbar_beta s, w> = <s, dbar_beta* w>: with q = 0 on one section,
        and with a smooth q shared by the two components of a stack of
        three, which checks the w conj(q) term of the adjoint."""
        rng = np.random.default_rng(3)
        curve = FlatCurve(MU, 16)
        shape = (3, 2) if stacked else ()

        def field():
            return np.array([band_limited(rng, 16)
                             for _ in range(int(np.prod(shape)))]
                            ).reshape(shape + (16, 16))

        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, size=shape[1:] + (2,))
            q = 0.5 * field()[:, :1] if stacked else 0
            dbar = Dolbeault(curve, theta, q)
            s, w = field(), field()
            lhs = ip_form01(curve, dbar.apply(s), w)
            rhs = ip_section(curve, s, dbar.adjoint(w))
            assert abs(lhs - rhs) < 1e-10

    def test_untwisted_kernel_is_constants(self):
        curve = FlatCurve(MU, 16)
        out = Dolbeault(curve, (0.0, 0.0)).apply(np.ones((16, 16), complex))
        assert np.max(np.abs(out)) < 1e-12

    def test_twisted_operator_invertible_off_lattice(self):
        # generic twist: dbar has no kernel, lam never vanishes
        curve = FlatCurve(MU, 16)
        lam = curve.lam((0.23, 0.11))
        assert np.min(np.abs(lam)) > 1e-3


class TestBatchedOperators:
    """Each operator on an (m, N, n, n) stack matches it slice by slice."""

    M, N, n = 3, 2, 8
    TWISTS = np.array([[0.23, 0.11], [-0.4, 0.3]])

    @pytest.fixture()
    def stack(self):
        rng = np.random.default_rng(17)
        shape = (self.M, self.N, self.n, self.n)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def slicewise(fn, *arrs):
        """fn applied to each (n, n) slice of the (m, N, n, n) inputs."""
        m, N = arrs[0].shape[:2]
        return [[fn(*(a[i, j] for a in arrs)) for j in range(N)]
                for i in range(m)]

    @staticmethod
    def assert_matches(got, slices):
        want = np.array(slices)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13

    def test_spectral(self, stack):
        curve = FlatCurve(MU, self.n)
        sym = curve.dz_symbol()
        self.assert_matches(curve.spectral(stack, sym), self.slicewise(
            lambda f: curve.spectral(f, sym), stack))

    def test_twisted_spectral_inverts_in_place(self, stack, monkeypatch):
        """On a twisted (K, N, n, n) stack with (K, N, 2) twists the
        multiplier equals numpy's ifft2 of the product, bit for bit, and
        its inverse transform writes into the product it has just made."""
        curve = FlatCurve(MU, self.n)
        twists = np.random.default_rng(5).uniform(-0.5, 0.5,
                                                  (self.M, self.N, 2))
        sym = curve.lam(twists)
        coef = sym * curve.to_modes(stack, twists)
        want = np.fft.ifft2(coef, norm="forward") * curve.twist_phase(twists)
        in_place = []
        ifftn = np.fft.ifftn

        def recording(a, *args, **kwargs):
            in_place.append(kwargs.get("out") is a)
            return ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", recording)
        assert np.array_equal(curve.spectral(stack, sym, twists), want)
        assert in_place == [True]

    def test_d_scalar(self, stack):
        curve = FlatCurve(MU, self.n)
        self.assert_matches(d_scalar(curve, stack), self.slicewise(
            lambda f: d_scalar(curve, f), stack))

    @pytest.mark.parametrize("op", [star_d, d_star, hodge_star])
    def test_one_form_operators(self, stack, op):
        curve = FlatCurve(MU, self.n)
        forms = np.stack([stack, stack[::-1]], axis=-3)
        self.assert_matches(op(curve, forms), self.slicewise(
            lambda a: op(curve, a), forms))

    @pytest.mark.parametrize("op", ["apply", "adjoint"])
    def test_dolbeault(self, stack, op):
        curve = FlatCurve(MU, self.n)
        q = 0.3 * stack[:, :1] + 0.1j
        got = getattr(Dolbeault(curve, self.TWISTS, q), op)(stack)
        want = [[getattr(Dolbeault(curve, self.TWISTS[j], q[i, 0]), op)(
            stack[i, j]) for j in range(self.N)] for i in range(self.M)]
        self.assert_matches(got, want)

    def test_dolbeault_twist_count_checked(self, stack):
        dbar = Dolbeault(FlatCurve(MU, self.n), self.TWISTS[:1])
        for op in (dbar.apply, dbar.adjoint):
            with pytest.raises(HolonomyMismatch):
                op(stack)

    def test_cached_constants_read_only(self):
        curve = FlatCurve(MU, self.n)
        arrays = [*curve.grid(), *curve.modes(), curve.dz_symbol(),
                  curve.lam((0.23, 0.11)), curve.twist_phase((0.23, 0.11))]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        # built once per curve and once per twist
        assert curve.grid()[0] is curve.grid()[0]
        assert curve.lam((0.23, 0.11)) is curve.lam(np.array([0.23, 0.11]))

    def test_twist_stack_is_one_build(self):
        """A (3, 2, 2) stack of twists is built in one cache entry, and its
        phase, symbol and conjugate phase equal those of each twist alone
        bit for bit."""
        curve = FlatCurve(MU, self.n)
        twists = np.random.default_rng(3).uniform(-0.5, 0.5, (3, 2, 2))
        stacked = curve._twisted(twists)
        assert len(curve._twists) == 1
        for idx in np.ndindex(3, 2):
            for got, want in zip(stacked, curve._twisted(twists[idx])):
                assert np.array_equal(got[idx], want)

    def test_twist_cache_drops_the_oldest(self):
        """One twist more than the cache holds drops the first; built
        again, its symbol is equal bit for bit."""
        curve = FlatCurve(MU, self.n)
        twists = [(k / 128, 0.25) for k in range(TWIST_CACHE_SIZE + 1)]
        first = curve.lam(twists[0])
        for t in twists[1:]:
            curve.lam(t)
        assert len(curve._twists) == TWIST_CACHE_SIZE
        again = curve.lam(twists[0])
        assert again is not first
        assert np.array_equal(again, first)


class TestVortexSolve:
    HOL = np.array([[0.13, -0.21], [-0.32, 0.05]])

    def test_density_bound_and_mass(self):
        curve = FlatCurve(MU, 32)
        tau = 2.0
        cfg, increments = vortex_solve(curve, self.HOL, 0, tau)
        dens = np.sum(np.abs(cfg.Phi) ** 2, axis=0)
        assert float(np.max(dens)) <= 2 * tau + 1e-12
        # L2 mass of the framed solution: integral of 2 tau over the curve
        assert abs(cfg.phi_l2_sq() - 4 * math.pi * tau) < 1e-8
        assert moment_residual(cfg, tau) < 1e-10

    def test_newton_quadratic_contraction(self):
        # constant tau is solved by the flat ansatz, so perturb it
        curve = FlatCurve(MU, 32)

        def tau(X, Y):
            return 2.0 + 0.6 * np.cos(2 * np.pi * X)

        _, increments = vortex_solve(curve, self.HOL, 0, tau)
        incs = [x for x in increments if x > 1e-13]
        assert len(incs) >= 3
        for a, b in zip(incs[-3:], incs[-2:]):
            assert b < 10 * a ** 2

    def test_spatial_tau(self):
        curve = FlatCurve(MU, 32)

        def tau(X, Y):
            return 2.0 + 0.4 * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y)

        cfg, _ = vortex_solve(curve, self.HOL, 0, tau)
        X, Y = curve.grid()
        dens = np.sum(np.abs(cfg.Phi) ** 2, axis=0)
        # maximum principle bounds the density by the sup of 2 tau
        assert float(np.max(dens)) <= 2 * float(np.max(tau(X, Y))) + 1e-10
        assert moment_residual(cfg, tau) < 1e-10

    def test_section_is_holomorphic(self):
        curve = FlatCurve(MU, 32)
        cfg, _ = vortex_solve(curve, self.HOL, 0, 2.0)
        resid = cfg.dbar(cfg.Phi)[0]
        scale = float(np.max(np.abs(cfg.Phi[0])))
        assert float(np.max(np.abs(resid))) < 1e-9 * scale

    def test_inactive_summands_empty(self):
        curve = FlatCurve(MU, 32)
        cfg, _ = vortex_solve(curve, self.HOL, 1, 2.0)
        assert np.max(np.abs(cfg.Phi[0])) == 0
        assert np.max(np.abs(cfg.Phi[1])) > 0

    def test_large_tau_converges(self):
        # the residual's round-off floor grows with tau
        curve = FlatCurve(MU, 16)
        for tau in (1e4, 1e6):
            cfg, _ = vortex_solve(curve, [[0.1, 0.2]], 0, tau)
            assert moment_residual(cfg, tau) < 1e-12 * tau

    def test_inner_cg_failure_raises_non_convergence(self, monkeypatch):
        monkeypatch.setattr(adiabat.vortexfield, "KW_CG_MAXITER", 1)
        with pytest.raises(NonConvergence) as info:
            vortex_solve(FlatCurve(MU, 16), self.HOL, 0,
                         lambda X, Y: 2.0 + 0.6 * np.cos(2 * np.pi * X))
        assert info.value.detail["maxiter"] == 1

    def test_shared_cg_matches_scipy_on_a_kw_system(self):
        """The shared PCG on one Kazdan-Warner Jacobian system, as a stack
        of one, agrees with scipy's cg to 1e-12."""
        curve = FlatCurve(MU, 16)
        X, Y = curve.grid()
        sym = _kw_laplacian_symbol(curve)
        e2u = 4.0 + np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        inv = 1.0 / (sym + float(np.mean(e2u)))
        rhs = np.sin(2 * np.pi * (X + 2 * Y)) + 0.5 * np.cos(2 * np.pi * X)

        def apply(x):
            return np.real(curve.spectral(x, sym)) + e2u * x

        def precondition(x):
            return np.real(curve.spectral(x, inv))

        got = pcg(apply, precondition, rhs[None], KW_CG_RTOL,
                  KW_CG_MAXITER)[0]
        size = rhs.size

        def op(fn):
            return LinearOperator((size, size), dtype=float, matvec=lambda v:
                                  fn(v.reshape(rhs.shape)).ravel())

        ref, info = cg(op(apply), rhs.ravel(), rtol=KW_CG_RTOL, atol=0.0,
                       M=op(precondition), maxiter=KW_CG_MAXITER)
        assert info == 0
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gauge_transform_preserves_invariants(self):
        curve = FlatCurve(MU, 32)
        cfg, _ = vortex_solve(curve, self.HOL, 0, 2.0)
        X, Y = curve.grid()
        chi = 0.3 * np.sin(2 * np.pi * X) + 0.2 * np.cos(2 * np.pi * Y)
        cfg2 = cfg.apply_gauge(chi)
        assert abs(cfg2.phi_l2_sq() - cfg.phi_l2_sq()) < 1e-10
        assert moment_residual(cfg2, 2.0) < 1e-9
        assert np.max(np.abs(cfg2.holonomy() - cfg.holonomy())) < 1e-10


class TestFamily:
    def test_from_braid_matches_strands(self):
        from tests.test_braid import even_winding_braid
        b = even_winding_braid()
        fam = FlatBundleFamily.from_braid(b, tau_bar=2.0)
        fam.validate()
        hol = fam.holonomies(0.5)
        want = np.array([[float(x) for x in b.eval(k, 0.5)] for k in range(2)])
        assert np.max(np.abs(wrap_twist(hol - want))) < 1e-12

    def test_base_holonomies_evaluated_once(self):
        fam = smooth_family()
        base = fam.base_holonomies
        assert np.array_equal(base, fam.holonomies(0.0))
        assert fam.base_holonomies is base and not base.flags.writeable

    def test_velocities_match_finite_differences(self):
        path = smooth_family().paths[0]
        h = 1e-6
        for t in (0.2, 0.55, 0.9):
            fd = (path(t + h) - path(t - h)) / (2 * h)
            assert np.max(np.abs(path.deriv(t) - fd)) < 1e-6


class TestSerialization:
    def test_field_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        path = str(tmp_path / "field.npz")
        save_field(path, vals, {"note": "test", "k": 3, "n": 8})
        got, meta = load_field(path)
        assert np.array_equal(got, vals)
        assert meta["note"] == "test" and meta["k"] == 3

    def test_vortex_config_roundtrip(self, tmp_path):
        cfg, _ = vortex_solve(FlatCurve(MU, 8), [[0.13, -0.21], [-0.32, 0.05]],
                              0, 2.0)
        assert cfg.alpha.shape == (2, 8, 8)
        prefix = str(tmp_path / "v")
        save_vortex_config(prefix, cfg, 0.0)
        alpha, meta = load_field(prefix + ".alpha.f64")
        assert np.array_equal(alpha, cfg.alpha)
        assert meta["component"] == "alpha"
        for j in range(cfg.N):
            assert np.array_equal(load_field(f"{prefix}.phi{j}.f64")[0],
                                  cfg.Phi[j])
