"""Flat curves, twisted Dolbeault operators, and framed vortex solutions."""

import math

import numpy as np
import pytest

from adiabat.errors import NoHolomorphicSection
from adiabat.vortexfield import (FlatBundleFamily, FlatCurve,
                                 dolbeault_adjoint, dolbeault_apply, integral,
                                 ip_form01, ip_section, load_field,
                                 moment_residual, save_field, smooth_family,
                                 vortex_solve, wrap_twist)

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

    @pytest.mark.parametrize("modulus, area", [
        (complex(0.0, math.inf), 2 * math.pi),
        (complex(math.nan, 1.0), 2 * math.pi),
        (MU, math.nan),
    ])
    def test_rejects_non_finite(self, modulus, area):
        with pytest.raises(ValueError):
            FlatCurve(modulus, 16, area)

    def test_wrap_twist_range(self):
        w = wrap_twist(np.array([0.7, -0.5, 1.2, -1.49]))
        assert np.all(w > -0.5 - 1e-12) and np.all(w <= 0.5 + 1e-12)


class TestDolbeault:
    def test_adjointness(self):
        rng = np.random.default_rng(3)
        curve = FlatCurve(MU, 16)
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, size=2)
            s = band_limited(rng, 16)
            w = band_limited(rng, 16)
            lhs = ip_form01(curve, dolbeault_apply(curve, s, theta), w)
            rhs = ip_section(curve, s, dolbeault_adjoint(curve, w, theta))
            assert abs(lhs - rhs) < 1e-10

    def test_untwisted_kernel_is_constants(self):
        curve = FlatCurve(MU, 16)
        out = dolbeault_apply(curve, np.ones((16, 16), complex), (0.0, 0.0))
        assert np.max(np.abs(out)) < 1e-12

    def test_twisted_operator_invertible_off_lattice(self):
        # generic twist: dbar has no kernel, lam never vanishes
        curve = FlatCurve(MU, 16)
        lam = curve.lam((0.23, 0.11))
        assert np.min(np.abs(lam)) > 1e-3


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

    def test_zeta_mismatch_rejected(self):
        curve = FlatCurve(MU, 16)
        with pytest.raises(NoHolomorphicSection):
            vortex_solve(curve, self.HOL, 0, 2.0, zeta=np.array([0.4, 0.4]))

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
