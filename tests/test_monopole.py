"""Three-dimensional assembly, the epsilon-deformed map, and Newton descent."""

import numpy as np
import pytest

from adiabat.monopole import (Tangent3D, adiabatic_config,
                              adiabatic_residual, config_norm_diff,
                              config_update, dsw_apply, identity_check, ip3,
                              linearize_apply,
                              newton_refine, quadratic_term, random_tangent,
                              save_config3d, sw_map, weighted_norm)
from adiabat.vortexfield import FlatCurve, smooth_family

MU = 0.2 + 1.0j


@pytest.fixture(scope="module")
def Xi():
    return adiabatic_config(FlatCurve(MU, 12), smooth_family(), 16, 64)


class TestAssembly:
    def test_assembly_residual_small(self, Xi):
        assert adiabatic_residual(Xi, 0.2) < 1e-6

    def test_sw_norm_scales_linearly_in_eps(self, Xi):
        vals = [weighted_norm(Xi, sw_map(Xi, e), e).value for e in (0.2, 0.1)]
        ratio = vals[0] / vals[1]
        assert 1.6 < ratio < 2.4


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
    def test_structural_identities(self, Xi):
        out = identity_check(Xi, samples=6, seed=3)
        assert out["identity0"] < 1e-8
        assert out["identity1"] < 1e-8
        assert out["identity2"] < 1e-7


class TestNewton:
    def test_refine_converges_quadratically(self, Xi):
        refined, log = newton_refine(Xi, eps=0.2, tol=1e-9)
        res = [entry["residual_0_2_eps"] for entry in log]
        assert res[-1] < 1e-9
        # quadratic contraction on the middle iterations
        for a, b in zip(res, res[1:]):
            if a < 1e-1 and b > 1e-13:
                assert b < 10 * a ** 2
        dist = config_norm_diff(refined, Xi, eps=0.2).value
        assert 0 < dist < 1.0


class TestSerialization:
    def test_save_config3d(self, Xi, tmp_path):
        files = save_config3d(str(tmp_path / "xi"), Xi, eps=0.2)
        assert len(files) >= 1
        import os
        for f in files:
            assert os.path.exists(f)


class TestTangent:
    def test_random_tangent_shapes_and_zero(self, Xi):
        rng = np.random.default_rng(1)
        xi = random_tangent(Xi, rng)
        z = Tangent3D.zero(Xi)
        assert xi.a.shape == z.a.shape
        assert xi.psi.shape == z.psi.shape
        assert z.sup() == 0.0
        assert xi.sup() > 0.0

    def test_ip3_positive(self, Xi):
        rng = np.random.default_rng(2)
        xi = random_tangent(Xi, rng)
        assert ip3(Xi, xi, xi, 0.3) > 0.0
