"""Parallel transport of framed vortices and numeric monodromy."""

import json

import numpy as np
import pytest

from adiabat.braid import braid_permutation
from adiabat.transport import (apply_psi_operator, match_strands,
                               numeric_monodromy, solve_psi, transport,
                               transported)
from adiabat.vortexfield import (FlatBundleFamily, FlatCurve, smooth_family,
                                 vortex_solve)

from tests.test_braid import even_winding_braid, odd_winding_braid

MU = 0.2 + 1.0j


class TestSolvePsi:
    def test_residual_small(self):
        rng = np.random.default_rng(2)
        curve = FlatCurve(MU, 16)
        hol = np.array([[0.13, -0.21], [-0.32, 0.05]])
        cfg, _ = vortex_solve(curve, hol, 0, 2.0)
        q_dev = np.array([0.02 + 0.01j, -0.015 + 0.03j])
        rhs_m = np.zeros((2, 16, 16), complex)
        rhs_m[:, :3, :3] = rng.standard_normal((2, 3, 3)) \
            + 1j * rng.standard_normal((2, 3, 3))
        rhs = np.fft.ifft2(rhs_m, norm="forward")
        Psi = solve_psi(cfg, q_dev, rhs)
        resid = apply_psi_operator(cfg, q_dev, Psi) - rhs
        assert float(np.max(np.abs(resid))) < 1e-9 * float(np.max(np.abs(rhs)))


class TestTransport:
    def test_moment_map_preserved(self):
        curve = FlatCurve(MU, 16)
        trace = transported(curve, smooth_family(), 0, 60)
        assert trace.max_moment_residual() < 1e-6
        assert trace.final.t == 1.0

    def test_step_order_near_four(self):
        curve = FlatCurve(MU, 16)
        fam = smooth_family()

        def hol_at_end(steps):
            return transported(curve, fam, 0, steps).final.holonomy

        ref = hol_at_end(160)
        e1 = float(np.max(np.abs(hol_at_end(20) - ref)))
        e2 = float(np.max(np.abs(hol_at_end(40) - ref)))
        order = np.log2(e1 / e2)
        assert 3.3 < order < 5.0

    @pytest.mark.parametrize("steps, tol", [(0, 1e-6), (-3, 1e-6),
                                            (20, 0.0), (20, -1.0)])
    def test_rejects_bad_steps_and_tolerance(self, steps, tol):
        curve = FlatCurve(MU, 8)
        family = smooth_family()
        start, _ = vortex_solve(curve, family.holonomies(0.0), 0, 2.0)
        with pytest.raises(ValueError):
            transport(curve, family, start, steps, tol)

    def test_match_strands_rejects_zero_steps(self):
        family = smooth_family()
        with pytest.raises(ValueError):
            match_strands(family, [-family.holonomies(0.0)[0]], 0)

    def test_trace_jsonl(self):
        curve = FlatCurve(MU, 16)
        trace = transported(curve, smooth_family(), 0, 20)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == len(trace.states)
        first = json.loads(lines[0])
        assert first["t"] == 0.0


class TestNumericMonodromy:
    def test_even_winding_identity(self):
        curve = FlatCurve(MU, 16)
        b = even_winding_braid()
        fam = FlatBundleFamily.from_braid(b, tau_bar=2.0)
        perm = numeric_monodromy(curve, fam, b, steps=120)
        assert perm == braid_permutation(b) == (0, 1)

    def test_odd_winding_transposition(self):
        curve = FlatCurve(MU, 16)
        b = odd_winding_braid()
        fam = FlatBundleFamily.from_braid(b, tau_bar=2.0)
        perm = numeric_monodromy(curve, fam, b, steps=120)
        assert perm == braid_permutation(b) == (1, 0)
