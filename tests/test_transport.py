"""Parallel transport of framed vortices and numeric monodromy."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

import adiabat.transport
from adiabat.braid import braid_construct, braid_permutation, braid_validate
from adiabat.errors import AmbiguousMatch, SingularOperator, TrackingLoss
from adiabat.monopole import assemble_adiabatic
from adiabat.topology import validate_mapping_class
from adiabat.transport import (PsiOperator, VortexStack, apply_psi_operator,
                               aux_spinor, match_strands, numeric_monodromy,
                               solve_psi, transport, transport_stack,
                               transported, vortex_seed)
from adiabat.vortexfield import (TWO_PI, Dolbeault, FlatBundleFamily,
                                 FlatCurve, HolonomyPath, form_q,
                                 smooth_family, tau_profile, vortex_solve)
from adiabat.zlattice import IntMatrix, cokernel

from tests.test_braid import even_winding_braid, odd_winding_braid

MU = 0.2 + 1.0j
MINUS_ID = IntMatrix.from_rows([[-1, 0], [0, -1]])


def criterion_6_braids():
    """The ten f* = -id braids of acceptance criterion 6 (same seed)."""
    mc = validate_mapping_class(1, MINUS_ID)
    grp = cokernel(mc.one_minus_fstar)
    elems = [grp.normalize(list(w)) for w in grp.elements()]
    rng = random.Random(101)
    for i in range(10):
        N = 2 + (i % 2)
        targets = {}
        for _ in range(rng.randint(0, N)):
            c = rng.choice(elems)
            targets[c] = targets.get(c, 0) + 1
        yield braid_validate(braid_construct(mc, targets, N))


def final_states(curve, family, starts, steps, tol):
    for states in transport_stack(curve, family, starts, steps, tol):
        pass
    return states


def psi_composition(stack, q_dev, Psi):
    """dbar_beta dbar_beta* Psi + (1/2) <Psi, Phi> Phi, composed on twisted
    samples from ``vortexfield.Dolbeault``."""
    curve = stack.curve
    q = form_q(curve, stack.alpha[:, 0], stack.alpha[:, 1])[:, None] \
        + np.asarray(q_dev)[..., None, None]
    dbar = Dolbeault(curve, stack.twists, q)
    pair = np.sum(Psi * np.conj(stack.Phi), axis=-3)
    return dbar.apply(dbar.adjoint(Psi)) + 0.5 * pair[:, None] * stack.Phi, \
        dbar


def random_sections(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


HOL = np.array([[0.13, -0.21], [-0.32, 0.05]])


def twisted_stack():
    """K = 1, N = 2 with twisted components, under a spatial tau."""
    curve = FlatCurve(MU, 16)
    cfg, _ = vortex_solve(curve, HOL, 0, tau_profile)
    return VortexStack.of([cfg]), np.array([0.02 + 0.01j, -0.015 + 0.03j])


def stack_of_twists():
    """K = 3 configurations with their own (N, 2) twists: (K, N, 2)."""
    curve = FlatCurve(MU, 16)
    cfgs = [vortex_solve(curve, HOL + shift, k, 2.0)[0]
            for k, shift in ((0, 0.0), (1, 0.07), (0, -0.11))]
    stack = VortexStack.of(cfgs)
    assert stack.twists.shape == (3, 2, 2)
    return stack, np.array([0.01j, -0.02 + 0.005j])


class TestSolvePsi:
    @pytest.mark.parametrize("make", [twisted_stack, stack_of_twists])
    def test_mode_product_matches_composition(self, make):
        """The product on untwisted modes is the twisted-sample composition
        of the Dolbeault operator and its adjoint plus the pairing term."""
        stack, q_dev = make()
        curve = stack.curve
        Psi = random_sections(np.random.default_rng(3), stack.Phi.shape)
        want, _ = psi_composition(stack, q_dev, Psi)
        op = PsiOperator(stack, q_dev)
        got = apply_psi_operator(op, curve.to_modes(Psi, stack.twists))
        got = curve.from_modes(got, stack.twists)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_residual_small(self):
        rng = np.random.default_rng(2)
        curve = FlatCurve(MU, 16)
        cfg, _ = vortex_solve(curve, HOL, 0, 2.0)
        q_dev = np.array([0.02 + 0.01j, -0.015 + 0.03j])
        rhs_m = np.zeros((2, 16, 16), complex)
        rhs_m[:, :3, :3] = rng.standard_normal((2, 3, 3)) \
            + 1j * rng.standard_normal((2, 3, 3))
        rhs = np.fft.ifft2(rhs_m, norm="forward")
        stack = VortexStack.of([cfg])
        Psi, dbar_adj_Psi = solve_psi(PsiOperator(stack, q_dev), rhs[None])
        image, dbar = psi_composition(stack, q_dev, Psi)
        resid = image[0] - rhs
        assert float(np.max(np.abs(resid))) < 1e-9 * float(np.max(np.abs(rhs)))
        want = dbar.adjoint(Psi)
        assert np.max(np.abs(dbar_adj_Psi - want)) \
            < 1e-13 * np.max(np.abs(want))

    def test_stalled_solve_raises_singular_operator(self, monkeypatch):
        curve = FlatCurve(MU, 16)
        cfg, _ = vortex_solve(curve, HOL, 0, 2.0)
        op = PsiOperator(VortexStack.of([cfg]), [0.02 + 0.01j, 0.03j])
        rhs = np.random.default_rng(1).standard_normal((1, 2, 16, 16)) + 0j
        monkeypatch.setattr(adiabat.transport, "PSI_MAXITER", 1)
        with pytest.raises(SingularOperator) as info:
            solve_psi(op, rhs)
        assert info.value.detail["maxiter"] == 1

    def test_batched_systems_stop_on_their_own_residuals(self):
        """A zero, a 1e-8-scale and an O(1) right-hand side in one stack:
        each system meets its own relative residual and matches scipy's cg
        on that system alone."""
        rng = np.random.default_rng(4)
        curve = FlatCurve(MU, 16)
        tau = 2.0 + 0.4 * np.cos(2 * np.pi * curve.grid()[0])
        cfg, _ = vortex_solve(curve, HOL, 0, lambda X, Y: tau)
        q_dev = np.array([0.02 + 0.01j, -0.015 + 0.03j])
        shape = (2, 16, 16)
        rhs = np.zeros((3,) + shape, complex)
        for k, scale in ((1, 1e-8), (2, 1.0)):
            rhs[k] = scale * (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        stack = VortexStack.of([cfg] * 3)
        Psi = solve_psi(PsiOperator(stack, q_dev), rhs)[0]
        assert not Psi[0].any()
        resid = psi_composition(stack, q_dev, Psi)[0] - rhs
        one = PsiOperator(VortexStack.of([cfg]), q_dev)
        size = rhs[0].size

        def single(fn):
            """fn on the modes of one (N, n, n) system, as a scipy
            operator."""
            def mv(x):
                return fn(x.reshape((1,) + shape)).ravel()
            return LinearOperator((size, size), matvec=mv, dtype=complex)

        for k in (1, 2):
            assert np.linalg.norm(resid[k]) <= 1e-12 * np.linalg.norm(rhs[k])
            ref, info = cg(single(lambda x: apply_psi_operator(one, x)),
                           curve.to_modes(rhs[k], cfg.twists).ravel(),
                           rtol=1e-12, atol=0.0,
                           M=single(one.precondition), maxiter=2000)
            assert info == 0
            ref = curve.from_modes(ref.reshape(shape), cfg.twists)
            err = np.max(np.abs(Psi[k] - ref))
            assert err <= 1e-10 * np.max(np.abs(ref))

    def test_one_transform_each_way_per_product(self, monkeypatch):
        """A product makes one forward and one inverse 2D transform of
        numpy's, whatever the stack."""
        stack, q_dev = stack_of_twists()
        op = PsiOperator(stack, q_dev)
        psi_hat = random_sections(np.random.default_rng(5), stack.Phi.shape)
        calls = {"forward": 0, "inverse": 0}

        def counted(fn, way):
            def wrapper(*args, **kwargs):
                calls[way] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, way in (("fft2", "forward"), ("fftn", "forward"),
                          ("ifft2", "inverse"), ("ifftn", "inverse")):
            monkeypatch.setattr(np.fft, name,
                                counted(getattr(np.fft, name), way))
        apply_psi_operator(op, psi_hat)
        assert calls == {"forward": 1, "inverse": 1}

    def test_transport_makes_at_most_2100_products(self,
                                                   spatial_tau_transport):
        """A 64-step transport of the spatial-tau smooth family at n = 16
        makes at most 2100 CG products (3460 with the preconditioner
        blind to the connection's mean)."""
        _, products = spatial_tau_transport
        assert 0 < products <= 2100

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_drifted_connection_takes_eight_products(self, monkeypatch,
                                                     spatial_tau_transport,
                                                     t):
        """The preconditioner follows the mean of the connection, which
        drifts in the b = 0 gauge: a cold K = 1 solve at the trace states
        t = 0, 1/2 and 1 takes at most 8 products (8, 18 and 26 without
        the mean)."""
        trace, _ = spatial_tau_transport
        state, = [s for s in trace.states if s.t == t]
        products = count_products(monkeypatch)
        adiabat.transport._velocities(VortexStack.of([state.cfg]),
                                      smooth_family(tau_profile), t)
        assert 0 < len(products) <= 8


def count_products(monkeypatch):
    """Count ``apply_psi_operator`` calls, the Psi CG products."""
    products = []
    original = adiabat.transport.apply_psi_operator

    def counting(op, psi_hat):
        products.append(1)
        return original(op, psi_hat)

    monkeypatch.setattr(adiabat.transport, "apply_psi_operator", counting)
    return products


@pytest.fixture(scope="module")
def spatial_tau_transport():
    """The 64-step transport of the spatial-tau smooth family at n = 16,
    and the CG products it made."""
    with pytest.MonkeyPatch.context() as mp:
        products = count_products(mp)
        trace = transported(FlatCurve(MU, 16), smooth_family(tau_profile),
                            0, 64)
    return trace, len(products)


def readme_family():
    """The README braid: two constant strands over f* = -id."""
    mc = validate_mapping_class(1, MINUS_ID)
    b = braid_validate(braid_construct(mc, {(0, 1): 1, (1, 0): 1}, 2))
    return FlatBundleFamily.from_braid(b, tau_bar=2.0)


def moving_family():
    """The -id braid with targets [0, 1] x 2: strand 0 is constant, strand
    1 moves."""
    mc = validate_mapping_class(1, MINUS_ID)
    b = braid_validate(braid_construct(mc, {(0, 1): 2}, 2))
    return FlatBundleFamily.from_braid(b, tau_bar=2.0)


def as_functions(family):
    """The family with each path rebuilt from its functions alone, so that
    no path is known to be constant and its transport integrates."""
    return replace(family, paths=[HolonomyPath(p, p.deriv, p.breaks)
                                  for p in family.paths])


class TestStationary:
    """Where the right-hand side c Phi vanishes, Psi = 0 with no solve, and
    a stack whose sections sit only on constant strands takes no step."""

    @pytest.mark.parametrize("path, constant", [
        (HolonomyPath.piecewise_linear([(0, 0.3, 0.1), (0.5, 0.3, 0.1),
                                        (1, 0.3, 0.1)]), True),
        (HolonomyPath.piecewise_linear([(0, 0.3, 0.1), (0.5, 0.4, 0.1),
                                        (1, 0.3, 0.1)]), False),
        (HolonomyPath.trigonometric([0.3, 0.1], [0, 0]), True),
        (smooth_family().paths[0], False),
        (HolonomyPath(lambda t: (0.3, 0.1), lambda t: (0.0, 0.0)), False)])
    def test_constant_paths(self, path, constant):
        """Equal points or zero winding and amplitude make a constant path;
        a moved point, a winding, or a path given only by functions may
        move."""
        assert path.constant is constant

    @pytest.mark.parametrize("make, strands", [(readme_family, (0, 1)),
                                               (moving_family, (0,))])
    def test_still_stack_takes_no_step(self, monkeypatch, make, strands):
        """(a) the README braid's two constant strands; (b) a K = 1 start
        of the constant strand of a braid whose other strand moves.  Neither
        calls ``_advance`` or ``_velocities``, and both yield steps + 1
        states, each equal to its start and, at the same times, bit for
        bit the states of the integrating loop on the same family given
        by functions."""
        curve = FlatCurve(MU, 8)
        family = make()
        starts = [vortex_seed(curve, family, k) for k in strands]
        steps = 8
        integrated = list(transport_stack(curve, as_functions(family),
                                          starts, steps, 1e-6))

        def refuse(*args):
            raise AssertionError("a still stack was integrated")

        monkeypatch.setattr(adiabat.transport, "_advance", refuse)
        monkeypatch.setattr(adiabat.transport, "_velocities", refuse)
        still = list(transport_stack(curve, family, starts, steps, 1e-6))
        assert len(still) == len(integrated) == steps + 1
        for got, want in zip(still, integrated):
            for a, b, start in zip(got, want, starts):
                assert a.t == b.t
                assert a.moment_residual == b.moment_residual
                for x, y, z in ((a.cfg.alpha, b.cfg.alpha, start.alpha),
                                (a.cfg.Phi, b.cfg.Phi, start.Phi)):
                    assert x.tobytes() == y.tobytes() == z.tobytes()
                assert a.psi.tobytes() == b.psi.tobytes()
                assert not a.psi.any()

    def test_moving_section_is_integrated(self, monkeypatch):
        """A stack that holds a section on a moving strand still advances."""
        curve = FlatCurve(MU, 8)
        family = moving_family()
        starts = [vortex_seed(curve, family, k) for k in range(2)]
        calls = []
        original = adiabat.transport._advance

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(adiabat.transport, "_advance", counting)
        final_states(curve, family, starts, 8, 1e-6)
        assert len(calls) >= 8

    @pytest.mark.parametrize("make, strands", [(readme_family, (0, 1)),
                                               (moving_family, (0,))])
    def test_zero_rhs_builds_no_operator(self, monkeypatch, make, strands):
        """(a) the README braid's two constant strands; (b) a K = 1 start
        of the constant strand of a braid whose other strand moves: its
        inactive summand is zero, so c Phi vanishes although c does not."""
        curve = FlatCurve(MU, 8)
        family = make()
        stack = VortexStack.of([vortex_seed(curve, family, k)
                                for k in strands])
        t = 0.3
        assert make is readme_family or family.velocities(t)[1].any()

        def refuse(*args):
            raise AssertionError("operator built for a zero right-hand side")

        monkeypatch.setattr(adiabat.transport, "PsiOperator", refuse)
        Psi, dbar_adj_Psi = aux_spinor(stack, family, t)
        for got in (Psi, dbar_adj_Psi):
            assert got.shape == stack.Phi.shape
            assert got.dtype == complex and not got.any()

    def test_moving_strand_in_the_stack_is_solved(self, monkeypatch):
        """A stack with one moving strand still goes through solve_psi."""
        curve = FlatCurve(MU, 8)
        family = moving_family()
        stack = VortexStack.of([vortex_seed(curve, family, k)
                                for k in range(2)])
        calls = []
        original = adiabat.transport.solve_psi

        def counting(op, rhs):
            calls.append(rhs.shape)
            return original(op, rhs)

        monkeypatch.setattr(adiabat.transport, "solve_psi", counting)
        Psi = aux_spinor(stack, family, 0.3)[0]
        assert calls == [stack.Phi.shape]
        assert not Psi[0].any() and Psi[1].any()


class TestTransport:
    def test_moment_map_preserved(self):
        curve = FlatCurve(MU, 16)
        trace = transported(curve, smooth_family(), 0, 60)
        assert max(s.moment_residual for s in trace.states) < 1e-6
        assert trace.final.t == 1.0

    def test_six_halvings_lose_track(self):
        """Eight steps on the spatial tau leave the moment map at t ~ 0.646
        even after six halvings of the step."""
        with pytest.raises(TrackingLoss) as info:
            transported(FlatCurve(MU, 16), smooth_family(tau_profile), 0, 8)
        assert (info.value.code, info.value.exit_code) == ("tracking_loss", 2)
        detail = info.value.detail
        assert detail["h"] == 1 / 512
        assert detail["t"] == pytest.approx(0.646, abs=1e-3)
        assert detail["residual"] > 1e-6

    def test_rejects_a_start_off_the_moment_map(self):
        curve = FlatCurve(MU, 16)
        family = smooth_family()
        start = vortex_seed(curve, family, 0)
        with pytest.raises(TrackingLoss, match="start configuration "
                           "violates the moment map") as info:
            transport(curve, family, replace(start, Phi=1.1 * start.Phi), 8)
        assert (info.value.code, info.value.exit_code) == ("tracking_loss", 2)

    @pytest.mark.parametrize("name", ["alpha", "Phi"])
    @pytest.mark.filterwarnings("error")
    def test_rejects_a_non_finite_start(self, name):
        """A start that is not finite is an input error, found before the
        moment check."""
        curve = FlatCurve(MU, 16)
        family = smooth_family()
        start = vortex_seed(curve, family, 0)
        bad = getattr(start, name).copy()
        bad.flat[0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            transport(curve, family, replace(start, **{name: bad}), 8)

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

    def test_only_failing_starts_are_halved(self, monkeypatch):
        """Strand 0 moves and needs halved steps at tol 1e-4; strand 1 is
        constant and does not.  Only strand 0 is redone, and each strand
        ends where its single-start run ends."""
        curve = FlatCurve(MU, 16)
        family = FlatBundleFamily(
            N=2, mc=validate_mapping_class(1, IntMatrix.identity(2)),
            closing_permutation=(0, 1),
            paths=[HolonomyPath.trigonometric([0.3, 0.1], [1, 0],
                                              amp=[0.15, -0.1]),
                   HolonomyPath.trigonometric([-0.2, 0.35], [0, 0])],
            tau_spatial=lambda X, Y: 2.0 + 0.5 * np.cos(2 * np.pi * X)
            * np.sin(2 * np.pi * Y) + 0.3 * np.sin(2 * np.pi * X))
        starts = [vortex_seed(curve, family, k) for k in range(2)]
        original = adiabat.transport._rk4_step
        sizes = []

        def counting(stack, *args):
            sizes.append(len(stack.Phi))
            return original(stack, *args)

        monkeypatch.setattr(adiabat.transport, "_rk4_step", counting)
        finals = final_states(curve, family, starts, 4, 1e-4)
        assert sizes.count(2) == 4 and 1 in sizes
        for start, final in zip(starts, finals):
            alone = transport(curve, family, start, 4, 1e-4).final
            assert alone.t == final.t == 1.0
            assert np.max(np.abs(final.cfg.Phi - alone.cfg.Phi)) < 1e-13
            for got, want in zip(final.cfg.alpha, alone.cfg.alpha):
                assert np.max(np.abs(got - want)) < 1e-13

    def test_trace_jsonl(self):
        curve = FlatCurve(MU, 16)
        trace = transported(curve, smooth_family(), 0, 20)
        first = json.loads(trace.states[0].to_json())
        assert first["t"] == 0.0


    def test_halfway_holonomy_is_ambiguous(self):
        """The tolerance is capped at half the strand separation, so a
        final holonomy exactly halfway between two strands matches both."""
        mc = validate_mapping_class(1, MINUS_ID)
        b = braid_validate(braid_construct(mc, {(0, 1): 1, (1, 0): 1}, 2))
        family = FlatBundleFamily.from_braid(b, tau_bar=2.0)
        a, c = np.mod(-family.holonomies(0.0), 1.0)
        assert np.max(np.abs(a - c)) == 0.5
        # F = -id, so the final holonomy -x pulls back to x
        halfway = -(a + np.array([0.25, 0.25]) * np.sign(c - a))
        with pytest.raises(AmbiguousMatch):
            match_strands(family, [halfway, -c], 1)
        assert match_strands(family, [-a, -c], 1) == (0, 1)

    def test_unmatched_holonomy_loses_track(self):
        family = readme_family()
        a, c = np.mod(-family.holonomies(0.0), 1.0)
        with pytest.raises(TrackingLoss, match="matches no strand") as info:
            match_strands(family, [-(a + 0.1), -c], 200)
        assert (info.value.code, info.value.exit_code) == ("tracking_loss", 2)


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

    def test_stack_matches_single_starts(self):
        """On the criterion-6 braids the stacked run ends where each
        strand's single-start run ends and reads the same permutation."""
        curve = FlatCurve(MU, 8)
        for b in criterion_6_braids():
            fam = FlatBundleFamily.from_braid(b, tau_bar=2.0)
            starts = [vortex_seed(curve, fam, k) for k in range(fam.N)]
            stacked = [s.holonomy
                       for s in final_states(curve, fam, starts, 50, 1e-6)]
            alone = [transport(curve, fam, s, 50).final.holonomy
                     for s in starts]
            assert np.max(np.abs(np.array(stacked) - alone)) <= 1e-12
            assert numeric_monodromy(curve, fam, b, steps=50) \
                == match_strands(fam, alone, 50)


def assert_psi_solves(trace, family):
    """Each state's psi solves the Psi equation at its time t, to 1e-10
    relative, checked through the twisted-sample composition with the
    right-hand side and flat deviation formed here from the family."""
    for state in trace.states:
        cfg = state.cfg
        curve = cfg.curve
        stack = VortexStack.of([cfg])
        adot = TWO_PI * family.velocities(state.t)
        c = form_q(curve, adot[:, 0], adot[:, 1])
        rhs = c[:, None, None] * cfg.Phi
        da = family.holonomies(state.t) - family.holonomies(0.0)
        q_dev = 2j * np.pi * form_q(curve, da[:, 0], da[:, 1])
        image = psi_composition(stack, q_dev, state.psi[None])[0][0]
        assert np.max(np.abs(image - rhs)) <= 1e-10 * np.max(np.abs(rhs))


class TestTracePsi:
    """The trace records the Psi of each state, and the assembly reads it."""

    def test_halved_step_states(self, monkeypatch):
        """A start whose steps are halved at tol 1e-4 under a spatial tau,
        where the Psi solves iterate."""
        curve = FlatCurve(MU, 16)
        family = smooth_family(tau_profile)
        steps = []
        original = adiabat.transport._rk4_step

        def counting(stack, *args):
            steps.append(1)
            return original(stack, *args)

        monkeypatch.setattr(adiabat.transport, "_rk4_step", counting)
        trace = transported(curve, family, 0, 4, tol=1e-4)
        assert len(steps) > 4
        assert_psi_solves(trace, family)

    @pytest.mark.parametrize("tau", [None, tau_profile])
    def test_breakpoint_state(self, tau):
        """The moving strand of a piecewise-linear braid: the state at the
        breakpoint t = 1/2 carries the next segment's Psi."""
        curve = FlatCurve(MU, 8)
        family = replace(moving_family(), tau_spatial=tau)
        trace = transported(curve, family, 1, 8)
        assert 0.5 in [s.t for s in trace.states]
        assert family.velocities(0.5)[1].any()
        assert_psi_solves(trace, family)

    def test_assembly_reads_psi_from_the_trace(self, monkeypatch):
        curve = FlatCurve(MU, 8)
        family = smooth_family(tau_profile)
        trace = transported(curve, family, 0, 32)

        def refuse(*args):
            raise AssertionError("the assembly solved a Psi equation")

        monkeypatch.setattr(adiabat.transport, "solve_psi", refuse)
        Xi = assemble_adiabatic(trace, family, 8)
        at = {s.t: s.psi for s in trace.states}
        for i in range(8):
            assert np.array_equal(Xi.Psi[i], at[i / 8])

    def test_constant_tau_takes_one_product_per_solve(self, monkeypatch):
        """Under constant tau the preconditioner is exact: a K = 2 stack
        makes one product per solve."""
        curve = FlatCurve(MU, 8)
        family = moving_family()
        starts = [vortex_seed(curve, family, k) for k in range(2)]
        counts = {"products": 0, "solves": 0}
        apply_op = adiabat.transport.apply_psi_operator
        solve = adiabat.transport.solve_psi

        def counting_apply(op, psi_hat):
            counts["products"] += 1
            return apply_op(op, psi_hat)

        def counting_solve(op, rhs):
            counts["solves"] += 1
            return solve(op, rhs)

        monkeypatch.setattr(adiabat.transport, "apply_psi_operator",
                            counting_apply)
        monkeypatch.setattr(adiabat.transport, "solve_psi", counting_solve)
        final_states(curve, family, starts, 8, 1e-6)
        assert counts["solves"] > 0
        assert counts["products"] == counts["solves"]
