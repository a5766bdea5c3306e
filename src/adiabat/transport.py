"""Symplectic parallel transport of vortex configurations.

The horizontal lift (A(t), Phi(t), Psi(t)) of a holonomy path solves

    i Adot = Re<Psi, Phi>,      i Phidot = dbar_beta* Psi,

where Psi is the unique solution of the elliptic equation

    dbar_beta dbar_beta* Psi + (1/2) <Psi, Phi> Phi = rhs,
    rhs_j = q(2 pi adot_j (dx,dy)) Phi_j,

beta_j being the evolving connection on summand j (the stored iR-valued
1-form alpha plus the flat deviation 2 pi i (a_j(t) - a_j(0)) (dx,dy)).
dbar_beta and its adjoint are one ``vortexfield.Dolbeault``, built once
per Psi equation from the twists and the dzbar coefficient of beta.  The
equation is solved on the untwisted Fourier modes of Psi, where the twist
phases drop out: a conjugate-gradient product is one inverse and one
forward 2D transform, and the phases touch only the right-hand side and
the solution, whose last inverse transform also gives dbar_beta* Psi.
Where rhs vanishes on the whole stack, as on a constant strand and on the
inactive summands of a seed, Psi = 0 is the solution and no operator is
built.  A stack with no section on a moving strand (one whose
``HolonomyPath.constant`` is False) has rhs = 0 at every t, so its
velocities vanish and the lift is the constant path: it is not integrated,
and every state is its start, with Psi = 0.
Integration is classical RK4 in the b = 0 gauge with substeps aligned to
the family's breakpoints; the moment-map residual is the step acceptance
criterion.  One integrator advances a stack of K starts of one family
together (the strands of a braid; a single start is K = 1): each RK stage
solves the K Psi equations with one call of the shared batched conjugate
gradients ``vortexfield.pcg``, and only the starts whose step fails the
residual test are redone in halves, so every start takes the steps it
would take alone.  Each Psi equation is solved once, from zero: the
velocities at a new state give the Psi the trace records for it and are
the next step's first stage.  The preconditioner inverts the symbol of the
operator's constant-coefficient part: the flat symbol plus the flat
deviation plus the mean of alpha's dzbar coefficient, which drifts in the
b = 0 gauge, and the mean density shift.  So a solve late in a transport
takes as many products as one at t = 0.  Monodromy matching uses the
gauge-invariant holonomy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .braid import TorusBraid, braid_validate
from .errors import (AmbiguousMatch, NonConvergence, SingularOperator,
                     TrackingLoss)
from .vortexfield import (TWO_PI, Dolbeault, FlatBundleFamily, FlatCurve,
                          VortexConfig, _tau_grid, form_q, moment_residuals,
                          pcg, toroidal_distance, vortex_solve, wrap_twist)


# conjugate-gradient iterations a Psi solve may take, and the residual
# reduction at which it stops
PSI_MAXITER = 2000
PSI_RTOL = 1e-12


@dataclass(frozen=True)
class VortexStack:
    """Configurations of one family on one curve, stacked on axis 0.

    ``alpha`` is (K, 2, n, n), the components (alpha_x, alpha_y); ``Phi`` is
    (K, N, n, n); ``twists`` is (K, N, 2).
    """

    curve: FlatCurve
    alpha: np.ndarray
    Phi: np.ndarray
    twists: np.ndarray

    @staticmethod
    def of(cfgs: Sequence[VortexConfig]) -> "VortexStack":
        return VortexStack(cfgs[0].curve,
                           np.stack([c.alpha for c in cfgs]),
                           np.stack([c.Phi for c in cfgs]),
                           np.stack([c.twists for c in cfgs]))


# ---------------------------------------------------------------------------
# The auxiliary spinor solve
# ---------------------------------------------------------------------------

class PsiOperator:
    """dbar_beta dbar_beta* + (1/2) <., Phi> Phi for each configuration of a
    stack, beta being alpha plus the flat deviations ``q_dev`` (N,) shared
    by the stack, acting on untwisted Fourier modes.

    A twisted section Psi = e Psi~, e the twist phase of its component and
    Psi~ periodic, is carried by the modes psi^ = F(Psi~).  In that frame
    the phases drop out: dbar_beta acts on Psi~ as the symbol lam plus the
    pointwise q, and |e| = 1 gives <Psi, Phi> = sum_j Psi~_j conj(Phi~_j).
    So one product is an inverse 2D transform of the pair [psi^, w conj(lam)
    psi^], giving Psi~ and u~ = e^-1 dbar_beta* Psi, and a forward one of
    [u~, q u~ + (1/2) <Psi~, Phi~> Phi~].  The preconditioner multiplies
    by the inverse of w |lam + q_dev + mean q_alpha|^2 + (1/2) mean |Phi|^2:
    the symbol of the operator's constant-coefficient part, with q_alpha
    the dzbar coefficient of alpha, whose mean drifts as the transport
    runs in the b = 0 gauge.  The transform scales every vector alike, so
    the conjugate-gradient stopping rule and iterations are those of the
    twisted frame.

    The Dolbeault operator ``dbar`` holds lam, w conj(lam), q and w conj(q);
    it, the preconditioner and the (2, K, N, n, n) work array are built
    once and serve every product of a solve.
    """

    def __init__(self, stack: VortexStack, q_dev):
        curve = stack.curve
        q_dev = np.asarray(q_dev)[:, None, None]
        q_alpha = form_q(curve, stack.alpha[:, 0], stack.alpha[:, 1])
        self.dbar = Dolbeault(curve, stack.twists, q_alpha[:, None] + q_dev)
        q_mean = np.mean(q_alpha, axis=(-2, -1))[:, None, None, None]
        self.phase = curve.twist_phase(stack.twists)
        # conj(Phi~) and (1/2) Phi~, Phi~ = Phi / e
        self.Phi_conj = np.conj(stack.Phi) * self.phase
        self.half_Phi = 0.5 * np.conj(self.Phi_conj)
        dens = np.sum(np.abs(stack.Phi) ** 2, axis=-3)
        shift = 0.5 * np.mean(dens, axis=(-2, -1)) + 1e-12
        self.inv = 1.0 / (curve.form_weight
                          * np.abs(self.dbar.lam + q_dev + q_mean) ** 2
                          + shift[:, None, None, None])
        self.work = np.empty((2,) + stack.Phi.shape, complex)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return self.inv * r


def _untwisted(op: PsiOperator, psi_hat: np.ndarray) -> np.ndarray:
    """[Psi~, u~] in ``op.work``: the periodic parts of Psi and of
    dbar_beta* Psi, from one inverse transform of [psi^, w conj(lam) psi^]."""
    work = op.work
    work[0] = psi_hat
    np.multiply(op.dbar.lam_adj, psi_hat, out=work[1])
    # the 2D inverse transform; numpy's ifft2 drops its ``out`` argument
    np.fft.ifftn(work, axes=(-2, -1), norm="forward", out=work)
    work[1] += op.dbar.q_adj * work[0]
    return work


def apply_psi_operator(op: PsiOperator, psi_hat: np.ndarray) -> np.ndarray:
    """The modes of dbar dbar* Psi + (1/2) <Psi, Phi> Phi, untwisted, from
    those of Psi: one inverse and one forward transform."""
    work = _untwisted(op, psi_hat)
    pair = np.sum(work[0] * op.Phi_conj, axis=-3)
    np.multiply(op.dbar.q, work[1], out=work[0])
    work[0] += pair[:, None] * op.half_Phi
    np.fft.fft2(work, norm="forward", out=work)
    out = op.dbar.lam * work[1]
    out += work[0]
    return out


def solve_psi(op: PsiOperator, rhs: np.ndarray):
    """(Psi, dbar_beta* Psi): the Psi equation with right-hand side ``rhs``
    solved for every system of the stack by ``pcg`` in the untwisted modes
    psi^, from zero, to the relative residual ``PSI_RTOL``.  The twist
    phases are removed from ``rhs`` and restored on the solution.  The
    operator is Hermitian positive definite at regular parameters (Phi not
    identically zero); a solve that breaks down or stalls raises
    SingularOperator."""
    dbar = op.dbar
    try:
        psi_hat = pcg(lambda p: apply_psi_operator(op, p), op.precondition,
                      dbar.curve.to_modes(rhs, dbar.twists), PSI_RTOL,
                      PSI_MAXITER)
    except NonConvergence as exc:
        raise SingularOperator(f"auxiliary spinor {exc} (wall or irregular "
                               "parameter)", **exc.detail) from exc
    Psi, u = _untwisted(op, psi_hat)
    return op.phase * Psi, op.phase * u


def _rhs_coefficients(curve: FlatCurve, family: FlatBundleFamily, t: float):
    """c at time t, one entry per component: the Psi equation's right-hand
    side is c_j Phi_j with c_j = q(2 pi adot_j)."""
    adot = TWO_PI * family.velocities(t)
    return form_q(curve, adot[:, 0], adot[:, 1])


def _deviation(curve: FlatCurve, family: FlatBundleFamily, t: float):
    """q_dev at time t, one entry per component: the dzbar coefficient of
    the flat deviation 2 pi i (a_j(t) - a_j(0))."""
    da = family.holonomies(t) - family.base_holonomies
    return 2j * math.pi * form_q(curve, da[:, 0], da[:, 1])


def aux_spinor(stack: VortexStack, family: FlatBundleFamily, t: float):
    """(Psi, dbar_beta* Psi): the auxiliary spinor of the stack at time t,
    solving the Psi equation there, and its image under dbar_beta*.

    Where the right-hand side vanishes on the whole stack (constant strands,
    or a seed whose active strand is constant) the solution is Psi = 0 and
    no operator is built.
    """
    curve = stack.curve
    rhs = _rhs_coefficients(curve, family, t)[:, None, None] * stack.Phi
    if not rhs.any():
        return np.zeros_like(stack.Phi), np.zeros_like(stack.Phi)
    return solve_psi(PsiOperator(stack, _deviation(curve, family, t)), rhs)


class _Velocity(NamedTuple):
    """The parallel-transport velocities (alpha_dot, Phi_dot) at a state
    and the state's Psi."""
    alpha: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray

    def rows(self, idx: np.ndarray) -> "_Velocity":
        return _Velocity(self.alpha[idx], self.Phi[idx], self.Psi[idx])


def _velocities(stack: VortexStack, family: FlatBundleFamily,
                t: float) -> _Velocity:
    """The velocities of the parallel-transport ODE at time t."""
    Psi, dbar_adj_Psi = aux_spinor(stack, family, t)
    eta = np.sum(Psi * np.conj(stack.Phi), axis=-3)
    alpha_dot = -1j * np.stack(
        [np.real(eta), np.real(eta * np.conj(stack.curve.modulus))], axis=1)
    return _Velocity(alpha_dot, -1j * dbar_adj_Psi, Psi)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class TransportState:
    """A configuration of the trace, its moment residual and its auxiliary
    spinor ``psi`` (N, n, n), which solves the Psi equation at time t."""

    t: float
    cfg: VortexConfig
    moment_residual: float
    psi: np.ndarray

    @property
    def holonomy(self) -> np.ndarray:
        return self.cfg.holonomy()

    @property
    def phi_l2(self) -> float:
        return math.sqrt(self.cfg.phi_l2_sq())

    def to_json(self) -> str:
        """The state's trace line: t, holonomy, moment residual, |Phi|_L2."""
        return json.dumps({
            "t": self.t,
            "holonomy": [float(x) for x in self.holonomy],
            "moment_residual": self.moment_residual,
            "phi_l2": self.phi_l2,
        }, allow_nan=False)


@dataclass
class TransportTrace:
    states: List[TransportState]

    def __post_init__(self):
        ts = [s.t for s in self.states]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trace times must strictly increase")

    @property
    def final(self) -> TransportState:
        return self.states[-1]


def _rk4_step(stack: VortexStack, k1: _Velocity, family: FlatBundleFamily,
              t: float, h: float) -> VortexStack:
    """One RK4 step from the velocities k1 at its start."""
    def shifted(dalpha, dPhi, scale):
        return replace(stack, alpha=stack.alpha + scale * dalpha,
                       Phi=stack.Phi + scale * dPhi)

    def stage(k: _Velocity, scale: float, s: float) -> _Velocity:
        return _velocities(shifted(k.alpha, k.Phi, scale), family, s)

    k2 = stage(k1, h / 2, t + h / 2)
    k3 = stage(k2, h / 2, t + h / 2)
    # query the last stage just inside the step: at a breakpoint t + h the
    # piecewise-linear velocity jumps to the next segment's slope
    k4 = stage(k3, h, t + (1.0 - 1e-9) * h)
    return shifted(k1.alpha + 2 * k2.alpha + 2 * k3.alpha + k4.alpha,
                   k1.Phi + 2 * k2.Phi + 2 * k3.Phi + k4.Phi, h / 6)


def _advance(stack: VortexStack, k1: _Velocity, family: FlatBundleFamily,
             tau_grid: np.ndarray, t: float, h: float, tol: float,
             depth: int = 0):
    """One accepted step of size h from the velocities k1 at its start: the
    new stack and its moment residuals.  The configurations whose residual
    exceeds ``tol`` are redone in halves, the first from the rows of k1."""
    out = _rk4_step(stack, k1, family, t, h)
    res = moment_residuals(out.curve, out.alpha, out.Phi, tau_grid)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size == 0:
        return out, res
    if depth >= 6:
        raise TrackingLoss(
            "moment residual exceeds tolerance after 6 step halvings "
            "(wall proximity suspected)", t=t, h=h,
            residual=float(np.max(res[bad])))
    sub = replace(stack, alpha=stack.alpha[bad], Phi=stack.Phi[bad],
                  twists=stack.twists[bad])
    mid, _ = _advance(sub, k1.rows(bad), family, tau_grid, t, h / 2, tol,
                      depth + 1)
    end, end_res = _advance(mid, _velocities(mid, family, t + h / 2), family,
                            tau_grid, t + h / 2, h / 2, tol, depth + 1)
    out.alpha[bad] = end.alpha
    out.Phi[bad] = end.Phi
    res[bad] = end_res
    return out, res


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError("the number of transport steps must be at least 1")


def _states(starts: Sequence[VortexConfig], t: float, stack: VortexStack,
            res: np.ndarray, Psi: np.ndarray) -> List[TransportState]:
    return [TransportState(t, replace(s, alpha=stack.alpha[k],
                                      Phi=stack.Phi[k]), float(res[k]),
                           Psi[k])
            for k, s in enumerate(starts)]


def transport_stack(curve: FlatCurve, family: FlatBundleFamily,
                    starts: Sequence[VortexConfig], steps: int,
                    tol: float = 1e-6) -> Iterator[List[TransportState]]:
    """Integrate the parallel-transport ODE from t = 0 to 1 for K starts of
    one family at once, yielding their K states at t = 0 and after each
    step.

    Substeps are aligned with the family's breakpoints so piecewise-linear
    holonomy paths are integrated segment by segment with smooth data.  The
    velocities at each new state are evaluated once: they give the state's
    ``psi`` and are the next step's k1.  At a breakpoint they are those of
    the next segment, evaluated at its start time.

    If no start has a section on a moving strand, the stack is still: each
    yielded state is its start, with its start residual and Psi = 0, at the
    times the integration would take, and no step or Psi equation is
    solved.
    """
    _check_steps(steps)
    if not tol > 0:
        raise ValueError("moment tolerance must be positive")
    tau_grid = _tau_grid(curve, family.tau())
    stack = VortexStack.of(starts)
    res = moment_residuals(curve, stack.alpha, stack.Phi, tau_grid)
    if not np.all(res <= tol):
        raise TrackingLoss("start configuration violates the moment map",
                           residual=float(np.max(res)))
    moving = [j for j, p in enumerate(family.paths) if not p.constant]
    still = not stack.Phi[:, moving].any()
    if still:
        zero = np.zeros_like(stack.Phi)
        k1 = _Velocity(np.zeros_like(stack.alpha), zero, zero)
    else:
        k1 = _velocities(stack, family, 0.0)
    yield _states(starts, 0.0, stack, res, k1.Psi)
    breaks = family.breaks()
    for t0, t1 in zip(breaks, breaks[1:]):
        sub = max(1, math.ceil(steps * (t1 - t0) - 1e-12))
        h = (t1 - t0) / sub
        for i in range(sub):
            t = t1 if i == sub - 1 else t0 + (i + 1) * h
            if not still:
                stack, res = _advance(stack, k1, family, tau_grid, t0 + i * h,
                                      h, tol)
                k1 = _velocities(stack, family, t)
            yield _states(starts, t, stack, res, k1.Psi)


def transport(curve: FlatCurve, family: FlatBundleFamily,
              start: VortexConfig, steps: int,
              tol: float = 1e-6) -> TransportTrace:
    """The trace of one start over [0, 1]: ``transport_stack`` with K = 1."""
    return TransportTrace(states=[
        states[0] for states in transport_stack(curve, family, [start],
                                                steps, tol)])


def vortex_seed(curve: FlatCurve, family: FlatBundleFamily,
                k: int) -> VortexConfig:
    """The framed vortex at t = 0 with its section in summand k.

    This is the one place a vortex solve feeds transport: monodromy, the
    ``transport`` command and the 3D assembly all start here.
    """
    return vortex_solve(curve, family.base_holonomies, k, family.tau())[0]


def transported(curve: FlatCurve, family: FlatBundleFamily, k: int,
                steps: int, tol: float = 1e-6) -> TransportTrace:
    """The vortex seed of strand k, transported over [0, 1]."""
    return transport(curve, family, vortex_seed(curve, family, k), steps,
                     tol=tol)


# ---------------------------------------------------------------------------
# Numeric monodromy
# ---------------------------------------------------------------------------

def _match_holonomy(final_hol: np.ndarray, F: np.ndarray,
                    targets: np.ndarray, tol: float) -> int:
    image = wrap_twist(F @ final_hol)
    dists = np.array([toroidal_distance(image, w) for w in targets])
    order = np.argsort(dists)
    best, second = order[0], order[1] if len(order) > 1 else None
    if dists[best] > tol:
        raise TrackingLoss(
            "final holonomy matches no strand within tolerance",
            best=float(dists[best]), tol=tol)
    if second is not None and dists[second] <= tol:
        raise AmbiguousMatch(
            "two strand holonomies within matching tolerance (wall "
            "proximity)", strands=[int(best), int(second)],
            distances=[float(dists[best]), float(dists[second])])
    return int(best)


def match_strands(family: FlatBundleFamily, finals: Iterable[np.ndarray],
                  steps: int) -> Tuple[int, ...]:
    """Read the permutation off the strands' final holonomies.

    The final holonomy of strand k, pulled back through f*, is matched
    against the t = 0 holonomies -a_j(0) with toroidal tolerance 10 h^2,
    capped at half the smallest toroidal distance between two of them, so
    that a holonomy within tolerance of two strands is one exactly halfway.
    """
    _check_steps(steps)
    F = np.array(family.mc.fstar.to_lists(), float)
    targets = wrap_twist(-family.base_holonomies)
    match_tol = 10.0 / steps ** 2
    gaps = [toroidal_distance(a, b)
            for i, a in enumerate(targets) for b in targets[i + 1:]]
    if gaps:
        match_tol = min(match_tol, 0.5 * min(gaps))
    perm = tuple(_match_holonomy(h, F, targets, match_tol) for h in finals)
    if sorted(perm) != list(range(family.N)):
        raise AmbiguousMatch("matched indices do not form a permutation",
                             matches=list(perm))
    return perm


def numeric_monodromy(curve: FlatCurve, family: FlatBundleFamily,
                      braid: TorusBraid, steps: int = 200,
                      tol: float = 1e-6) -> Tuple[int, ...]:
    """Transport a vortex seed for each strand and read off the permutation.

    The seed at strand k puts the holomorphic section in summand k.  All
    seeds are transported in one stack, and only their final states are
    kept.
    """
    braid_validate(braid)
    starts = [vortex_seed(curve, family, k) for k in range(family.N)]
    for finals in transport_stack(curve, family, starts, steps, tol):
        pass
    return match_strands(family, [s.holonomy for s in finals], steps)
