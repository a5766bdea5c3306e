"""Symplectic parallel transport of vortex configurations.

The horizontal lift (A(t), Phi(t), Psi(t)) of a holonomy path solves

    i Adot = Re<Psi, Phi> - sigma,      i Phidot = dbar_beta* Psi,

where Psi is the unique solution of the elliptic equation

    dbar_beta dbar_beta* Psi + (1/2) <Psi, Phi> Phi = rhs,
    rhs_j = (q_sigma + q(2 pi adot_j (dx,dy))) Phi_j,

beta_j being the evolving connection on summand j (the stored iR-valued
1-form alpha plus the flat deviation 2 pi i (a_j(t) - a_j(0)) (dx,dy)).
Integration is classical RK4 in the b = 0 gauge with substeps aligned to
the family's breakpoints; the moment-map residual is the step acceptance
criterion.  Monodromy matching uses the gauge-invariant holonomy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Tuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .braid import TorusBraid, braid_validate
from .errors import (AmbiguousMatch, SingularOperator, TrackingLoss)
from .vortexfield import (FlatBundleFamily, FlatCurve, VortexConfig,
                          dolbeault_adjoint, dolbeault_apply,
                          flat_deviation_q, moment_residual,
                          toroidal_distance, vortex_solve, wrap_twist)


def q_const_real(curve: FlatCurve, v) -> complex:
    """dzbar coefficient of the constant real 1-form v_x dx + v_y dy."""
    v = np.asarray(v, float)
    mu = curve.modulus
    return complex((mu * v[0] - v[1]) / (2j * curve.imu))


# ---------------------------------------------------------------------------
# The auxiliary spinor solve
# ---------------------------------------------------------------------------

def _component_q(cfg: VortexConfig, family: FlatBundleFamily,
                 t: float) -> np.ndarray:
    """Per-component dzbar connection deviation at time t (constants)."""
    base = family.holonomies(0.0)
    now = family.holonomies(t)
    return np.array([flat_deviation_q(cfg.curve, now[j] - base[j])
                     for j in range(cfg.N)])


def apply_psi_operator(cfg: VortexConfig, q_dev: np.ndarray,
                       Psi: np.ndarray) -> np.ndarray:
    """dbar dbar* Psi + (1/2) <Psi, Phi> Phi with connection beta."""
    curve = cfg.curve
    q = cfg.q_alpha()[None] + q_dev.reshape(-1, 1, 1)
    s = dolbeault_adjoint(curve, Psi, cfg.twists, qbeta=q)
    out = dolbeault_apply(curve, s, cfg.twists, qbeta=q)
    pair = np.sum(Psi * np.conj(cfg.Phi), axis=0)
    return out + 0.5 * pair[None] * cfg.Phi


def solve_psi(cfg: VortexConfig, q_dev: np.ndarray, rhs: np.ndarray,
              rtol: float = 1e-12) -> np.ndarray:
    """Solve the Psi equation by preconditioned conjugate gradients.

    The operator is Hermitian positive definite at regular parameters
    (Phi not identically zero); the preconditioner inverts the flat-part
    Fourier symbol plus the mean density shift.
    """
    curve = cfg.curve
    N, n = cfg.N, curve.n
    shape = (N, n, n)
    rn = float(np.max(np.abs(rhs)))
    if rn == 0.0:
        return np.zeros(shape, complex)
    w = curve.form_weight
    syms = np.stack([w * np.abs(curve.lam(cfg.twists[j]) + q_dev[j]) ** 2
                     for j in range(N)])
    shift = 0.5 * float(np.mean(np.sum(np.abs(cfg.Phi) ** 2, axis=0))) + 1e-12

    def mv(x):
        return apply_psi_operator(cfg, q_dev, x.reshape(shape)).ravel()

    def pre(x):
        X = x.reshape(shape)
        out = np.empty_like(X)
        for j in range(N):
            out[j] = curve.spectral(X[j], 1.0 / (syms[j] + shift),
                                    cfg.twists[j])
        return out.ravel()

    size = N * n * n
    op = LinearOperator((size, size), matvec=mv, dtype=complex)
    M = LinearOperator((size, size), matvec=pre, dtype=complex)
    sol, info = cg(op, rhs.ravel(), rtol=rtol, atol=0.0, M=M, maxiter=2000)
    if info != 0:
        raise SingularOperator(
            "auxiliary spinor solve stalled (wall or irregular parameter)",
            cg_info=int(info))
    return sol.reshape(shape)


def aux_spinor(cfg: VortexConfig, family: FlatBundleFamily, t: float):
    """(q_dev, Psi): the connection deviations at time t and the auxiliary
    spinor solving the Psi equation there."""
    curve = cfg.curve
    q_dev = _component_q(cfg, family, t)
    adot = family.velocities(t)
    q_sig = q_const_real(curve, np.asarray(family.sigma(t), float))
    rhs = np.empty_like(cfg.Phi)
    for j in range(cfg.N):
        rhs[j] = (q_sig + q_const_real(curve, 2.0 * math.pi * adot[j])) \
            * cfg.Phi[j]
    return q_dev, solve_psi(cfg, q_dev, rhs)


def _velocities(cfg: VortexConfig, family: FlatBundleFamily, t: float):
    """(alpha_dot, Phi_dot) of the parallel-transport ODE at time t."""
    curve = cfg.curve
    q_dev, Psi = aux_spinor(cfg, family, t)
    sigma = np.asarray(family.sigma(t), float)
    q = cfg.q_alpha()[None] + q_dev.reshape(-1, 1, 1)
    Phi_dot = -1j * dolbeault_adjoint(curve, Psi, cfg.twists, qbeta=q)
    eta = np.sum(Psi * np.conj(cfg.Phi), axis=0)
    ax_dot = -1j * (np.real(eta) - sigma[0])
    ay_dot = -1j * (np.real(eta * np.conj(curve.modulus)) - sigma[1])
    return (ax_dot, ay_dot), Phi_dot


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class TransportState:
    t: float
    cfg: VortexConfig
    moment_residual: float

    @property
    def holonomy(self) -> np.ndarray:
        return self.cfg.holonomy()

    @property
    def phi_l2(self) -> float:
        return math.sqrt(self.cfg.phi_l2_sq())


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

    def max_moment_residual(self) -> float:
        return max(s.moment_residual for s in self.states)

    def to_jsonl(self) -> str:
        lines = []
        for s in self.states:
            lines.append(json.dumps({
                "t": s.t,
                "holonomy": [float(x) for x in s.holonomy],
                "moment_residual": s.moment_residual,
                "phi_l2": s.phi_l2,
            }, allow_nan=False))
        return "\n".join(lines) + "\n"


def _rk4_step(cfg: VortexConfig, family: FlatBundleFamily, t: float,
              h: float) -> VortexConfig:
    def shifted(c, dax, day, dPhi, scale):
        ax, ay = c.alpha
        return replace(c, alpha=(ax + scale * dax, ay + scale * day),
                       Phi=c.Phi + scale * dPhi)

    (k1x, k1y), k1p = _velocities(cfg, family, t)
    c2 = shifted(cfg, k1x, k1y, k1p, h / 2)
    (k2x, k2y), k2p = _velocities(c2, family, t + h / 2)
    c3 = shifted(cfg, k2x, k2y, k2p, h / 2)
    (k3x, k3y), k3p = _velocities(c3, family, t + h / 2)
    c4 = shifted(cfg, k3x, k3y, k3p, h)
    # query the last stage just inside the step: at a breakpoint t + h the
    # piecewise-linear velocity jumps to the next segment's slope
    (k4x, k4y), k4p = _velocities(c4, family, t + (1.0 - 1e-9) * h)
    ax, ay = cfg.alpha
    return replace(
        cfg,
        alpha=(ax + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
               ay + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)),
        Phi=cfg.Phi + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _advance(cfg: VortexConfig, family: FlatBundleFamily, t: float,
             h: float, tol: float, depth: int = 0) -> VortexConfig:
    """One accepted step of size h, bisecting on residual excess."""
    out = _rk4_step(cfg, family, t, h)
    if moment_residual(out, family.tau()) <= tol:
        return out
    if depth >= 6:
        raise TrackingLoss(
            "moment residual exceeds tolerance after 6 step halvings "
            "(wall proximity suspected)", t=t, h=h,
            residual=moment_residual(out, family.tau()))
    mid = _advance(cfg, family, t, h / 2, tol, depth + 1)
    return _advance(mid, family, t + h / 2, h / 2, tol, depth + 1)


def transport(curve: FlatCurve, family: FlatBundleFamily,
              start: VortexConfig, steps: int,
              tol: float = 1e-6) -> TransportTrace:
    """Integrate the parallel-transport ODE from t = 0 to 1.

    Substeps are aligned with the family's breakpoints so piecewise-linear
    holonomy paths are integrated segment by segment with smooth data.
    """
    res0 = moment_residual(start, family.tau())
    if res0 > tol:
        raise TrackingLoss("start configuration violates the moment map",
                           residual=res0)
    states = [TransportState(0.0, start, res0)]
    cfg = start
    breaks = family.breaks()
    for t0, t1 in zip(breaks, breaks[1:]):
        sub = max(1, math.ceil(steps * (t1 - t0) - 1e-12))
        h = (t1 - t0) / sub
        for i in range(sub):
            t = t0 + i * h
            cfg = _advance(cfg, family, t, h, tol)
            tn = t0 + (i + 1) * h
            states.append(TransportState(
                tn, cfg, moment_residual(cfg, family.tau())))
    return TransportTrace(states=states)


def transported(curve: FlatCurve, family: FlatBundleFamily, k: int,
                steps: int, tol: float = 1e-6) -> TransportTrace:
    """The vortex seed with its section in summand k, transported over [0, 1].

    This is the one place a vortex solve feeds transport: monodromy, the
    ``transport`` command and the 3D assembly all start here.
    """
    start, _ = vortex_solve(curve, family.holonomies(0.0), k, family.tau())
    return transport(curve, family, start, steps, tol=tol)


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
    against the t = 0 holonomies -a_j(0) with toroidal tolerance 10 h^2.
    """
    F = np.array(family.mc.fstar.to_lists(), float)
    targets = wrap_twist(-family.holonomies(0.0))
    match_tol = 10.0 / steps ** 2
    perm = tuple(_match_holonomy(h, F, targets, match_tol) for h in finals)
    if sorted(perm) != list(range(family.N)):
        raise AmbiguousMatch("matched indices do not form a permutation",
                             matches=list(perm))
    return perm


def numeric_monodromy(curve: FlatCurve, family: FlatBundleFamily,
                      braid: TorusBraid, steps: int = 200,
                      tol: float = 1e-6) -> Tuple[int, ...]:
    """Transport a vortex seed for each strand and read off the permutation.

    The seed at strand k puts the holomorphic section in summand k.  The
    strands run one after another, and only each final holonomy is kept.
    """
    braid_validate(braid)
    return match_strands(
        family, (transported(curve, family, k, steps, tol).final.holonomy
                 for k in range(family.N)), steps)
