"""Rescaled 3D multi-monopole equations on the mapping torus.

Discretization.  The mapping torus glues [0,1] x Sigma by (0, x) ~ (1, f(x))
with f linear, f(x) = C x for the integer matrix C = F^T (F the induced map
on H^1 in the (dx, dy) basis).  A configuration is stored on m uniform
t-slices; the connection is split as A(t) = flat(zeta0) + ref(t) + dev(t)
with ref(t) = -2 pi i (a_{k0}(t) - a_{k0}(0)) (dx, dy) tracking the active
strand, so the stored deviation dev glues linearly across the seam.  The
seam operator U maps slice-i data to slice-(i+m) data; t-derivatives are
spectral on the R m-slice unfolding, R being the order of U, which makes
D_t exactly skew-adjoint and keeps the discrete Leibniz rule at spectral
accuracy for band-limited fields.

Scalar slots V and b are carried as iR-valued grid functions; the five
rows of the rescaled equations and of the symmetric linearization follow
the block layout (N, G, S*; e^-2 G*, 0, L*; e^-2 S, L, M) on
x = (a, phi), v, y = (c, psi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import (Divergence, LinearSolveFailure, NonConvergence,
                     PeriodicityMismatch)
from .transport import TransportTrace, aux_spinor, transported
from .vortexfield import (FlatBundleFamily, FlatCurve, _tau_grid, d_scalar,
                          d_star, dolbeault_adjoint, dolbeault_apply,
                          flat_deviation_q, form_pq, form_xy, save_field,
                          star_d)

TWO_PI = 2.0 * math.pi
# largest seam mismatch of a transported end state that assembly accepts
SEAM_TOL = 1e-5


# ---------------------------------------------------------------------------
# Seam gluing
# ---------------------------------------------------------------------------

def _grid_index(curve: FlatCurve, C: np.ndarray):
    n = curve.n
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return ((C[0, 0] * j + C[0, 1] * k) % n, (C[1, 0] * j + C[1, 1] * k) % n)


@dataclass
class SeamGluing:
    """The operator U sending slice-i data to slice-(i+m) data.

    V = U^{-1} realizes the identification of the t = 1 slice with the
    f-pullback of the t = 0 slice: scalars pull back along the exact grid
    map x -> Cx, 1-forms pick up the matrix F = C^T, (0,1)-forms the factor
    conj(gamma) with z(Cx) = gamma z(x), and spinor components are routed
    through the closing permutation with large-gauge phases W_k.
    """

    curve: FlatCurve
    C: np.ndarray                # integer 2x2, grid map of f
    perm: Tuple[int, ...]        # closing permutation sigma
    W: np.ndarray                # (N, 2) large-gauge phase vectors
    gamma: complex = field(init=False)
    order: int = field(init=False)

    def __post_init__(self):
        mu = self.curve.modulus
        C = self.C
        g = C[0, 0] + mu * C[1, 0]
        if abs((C[0, 1] + mu * C[1, 1]) - mu * g) > 1e-12 * (1 + abs(mu)):
            raise PeriodicityMismatch(
                "f does not preserve the complex structure at this modulus",
                modulus=[mu.real, mu.imag], C=self.C.tolist())
        if abs(abs(g) - 1.0) > 1e-12:
            raise PeriodicityMismatch(
                "f is not an isometry of the flat metric", gamma_abs=abs(g))
        object.__setattr__(self, "gamma", complex(g))
        Cinv = np.round(np.linalg.inv(C)).astype(int)
        if not np.array_equal(C @ Cinv, np.eye(2, dtype=int)):
            raise PeriodicityMismatch("grid map is not invertible over Z",
                                      C=self.C.tolist())
        self._idx_fwd = _grid_index(self.curve, Cinv)
        X, Y = self.curve.grid()
        N = len(self.W)
        self._phase_fwd = np.stack([
            np.exp(-2j * math.pi * ((Cinv.T @ self.W[k])[0] * X
                                    + (Cinv.T @ self.W[k])[1] * Y))
            for k in range(N)])
        object.__setattr__(self, "order", self._find_order())

    # U: slice i -> slice i+m ------------------------------------------------

    def push_scalar(self, s: np.ndarray) -> np.ndarray:
        return s[self._idx_fwd]

    def push_form(self, axy: np.ndarray) -> np.ndarray:
        Finv = np.linalg.inv(self.C.T)
        pulled = axy[:, self._idx_fwd[0], self._idx_fwd[1]]
        return np.tensordot(Finv, pulled, axes=(1, 0))

    def push_section(self, Phi: np.ndarray) -> np.ndarray:
        out = np.empty_like(Phi)
        for k in range(len(Phi)):
            out[k] = self._phase_fwd[k] * Phi[self.perm[k]][self._idx_fwd]
        return out

    def push_form01(self, Psi: np.ndarray) -> np.ndarray:
        return self.push_section(Psi) / np.conj(self.gamma)

    def apply(self, arr: np.ndarray, kind: str) -> np.ndarray:
        return {"scalar": self.push_scalar, "form": self.push_form,
                "section": self.push_section,
                "form01": self.push_form01}[kind](arr)

    def _find_order(self, cap: int = 48) -> int:
        rng = np.random.default_rng(20240915)
        n, N = self.curve.n, len(self.W)
        probes = {
            "scalar": rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n)),
            "form": rng.standard_normal((2, n, n))
            + 1j * rng.standard_normal((2, n, n)),
            "section": rng.standard_normal((N, n, n))
            + 1j * rng.standard_normal((N, n, n)),
            "form01": rng.standard_normal((N, n, n))
            + 1j * rng.standard_normal((N, n, n)),
        }
        cur = dict(probes)
        for r in range(1, cap + 1):
            cur = {k: self.apply(v, k) for k, v in cur.items()}
            if all(np.max(np.abs(cur[k] - probes[k])) < 1e-9 for k in cur):
                return r
        raise PeriodicityMismatch(
            "seam operator has no finite order on the grid (cap exceeded)",
            cap=cap)


# ---------------------------------------------------------------------------
# 3D configurations and tangents
# ---------------------------------------------------------------------------

@dataclass
class Config3D:
    curve: FlatCurve
    family: FlatBundleFamily
    m: int
    dev: np.ndarray            # (m, 2, n, n) iR-valued 1-form deviation
    Phi: np.ndarray            # (m, N, n, n)
    V: np.ndarray              # (m, n, n) iR-valued
    b: np.ndarray              # (m, n, n) iR-valued
    Psi: np.ndarray            # (m, N, n, n)
    seam: SeamGluing
    twists: np.ndarray         # (N, 2)
    cq: np.ndarray             # (m, N) flat dbar deviation constants
    aref_dot: np.ndarray       # (m, 2) active-strand velocity
    sigma_t: np.ndarray        # (m, 2)
    tau_grid: np.ndarray       # (n, n)

    @property
    def N(self) -> int:
        return self.Phi.shape[1]


@dataclass
class Tangent3D:
    a: np.ndarray              # (m, 2, n, n)
    phi: np.ndarray            # (m, N, n, n)
    v: np.ndarray              # (m, n, n)
    c: np.ndarray              # (m, n, n)
    psi: np.ndarray            # (m, N, n, n)

    def scale(self, s) -> "Tangent3D":
        return Tangent3D(s * self.a, s * self.phi, s * self.v, s * self.c,
                         s * self.psi)

    def sup(self) -> float:
        return max(float(np.max(np.abs(f))) for f in
                   (self.a, self.phi, self.v, self.c, self.psi))

    @staticmethod
    def zero(Xi: Config3D) -> "Tangent3D":
        m, N, n = Xi.m, Xi.N, Xi.curve.n
        return Tangent3D(np.zeros((m, 2, n, n), complex),
                         np.zeros((m, N, n, n), complex),
                         np.zeros((m, n, n), complex),
                         np.zeros((m, n, n), complex),
                         np.zeros((m, N, n, n), complex))


def config_update(Xi: Config3D, xi: Tangent3D) -> Config3D:
    return replace(Xi, dev=Xi.dev + xi.a, Phi=Xi.Phi + xi.phi,
                   V=Xi.V + xi.v, b=Xi.b + xi.c, Psi=Xi.Psi + xi.psi)


# ---------------------------------------------------------------------------
# The spectral t-derivative
# ---------------------------------------------------------------------------

def _extend(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    R = Xi.seam.order
    chunks = [arr]
    for _ in range(R - 1):
        prev = chunks[-1]
        chunks.append(np.stack([Xi.seam.apply(prev[i], kind)
                                for i in range(Xi.m)]))
    return np.concatenate(chunks, axis=0)


def d_t(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    """Spectral time derivative with twisted wrap-around."""
    ext = _extend(Xi, arr, kind)
    freqs = Xi.m * np.fft.fftfreq(ext.shape[0])
    shape = (-1,) + (1,) * (arr.ndim - 1)
    hat = np.fft.fft(ext, axis=0)
    out = np.fft.ifft(hat * (2j * math.pi * freqs).reshape(shape), axis=0)
    return out[:Xi.m]


# ---------------------------------------------------------------------------
# Slice-local Sigma operators
# ---------------------------------------------------------------------------

def _q_of(Xi: Config3D, a_slice: np.ndarray) -> np.ndarray:
    return form_pq(Xi.curve, a_slice[0], a_slice[1])[1]


def _dbar(Xi: Config3D, i: int, s: np.ndarray, extra_a=None) -> np.ndarray:
    q = _q_of(Xi, Xi.dev[i])[None] + Xi.cq[i].reshape(-1, 1, 1)
    if extra_a is not None:
        q = q + _q_of(Xi, extra_a)[None]
    return dolbeault_apply(Xi.curve, s, Xi.twists, qbeta=q)


def _dbar_star(Xi: Config3D, i: int, w: np.ndarray, extra_a=None) -> np.ndarray:
    q = _q_of(Xi, Xi.dev[i])[None] + Xi.cq[i].reshape(-1, 1, 1)
    if extra_a is not None:
        q = q + _q_of(Xi, extra_a)[None]
    return dolbeault_adjoint(Xi.curve, w, Xi.twists, qbeta=q)


def _star1(curve: FlatCurve, axy: np.ndarray) -> np.ndarray:
    """Hodge star on 1-forms: p dz + q dzbar -> -i p dz + i q dzbar."""
    p, q = form_pq(curve, axy[0], axy[1])
    return np.stack(form_xy(curve, -1j * p, 1j * q))


def _im_form01(curve: FlatCurve, eta: np.ndarray) -> np.ndarray:
    """Components of Im(eta dzbar): (Im eta, Im(eta mubar))."""
    return np.stack([np.imag(eta),
                     np.imag(eta * np.conj(curve.modulus))]).astype(complex)


def _pair01(curve: FlatCurve, Psi: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """<Psi, Phi> pointwise: the dzbar coefficient sum_j Psi_j conj(Phi_j)."""
    return np.sum(Psi * np.conj(Phi), axis=0)


# ---------------------------------------------------------------------------
# Assembly from a transport trace
# ---------------------------------------------------------------------------

def build_seam(curve: FlatCurve, family: FlatBundleFamily,
               k0: int) -> SeamGluing:
    if family.closing_permutation[k0] != k0:
        raise PeriodicityMismatch(
            "active strand must be fixed by the closing permutation",
            k0=k0, permutation=list(family.closing_permutation))
    F = np.array(family.mc.fstar.to_lists(), float)
    C = np.round(F.T).astype(int)
    base = family.holonomies(0.0)
    end = family.holonomies(1.0)
    dA = end - base
    W = np.stack([F @ (dA[k] - dA[k0]) for k in range(family.N)])
    return SeamGluing(curve=curve, C=C,
                      perm=tuple(family.closing_permutation), W=W)


def assemble_adiabatic(trace: TransportTrace, family: FlatBundleFamily,
                       m: int, k0: Optional[int] = None) -> Config3D:
    """Build the adiabatic 3D configuration Xi_0 (V = 0, b = 0) from a trace.

    The trace must contain states at the slice times i/m; Psi is recomputed
    at each slice from the elliptic equation.  The t = 1 end state must
    match the seam image of the t = 0 slice, otherwise the closing gauge
    cannot be realized on the grid.
    """
    states = {round(s.t * 1e7): s for s in trace.states}
    curve = trace.states[0].cfg.curve
    if k0 is None:
        k0 = trace.states[0].cfg.k
    seam = build_seam(curve, family, k0)
    N, n = family.N, curve.n
    base = family.holonomies(0.0)
    dev = np.empty((m, 2, n, n), complex)
    Phi = np.empty((m, N, n, n), complex)
    Psi = np.empty((m, N, n, n), complex)
    cq = np.empty((m, N), complex)
    aref_dot = np.empty((m, 2))
    sigma_t = np.empty((m, 2))
    twists = trace.states[0].cfg.twists
    for i in range(m):
        t = i / m
        key = round(t * 1e7)
        if key not in states or abs(states[key].t - t) > 1e-9:
            raise PeriodicityMismatch(
                "trace does not sample the slice times i/m", missing_t=t)
        st = states[key]
        cfg = st.cfg
        hol = family.holonomies(t)
        ref = -TWO_PI * (hol[k0] - base[k0])
        dev[i, 0] = cfg.alpha[0] - 1j * ref[0]
        dev[i, 1] = cfg.alpha[1] - 1j * ref[1]
        Phi[i] = cfg.Phi
        for j in range(N):
            cq[i, j] = flat_deviation_q(
                curve, (hol[j] - base[j]) - (hol[k0] - base[k0]))
        aref_dot[i] = family.paths[k0].deriv(t)
        sigma_t[i] = family.sigma(t)
        Psi[i] = aux_spinor(cfg, family, t)[1]
    Xi = Config3D(curve=curve, family=family, m=m, dev=dev, Phi=Phi,
                  V=np.zeros((m, n, n), complex),
                  b=np.zeros((m, n, n), complex), Psi=Psi, seam=seam,
                  twists=twists, cq=cq, aref_dot=aref_dot, sigma_t=sigma_t,
                  tau_grid=_tau_grid(curve, family.tau()))
    # seam closure: the t = 1 trace state must be U(slice 0)
    end = trace.states[-1]
    if abs(end.t - 1.0) > 1e-9:
        raise PeriodicityMismatch("trace does not reach t = 1", t=end.t)
    hol1 = family.holonomies(1.0)
    ref1 = -TWO_PI * (hol1[k0] - base[k0])
    dev_end = np.stack([end.cfg.alpha[0] - 1j * ref1[0],
                        end.cfg.alpha[1] - 1j * ref1[1]])
    mis_dev = np.max(np.abs(dev_end - seam.push_form(dev[0])))
    mis_phi = np.max(np.abs(end.cfg.Phi - seam.push_section(Phi[0])))
    if max(mis_dev, mis_phi) > SEAM_TOL:
        raise PeriodicityMismatch(
            "transport end state does not close up across the seam",
            dev_mismatch=float(mis_dev), phi_mismatch=float(mis_phi))
    return Xi


def adiabatic_config(curve: FlatCurve, family: FlatBundleFamily, m: int,
                     steps: int, tol: float = 1e-6) -> Config3D:
    """The adiabatic 3D configuration Xi_0 of a family on m slices.

    The active strand k0 is the first strand fixed by the closing
    permutation.  Its vortex seed is transported with max(steps, 4 m)
    steps at moment tolerance ``tol`` and assembled on the slices.
    """
    fixed = [k for k, j in enumerate(family.closing_permutation) if j == k]
    if not fixed:
        raise PeriodicityMismatch(
            "no strand is fixed by the closing permutation",
            permutation=list(family.closing_permutation))
    k0 = fixed[0]
    trace = transported(curve, family, k0, max(steps, 4 * m), tol)
    return assemble_adiabatic(trace, family, m, k0=k0)


def adiabatic_residual(Xi: Config3D, eps: float = 1.0) -> float:
    """Sup norm of the first three rows of the rescaled equations."""
    rows = sw_map(Xi, eps)
    return max(float(np.max(np.abs(rows.a))), float(np.max(np.abs(rows.phi))),
               float(np.max(np.abs(rows.v))))


# ---------------------------------------------------------------------------
# The five-row map and its linearization
# ---------------------------------------------------------------------------

def sw_map(Xi: Config3D, eps: float) -> Tangent3D:
    """Discrete evaluation of the rescaled equations; row 3 is zero."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    curve = Xi.curve
    out = Tangent3D.zero(Xi)
    ddev = d_t(Xi, Xi.dev, "form")
    dPhi = d_t(Xi, Xi.Phi, "section")
    dPsi = d_t(Xi, Xi.Psi, "form01")
    dV = d_t(Xi, Xi.V, "scalar")
    ie2 = 1.0 / eps ** 2
    for i in range(Xi.m):
        Adot = ddev[i].copy()
        Adot[0] += -2j * math.pi * Xi.aref_dot[i, 0]
        Adot[1] += -2j * math.pi * Xi.aref_dot[i, 1]
        dbx, dby = d_scalar(curve, Xi.b[i])
        vx, vy = d_scalar(curve, Xi.V[i])
        sig = Xi.sigma_t[i]
        one = np.stack([Adot[0] - dbx - 1j * sig[0],
                        Adot[1] - dby - 1j * sig[1]])
        eta = _pair01(curve, Xi.Psi[i], Xi.Phi[i])
        out.a[i] = _star1(curve, one) - np.stack([vx, vy]) \
            - 1j * _im_form01(curve, eta)
        grad_phi = dPhi[i] + Xi.b[i][None] * Xi.Phi[i]
        out.phi[i] = -1j * grad_phi + _dbar_star(Xi, i, Xi.Psi[i]) \
            - Xi.V[i][None] * Xi.Phi[i]
        moment = star_d(curve, Xi.dev[i, 0], Xi.dev[i, 1]) \
            - 0.5j * np.sum(np.abs(Xi.Phi[i]) ** 2, axis=0) \
            + 1j * Xi.tau_grid
        out.c[i] = ie2 * moment - dV[i] \
            + 0.5j * curve.form_weight * np.sum(np.abs(Xi.Psi[i]) ** 2,
                                                axis=0)
        grad_psi = dPsi[i] + Xi.b[i][None] * Xi.Psi[i]
        out.psi[i] = 1j * grad_psi + ie2 * _dbar(Xi, i, Xi.Phi[i]) \
            - Xi.V[i][None] * Xi.Psi[i]
    return out


# -- operator blocks at a reference Xi (x = (a, phi), v, y = (c, psi)) ------

def block_G(Xi: Config3D, v: np.ndarray):
    a = np.empty_like(Xi.dev)
    phi = np.empty_like(Xi.Phi)
    for i in range(Xi.m):
        dx, dy = d_scalar(Xi.curve, v[i])
        a[i] = -np.stack([dx, dy])
        phi[i] = v[i][None] * Xi.Phi[i]
    return a, phi


def block_Gstar(Xi: Config3D, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    out = np.empty_like(Xi.V)
    for i in range(Xi.m):
        pair = herm_im(Xi.Phi[i], phi[i])
        out[i] = -d_star(Xi.curve, a[i, 0], a[i, 1]) - 1j * pair
    return out


def herm_im(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.imag(np.sum(A * np.conj(B), axis=0))


def herm_re(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.real(np.sum(A * np.conj(B), axis=0))


def block_S(Xi: Config3D, a: np.ndarray, phi: np.ndarray):
    c = np.empty_like(Xi.V)
    psi = np.empty_like(Xi.Psi)
    for i in range(Xi.m):
        c[i] = star_d(Xi.curve, a[i, 0], a[i, 1]) \
            - 1j * herm_re(Xi.Phi[i], phi[i])
        qa = _q_of(Xi, a[i])
        psi[i] = -qa[None] * Xi.Phi[i] - _dbar(Xi, i, phi[i])
    return c, psi


def block_Sstar(Xi: Config3D, c: np.ndarray, psi: np.ndarray):
    a = np.empty_like(Xi.dev)
    phi = np.empty_like(Xi.Phi)
    for i in range(Xi.m):
        dcx, dcy = d_scalar(Xi.curve, c[i])
        eta = _pair01(Xi.curve, psi[i], Xi.Phi[i])
        a[i] = -_star1(Xi.curve, np.stack([dcx, dcy])) \
            - 1j * _im_form01(Xi.curve, eta)
        phi[i] = 1j * c[i][None] * Xi.Phi[i] - _dbar_star(Xi, i, psi[i])
    return a, phi


def block_L(Xi: Config3D, v: np.ndarray):
    c = -d_t(Xi, v, "scalar")
    psi = v[:, None] * Xi.Psi
    return c, psi


def block_Lstar(Xi: Config3D, c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    out = d_t(Xi, c, "scalar")
    fw = Xi.curve.form_weight
    for i in range(Xi.m):
        out[i] -= 1j * fw * herm_im(Xi.Psi[i], psi[i])
    return out


def block_M(Xi: Config3D, c: np.ndarray, psi: np.ndarray):
    oc = np.empty_like(Xi.V)
    dpsi = d_t(Xi, psi, "form01")
    opsi = np.empty_like(Xi.Psi)
    fw = Xi.curve.form_weight
    for i in range(Xi.m):
        oc[i] = 1j * fw * herm_re(Xi.Psi[i], psi[i])
        grad = dpsi[i] + Xi.b[i][None] * psi[i]
        opsi[i] = -1j * c[i][None] * Xi.Psi[i] - 1j * grad
    return oc, opsi


def block_N(Xi: Config3D, a: np.ndarray, phi: np.ndarray):
    oa = np.empty_like(Xi.dev)
    da = d_t(Xi, a, "form")
    dphi = d_t(Xi, phi, "section")
    ophi = np.empty_like(Xi.Phi)
    w = Xi.curve.form_weight
    for i in range(Xi.m):
        eta = _pair01(Xi.curve, Xi.Psi[i], phi[i])
        oa[i] = _star1(Xi.curve, da[i]) - 1j * _im_form01(Xi.curve, eta)
        qa = _q_of(Xi, a[i])
        grad = dphi[i] + Xi.b[i][None] * phi[i]
        ophi[i] = -w * np.conj(qa)[None] * Xi.Psi[i] + 1j * grad
    return oa, ophi


def linearize_apply(Xi: Config3D, xi: Tangent3D, eps: float) -> Tangent3D:
    """The symmetric operator D_eps(Xi) xi in the swapped-row layout.

    Rows 2 and 5 carry the background potential terms +V phi and +V psi so
    that negating them recovers the derivative of the five-row map.
    """
    ie2 = 1.0 / eps ** 2
    Na, Nphi = block_N(Xi, xi.a, xi.phi)
    Ga, Gphi = block_G(Xi, xi.v)
    Sa, Sphi = block_Sstar(Xi, xi.c, xi.psi)
    gauge = ie2 * block_Gstar(Xi, xi.a, xi.phi) \
        + block_Lstar(Xi, xi.c, xi.psi)
    Sc, Spsi = block_S(Xi, xi.a, xi.phi)
    Lc, Lpsi = block_L(Xi, xi.v)
    Mc, Mpsi = block_M(Xi, xi.c, xi.psi)
    out = Tangent3D(
        a=Na + Ga + Sa,
        phi=Nphi + Gphi + Sphi + Xi.V[:, None] * xi.phi,
        v=gauge,
        c=ie2 * Sc + Lc + Mc,
        psi=ie2 * Spsi + Lpsi + Mpsi + Xi.V[:, None] * xi.psi)
    return out


def dsw_apply(Xi: Config3D, xi: Tangent3D, eps: float) -> Tangent3D:
    """Derivative of the five-row map: rows 2, 5 of D_eps negated, row 3 zero."""
    d = linearize_apply(Xi, xi, eps)
    return Tangent3D(a=d.a, phi=-d.phi, v=np.zeros_like(d.v), c=d.c,
                     psi=-d.psi)


def quadratic_term(Xi: Config3D, xi: Tangent3D, eps: float) -> Tangent3D:
    """The Xi-independent quadratic remainder of the five-row map."""
    curve = Xi.curve
    ie2 = 1.0 / eps ** 2
    out = Tangent3D.zero(Xi)
    w = curve.form_weight
    for i in range(Xi.m):
        eta = _pair01(curve, xi.psi[i], xi.phi[i])
        out.a[i] = -1j * _im_form01(curve, eta)
        qa = _q_of(Xi, xi.a[i])
        out.phi[i] = w * np.conj(qa)[None] * xi.psi[i] \
            - xi.v[i][None] * xi.phi[i] - 1j * xi.c[i][None] * xi.phi[i]
        out.c[i] = -0.5j * ie2 * np.sum(np.abs(xi.phi[i]) ** 2, axis=0) \
            + 0.5j * w * np.sum(np.abs(xi.psi[i]) ** 2, axis=0)
        out.psi[i] = 1j * xi.c[i][None] * xi.psi[i] \
            + ie2 * qa[None] * xi.phi[i] - xi.v[i][None] * xi.psi[i]
    return out


# ---------------------------------------------------------------------------
# Inner products and weighted norms
# ---------------------------------------------------------------------------

def ip3(Xi: Config3D, u: Tangent3D, w: Tangent3D,
        eps: float = 1.0) -> float:
    """The eps-weighted real inner product <x,x'> + e^2<v,v'> + e^2<y,y'>."""
    curve = Xi.curve
    fw = curve.form_weight
    area = curve.area

    def pair_form(A, B):
        p1, q1 = form_pq(curve, A[:, 0], A[:, 1])
        p2, q2 = form_pq(curve, B[:, 0], B[:, 1])
        return fw * np.real(p1 * np.conj(p2) + q1 * np.conj(q2))

    x = pair_form(u.a, w.a) + np.sum(np.real(u.phi * np.conj(w.phi)), axis=1)
    vv = np.real(u.v * np.conj(w.v))
    y = np.real(u.c * np.conj(w.c)) \
        + fw * np.sum(np.real(u.psi * np.conj(w.psi)), axis=1)
    total = np.mean(x) + eps ** 2 * (np.mean(vv) + np.mean(y))
    return float(area * total)


def _pointwise_sq(Xi: Config3D, arrs: Sequence[Tuple[np.ndarray, str]]):
    """Pointwise squared magnitude (m, n, n) of a slot group."""
    curve = Xi.curve
    fw = curve.form_weight
    out = 0.0
    for arr, kind in arrs:
        if kind == "form":
            p, q = form_pq(curve, arr[:, 0], arr[:, 1])
            out = out + fw * (np.abs(p) ** 2 + np.abs(q) ** 2)
        elif kind == "section":
            out = out + np.sum(np.abs(arr) ** 2, axis=1)
        elif kind == "form01":
            out = out + fw * np.sum(np.abs(arr) ** 2, axis=1)
        else:
            out = out + np.abs(arr) ** 2
    return out


def _lp(Xi: Config3D, sq: np.ndarray, p: float) -> float:
    dens = sq ** (p / 2.0)
    return Xi.curve.area * float(np.mean(dens))


@dataclass
class WeightedNormReport:
    eps: float
    p: float
    level: object
    value: float


def weighted_norm(Xi: Config3D, xi: Tangent3D, eps: float, p: float = 2,
                  level=0) -> WeightedNormReport:
    """The norms of the refinement scheme at reference Xi.

    level 0: || |x| + e|v| + e|y| ||_p in the displayed integral sense;
    level 1 adds the operator blocks at Xi with their eps weights;
    level 'inf' is the sup norm ||x||_inf + e||v||_inf + e||y||_inf.
    """
    x_sq = _pointwise_sq(Xi, [(xi.a, "form"), (xi.phi, "section")])
    v_sq = _pointwise_sq(Xi, [(xi.v, "scalar")])
    y_sq = _pointwise_sq(Xi, [(xi.c, "scalar"), (xi.psi, "form01")])
    if level == "inf" or (isinstance(level, float) and math.isinf(level)):
        val = math.sqrt(float(np.max(x_sq))) \
            + eps * math.sqrt(float(np.max(v_sq))) \
            + eps * math.sqrt(float(np.max(y_sq)))
        return WeightedNormReport(eps=eps, p=float("inf"), level="inf",
                                  value=val)
    if p < 2:
        raise ValueError("need p >= 2")
    if level == 0:
        total = _lp(Xi, x_sq, p) + eps ** p * _lp(Xi, v_sq, p) \
            + eps ** p * _lp(Xi, y_sq, p)
        return WeightedNormReport(eps=eps, p=p, level=0,
                                  value=total ** (1.0 / p))
    if level != 1:
        raise ValueError("level must be 0, 1 or 'inf'")
    Gs = block_Gstar(Xi, xi.a, xi.phi)
    Sc, Spsi = block_S(Xi, xi.a, xi.phi)
    Na, Nphi = block_N(Xi, xi.a, xi.phi)
    Gva, Gvphi = block_G(Xi, xi.v)
    Lc, Lpsi = block_L(Xi, xi.v)
    Ssa, Ssphi = block_Sstar(Xi, xi.c, xi.psi)
    Ls = block_Lstar(Xi, xi.c, xi.psi)
    Mc, Mpsi = block_M(Xi, xi.c, xi.psi)
    terms = [
        (1.0, _pointwise_sq(Xi, [(xi.a, "form"), (xi.phi, "section")])),
        (1.0, _pointwise_sq(Xi, [(Gs, "scalar")])),
        (1.0, _pointwise_sq(Xi, [(Sc, "scalar"), (Spsi, "form01")])),
        (eps ** p, _pointwise_sq(Xi, [(Na, "form"), (Nphi, "section")])),
        (eps ** p, _pointwise_sq(Xi, [(Gva, "form"), (Gvphi, "section")])),
        (eps ** (2 * p), _pointwise_sq(Xi, [(Lc, "scalar"),
                                            (Lpsi, "form01")])),
        (eps ** p, _pointwise_sq(Xi, [(Ssa, "form"), (Ssphi, "section")])),
        (eps ** (2 * p), _pointwise_sq(Xi, [(Ls, "scalar")])),
        (eps ** (2 * p), _pointwise_sq(Xi, [(Mc, "scalar"),
                                            (Mpsi, "form01")])),
    ]
    total = sum(wt * _lp(Xi, sq, p) for wt, sq in terms)
    return WeightedNormReport(eps=eps, p=p, level=1,
                              value=total ** (1.0 / p))


def config_norm_diff(Xi1: Config3D, Xi0: Config3D, eps: float, p: float = 2,
                     level=1) -> WeightedNormReport:
    xi = Tangent3D(a=Xi1.dev - Xi0.dev, phi=Xi1.Phi - Xi0.Phi,
                   v=Xi1.V - Xi0.V, c=Xi1.b - Xi0.b, psi=Xi1.Psi - Xi0.Psi)
    return weighted_norm(Xi0, xi, eps, p, level)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def _pack(xi: Tangent3D) -> np.ndarray:
    return np.concatenate([f.ravel().view(float)
                           for f in (xi.a, xi.phi, xi.v, xi.c, xi.psi)])


def _unpack(Xi: Config3D, vec: np.ndarray) -> Tangent3D:
    m, N, n = Xi.m, Xi.N, Xi.curve.n
    shapes = [(m, 2, n, n), (m, N, n, n), (m, n, n), (m, n, n),
              (m, N, n, n)]
    out, pos = [], 0
    for sh in shapes:
        cnt = 2 * int(np.prod(sh))
        out.append(vec[pos:pos + cnt].view(complex).reshape(sh))
        pos += cnt
    return Tangent3D(*out)


class _ModePreconditioner:
    """Approximate inverse of the derivative-only operator, mode by mode.

    In the unfolded Fourier representation the derivative blocks decouple
    into a 4x4 system on (p, q, v, c) and per-component 2x2 systems on
    (phi_j, psi_j); their delta-regularized inverses form the preconditioner
    for the Newton GMRES solves.
    """

    def __init__(self, Xi: Config3D, eps: float, delta: float = 1e-3):
        curve = Xi.curve
        self.Xi = Xi
        R = Xi.seam.order
        Mt = R * Xi.m
        self.Mt = Mt
        om = 2.0 * math.pi * Xi.m * np.fft.fftfreq(Mt)
        M, K = curve.modes()
        mu = curve.modulus
        lam0 = curve.lam((0.0, 0.0))
        zp = curve.dz_symbol()
        ie2 = 1.0 / eps ** 2
        k2 = 2.0 * curve.imu / curve.area
        n = curve.n
        O = om.reshape(-1, 1, 1) * np.ones((1, n, n))
        Z = np.zeros_like(O, complex)
        L0 = np.broadcast_to(lam0, O.shape)
        ZP = np.broadcast_to(zp, O.shape)
        A4 = np.stack([
            np.stack([O + 0j, Z, -ZP, 1j * ZP], axis=-1),
            np.stack([Z, -O + 0j, -L0, -1j * L0], axis=-1),
            np.stack([ie2 * k2 * L0, ie2 * k2 * ZP, Z, 1j * O], axis=-1),
            np.stack([ie2 * 2j * curve.imu / curve.area * L0,
                      -ie2 * 2j * curve.imu / curve.area * ZP,
                      -1j * O, Z], axis=-1),
        ], axis=-2)
        A4 = A4 + delta * np.eye(4)
        self.inv4 = np.linalg.inv(A4)
        w = curve.form_weight
        self.inv2 = []
        for j in range(Xi.N):
            lamj = curve.lam(Xi.twists[j])
            Lj = np.broadcast_to(lamj, O.shape)
            A2 = np.stack([
                np.stack([1j * O, -w * np.conj(Lj)], axis=-1),
                np.stack([-ie2 * Lj, -1j * O], axis=-1),
            ], axis=-2)
            A2 = A2 + delta * np.eye(2)
            self.inv2.append(np.linalg.inv(A2))

    def apply(self, xi: Tangent3D) -> Tangent3D:
        Xi = self.Xi
        curve = Xi.curve
        m = Xi.m
        # unfold in t and transform all fields to mode space
        a_ext = _extend(Xi, xi.a, "form")
        v_ext = _extend(Xi, xi.v, "scalar")
        c_ext = _extend(Xi, xi.c, "scalar")
        phi_ext = _extend(Xi, xi.phi, "section")
        psi_ext = _extend(Xi, xi.psi, "form01")
        p, q = form_pq(curve, a_ext[:, 0], a_ext[:, 1])

        def hat(arr, theta=(0.0, 0.0)):
            ph = curve.twist_phase(theta)
            return np.fft.fft(np.fft.fft2(arr * np.conj(ph), norm="forward"),
                              axis=0)

        def unhat(arr, theta=(0.0, 0.0)):
            ph = curve.twist_phase(theta)
            return np.fft.ifft2(np.fft.ifft(arr, axis=0),
                                norm="forward") * ph

        vec4 = np.stack([hat(p), hat(q), hat(v_ext), hat(c_ext)], axis=-1)
        sol4 = np.einsum("tijab,tijb->tija", self.inv4, vec4)
        p_s, q_s = unhat(sol4[..., 0]), unhat(sol4[..., 1])
        v_s, c_s = unhat(sol4[..., 2]), unhat(sol4[..., 3])
        ax, ay = form_xy(curve, p_s, q_s)
        phi_s = np.empty_like(phi_ext)
        psi_s = np.empty_like(psi_ext)
        for j in range(Xi.N):
            th = Xi.twists[j]
            vec2 = np.stack([hat(phi_ext[:, j], th),
                             hat(psi_ext[:, j], th)], axis=-1)
            sol2 = np.einsum("tijab,tijb->tija", self.inv2[j], vec2)
            phi_s[:, j] = unhat(sol2[..., 0], th)
            psi_s[:, j] = unhat(sol2[..., 1], th)
        return Tangent3D(a=np.stack([ax[:m], ay[:m]], axis=1),
                         phi=phi_s[:m], v=v_s[:m], c=c_s[:m],
                         psi=psi_s[:m])


def newton_refine(Xi0: Config3D, eps: float, tol: float = 1e-9,
                  max_iter: int = 12, gmres_tol: float = 1e-8,
                  gmres_maxiter: int = 40) -> Tuple[Config3D, List[Dict]]:
    """Gauge-fixed Newton iteration from the adiabatic configuration.

    Each step solves D_eps(Xi_k) xi = (-R1, +R2, 0, -R4, +R5) for the
    current five-row residual R, enforcing the Coulomb-type gauge row by
    construction, and updates Xi.  Stops below tol in the (0,2,eps) norm;
    two consecutive residual increases abort with Divergence.
    """
    Xi = Xi0
    log: List[Dict] = []
    prev = math.inf
    increases = 0
    size = len(_pack(Tangent3D.zero(Xi0)))
    for k in range(max_iter):
        R = sw_map(Xi, eps)
        res = weighted_norm(Xi, R, eps, 2, 0).value
        if res < tol:
            log.append({"k": k, "residual_0_2_eps": res,
                        "increment_1_2_eps": 0.0})
            return Xi, log
        if res >= prev:
            increases += 1
            if increases >= 2:
                raise Divergence(
                    "residual increased twice (wall proximity or eps too "
                    "large)", log=log, residual=res)
        else:
            increases = 0
        prev = res
        rhs = Tangent3D(a=-R.a, phi=R.phi, v=np.zeros_like(R.v), c=-R.c,
                        psi=R.psi)
        pre = _ModePreconditioner(Xi, eps)
        Xi_k = Xi

        def mv(vec):
            return _pack(linearize_apply(Xi_k, _unpack(Xi_k, vec), eps))

        def pc(vec):
            return _pack(pre.apply(_unpack(Xi_k, vec)))

        op = LinearOperator((size, size), matvec=mv, dtype=float)
        M = LinearOperator((size, size), matvec=pc, dtype=float)
        sol, info = gmres(op, _pack(rhs), rtol=gmres_tol, atol=0.0, M=M,
                          maxiter=gmres_maxiter, restart=60)
        if info != 0:
            raise LinearSolveFailure(
                "GMRES did not converge (operator near-singular: eps too "
                "large or wall proximity)", info=int(info), iteration=k)
        xi = _unpack(Xi, sol)
        inc = weighted_norm(Xi, xi, eps, 2, 1).value
        log.append({"k": k, "residual_0_2_eps": res,
                    "increment_1_2_eps": inc})
        Xi = config_update(Xi, xi)
    res = weighted_norm(Xi, sw_map(Xi, eps), eps, 2, 0).value
    if res >= tol:
        raise NonConvergence("Newton refinement did not reach tolerance",
                             residual=res, log=log)
    return Xi, log


# ---------------------------------------------------------------------------
# Appendix identities
# ---------------------------------------------------------------------------

def random_tangent(Xi: Config3D, rng: np.random.Generator,
                   band: Optional[int] = None) -> Tangent3D:
    """Band-limited smooth random tangent with the correct reality types."""
    m, N, n = Xi.m, Xi.N, Xi.curve.n
    R = Xi.seam.order
    Mt = R * m
    bt = max(2, (m // 4))
    bs = band if band is not None else max(2, n // 4)

    def smooth(count):
        shape = (Mt, n, n, count)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kt = np.fft.fftfreq(Mt) * m
        ks = np.fft.fftfreq(n) * n
        # hard truncation outside the band keeps products alias-free
        damp_t = np.exp(-(kt / bt) ** 2) * (np.abs(kt) <= bt)
        damp_s = np.exp(-(ks / bs) ** 2) * (np.abs(ks) <= bs)
        ft = noise * damp_t.reshape(-1, 1, 1, 1)
        ft = ft * damp_s.reshape(1, -1, 1, 1) * damp_s.reshape(1, 1, -1, 1)
        out = np.fft.ifft(np.fft.ifft2(ft, axes=(1, 2)), axis=0)
        return np.moveaxis(out, -1, 1)

    # smooth fields become twisted-periodic by averaging the U-orbit:
    # (Pf)(t) = (1/R) sum_r U^r f(t - r) is equivariant and stays smooth
    def equivariant(kind, raw):
        acc = raw.copy()
        cur = raw
        for _ in range(R - 1):
            rolled = np.roll(cur, m, axis=0)
            cur = np.stack([Xi.seam.apply(rolled[i], kind)
                            for i in range(Mt)])
            acc += cur
        return acc[:m] / R

    tw = np.stack([Xi.curve.twist_phase(t) for t in Xi.twists])
    a = 1j * np.imag(equivariant("form", smooth(2)))
    v = 1j * np.imag(equivariant("scalar", smooth(1)[:, 0]))
    c = 1j * np.imag(equivariant("scalar", smooth(1)[:, 0]))
    phi = equivariant("section", smooth(N) * tw[None])
    psi = equivariant("form01", smooth(N) * tw[None])
    return Tangent3D(a=a, phi=phi, v=v, c=c, psi=psi)


def _grad_t_section(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    return d_t(Xi, arr, kind) + Xi.b[:, None] * arr


def identity_check(Xi: Config3D, samples: int = 10,
                   seed: int = 7) -> Dict[str, float]:
    """Sup residuals of the three operator identities on random inputs.

    identity0:  L* M y = i Re<grad_t Psi, psi>
    identity1:  N G v + S* L v = 0
    identity2:  N S* y + G L* y + S* M y = R_Xi y
    with the remainder, valid at converged solutions,
    R_Xi y = (-i Im((dz<psi,Psi> + w <psi, dbar Psi>) dz-form),
              -2 c grad_t Phi + i c V Phi - i [grad_t, dbar*] psi
              - w <Psi,psi> Phi + (w/2) <psi,Phi>-bar Psi)
    under constant J; identities 0 and 1 hold pointwise on any Xi.
    """
    rng = np.random.default_rng(seed)
    curve = Xi.curve
    w = curve.form_weight
    out = {"identity0": 0.0, "identity1": 0.0, "identity2": 0.0}
    gPsi = _grad_t_section(Xi, Xi.Psi, "form01")
    gPhi = _grad_t_section(Xi, Xi.Phi, "section")
    for _ in range(samples):
        xi = random_tangent(Xi, rng)
        # identity0
        Mc, Mpsi = block_M(Xi, xi.c, xi.psi)
        lhs0 = block_Lstar(Xi, Mc, Mpsi)
        rhs0 = np.stack([1j * w * herm_re(gPsi[i], xi.psi[i])
                         for i in range(Xi.m)])
        out["identity0"] = max(out["identity0"],
                               float(np.max(np.abs(lhs0 - rhs0))))
        # identity1
        Ga, Gphi = block_G(Xi, xi.v)
        Na, Nphi = block_N(Xi, Ga, Gphi)
        Lc, Lpsi = block_L(Xi, xi.v)
        Sa, Sphi = block_Sstar(Xi, Lc, Lpsi)
        out["identity1"] = max(out["identity1"],
                               float(np.max(np.abs(Na + Sa))),
                               float(np.max(np.abs(Nphi + Sphi))))
        # identity2
        Ssa, Ssphi = block_Sstar(Xi, xi.c, xi.psi)
        N2a, N2phi = block_N(Xi, Ssa, Ssphi)
        Ls = block_Lstar(Xi, xi.c, xi.psi)
        G2a, G2phi = block_G(Xi, Ls)
        S2a, S2phi = block_Sstar(Xi, Mc, Mpsi)
        lhs_a = N2a + G2a + S2a
        lhs_phi = N2phi + G2phi + S2phi
        # remainder
        r_a = np.empty_like(lhs_a)
        r_phi = np.empty_like(lhs_phi)
        dpsi_grad = _grad_t_section(Xi, xi.psi, "form01")
        for i in range(Xi.m):
            wfun = w * np.sum(xi.psi[i] * np.conj(Xi.Psi[i]), axis=0)
            dzw = curve.spectral(wfun, curve.dz_symbol()) \
                + w * np.sum(xi.psi[i] * np.conj(_dbar(Xi, i, Xi.Psi[i])),
                             axis=0)
            r_a[i] = -1j * np.stack([np.imag(dzw),
                                     np.imag(dzw * curve.modulus)])
            eta1 = _pair01(curve, Xi.Psi[i], xi.psi[i])
            eta2 = np.conj(_pair01(curve, xi.psi[i], Xi.Phi[i]))
            r_phi[i] = (-2.0 * gPhi[i] + 1j * Xi.V[i][None] * Xi.Phi[i]) \
                * xi.c[i][None] \
                - w * eta1[None] * Xi.Phi[i] \
                + 0.5 * w * eta2[None] * Xi.Psi[i]
        gdbar = _grad_t_section(
            Xi, np.stack([_dbar_star(Xi, i, xi.psi[i])
                          for i in range(Xi.m)]), "section")
        dbarg = np.stack([_dbar_star(Xi, i, dpsi_grad[i])
                          for i in range(Xi.m)])
        r_phi += -1j * (gdbar - dbarg)
        out["identity2"] = max(out["identity2"],
                               float(np.max(np.abs(lhs_a - r_a))),
                               float(np.max(np.abs(lhs_phi - r_phi))))
    return out


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def save_config3d(prefix: str, Xi: Config3D, eps: float) -> List[str]:
    """Per-slice field files plus a manifest JSON."""
    written = []
    base = {
        "n": Xi.curve.n,
        "modulus": [Xi.curve.modulus.real, Xi.curve.modulus.imag],
        "area": Xi.curve.area,
        "holonomies": Xi.twists.tolist(),
    }
    for i in range(Xi.m):
        t = i / Xi.m
        for name, arr in (("phi", Xi.Phi[i]), ("psi", Xi.Psi[i]),
                          ("dev", Xi.dev[i]), ("V", Xi.V[i][None]),
                          ("b", Xi.b[i][None])):
            path = f"{prefix}.t{i:03d}.{name}.f64"
            save_field(path, arr, {**base, "component": name, "time": t})
            written.append(path)
    manifest = {
        "m": Xi.m, "eps": eps,
        "fstar": Xi.family.mc.fstar.to_lists(),
        "lifts": Xi.seam.W.tolist(),
        "files": written,
    }
    with open(prefix + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return written
