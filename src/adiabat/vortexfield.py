"""Discretized fields on a flat elliptic curve and the multi-vortex solver.

Conventions.  The curve is C/(Z + mu Z) with z = x + mu y, (x, y) in the unit
square, metric rho |dz|^2 with rho chosen so the total area is ``area``
(default 2 pi, making the volume form area * dx dy).  Sections of a flat
line bundle with holonomy theta in (R/Z)^2 are sampled on the uniform grid;
the samples include the twist phase exp(2 pi i (theta_1 x + theta_2 y)), so
spectral operators strip the phase, act diagonally on Fourier modes, and
restore it.  A (0,1)-form is stored through its dz-bar coefficient q, a
1-form through real components (alpha_x, alpha_y); the pointwise metric
weight of dz-bar is Im(mu)/pi when area = 2 pi.

The multi-vortex solve uses the complex-gauge substitution Phi = e^u Phi_0
with Phi_0 = 1 in the active summand, reducing the moment-map equation to a
scalar Kazdan-Warner-type equation Delta u + (1/2) e^{2u} - tau = 0 with
Delta positive semidefinite, solved by Newton iteration in Fourier space.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .braid import TorusBraid
from .errors import (EndpointMismatch, HolonomyMismatch, NoHolomorphicSection,
                     NonConvergence)
from .topology import MappingClass, validate_mapping_class
from .zlattice import IntMatrix

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Curve and spectral helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatCurve:
    modulus: complex
    n: int
    area: float = TWO_PI

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("grid resolution must be even and at least 8")
        if not (cmath.isfinite(self.modulus) and math.isfinite(self.area)):
            raise ValueError("modulus and area must be finite")
        if self.modulus.imag <= 0:
            raise ValueError("modulus must have positive imaginary part")
        if self.area <= 0:
            raise ValueError("area must be positive")

    @property
    def imu(self) -> float:
        return self.modulus.imag

    @property
    def form_weight(self) -> float:
        """Pointwise metric norm of dz-bar: |dzbar|^2_g = 2 Im(mu) / area."""
        return 2.0 * self.imu / self.area

    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        c = np.arange(self.n) / self.n
        return np.meshgrid(c, c, indexing="ij")

    def modes(self) -> Tuple[np.ndarray, np.ndarray]:
        m = np.fft.fftfreq(self.n, 1.0 / self.n)
        return np.meshgrid(m, m, indexing="ij")

    def twist_phase(self, theta: Sequence[float]) -> np.ndarray:
        X, Y = self.grid()
        return np.exp(2j * math.pi * (theta[0] * X + theta[1] * Y))

    def lam(self, theta: Sequence[float]) -> np.ndarray:
        """Dolbeault symbol: dbar e_{m,k} = lam * e_{m,k} dzbar."""
        M, K = self.modes()
        mu = self.modulus
        return (math.pi / self.imu) * (mu * (M + theta[0]) - (K + theta[1]))

    def dz_symbol(self) -> np.ndarray:
        M, K = self.modes()
        return (math.pi / self.imu) * (K - np.conj(self.modulus) * M)

    # -- basic transforms --------------------------------------------------

    def to_modes(self, vals: np.ndarray, theta=(0.0, 0.0)) -> np.ndarray:
        return np.fft.fft2(vals * np.conj(self.twist_phase(theta)),
                           norm="forward")

    def from_modes(self, coef: np.ndarray, theta=(0.0, 0.0)) -> np.ndarray:
        return np.fft.ifft2(coef, norm="forward") * self.twist_phase(theta)

    def spectral(self, vals: np.ndarray, symbol: np.ndarray,
                 theta=(0.0, 0.0)) -> np.ndarray:
        return self.from_modes(symbol * self.to_modes(vals, theta), theta)


def wrap_twist(theta) -> np.ndarray:
    """Canonical representative in [-1/2, 1/2)^2."""
    t = np.asarray(theta, dtype=float)
    return (t + 0.5) % 1.0 - 0.5


def toroidal_distance(a, b) -> float:
    d = wrap_twist(np.asarray(a, float) - np.asarray(b, float))
    return float(np.max(np.abs(d)))


# -- inner products ---------------------------------------------------------

def integral(curve: FlatCurve, vals: np.ndarray) -> complex:
    """Integral against the volume form (area-weighted grid mean)."""
    axes = (-2, -1)
    return curve.area * complex(np.sum(np.mean(vals, axis=axes)))


def ip_section(curve: FlatCurve, s1: np.ndarray, s2: np.ndarray) -> float:
    return float(np.real(integral(curve, s1 * np.conj(s2))))


def ip_form01(curve: FlatCurve, w1: np.ndarray, w2: np.ndarray) -> float:
    return curve.form_weight * float(np.real(integral(curve, w1 * np.conj(w2))))


# -- 1-form component conversions ------------------------------------------

def form_pq(curve: FlatCurve, ax: np.ndarray, ay: np.ndarray):
    """(alpha_x, alpha_y) -> (p, q) with alpha = p dz + q dzbar."""
    mu = curve.modulus
    den = 2j * curve.imu
    q = (mu * ax - ay) / den
    p = (ay - np.conj(mu) * ax) / den
    return p, q


def form_xy(curve: FlatCurve, p: np.ndarray, q: np.ndarray):
    mu = curve.modulus
    return p + q, p * mu + q * np.conj(mu)


def star_d(curve: FlatCurve, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Hodge star of d(alpha) for a 1-form: (dx ay - dy ax) / area."""
    M, K = curve.modes()
    dxay = curve.spectral(ay, 2j * math.pi * M)
    dyax = curve.spectral(ax, 2j * math.pi * K)
    return (dxay - dyax) / curve.area


def d_star(curve: FlatCurve, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Codifferential d* alpha = -star d star alpha for 1-forms."""
    p, q = form_pq(curve, ax, ay)
    # star alpha = -i p dz + i q dzbar
    sx, sy = form_xy(curve, -1j * p, 1j * q)
    return -star_d(curve, sx, sy)


def d_scalar(curve: FlatCurve, f: np.ndarray):
    M, K = curve.modes()
    return (curve.spectral(f, 2j * math.pi * M),
            curve.spectral(f, 2j * math.pi * K))


# ---------------------------------------------------------------------------
# Dolbeault operators on twisted sections
# ---------------------------------------------------------------------------

def _per_component(vals, twists):
    vals = np.asarray(vals)
    single = vals.ndim == 2
    v = vals[None] if single else vals
    t = np.atleast_2d(np.asarray(twists, float))
    if len(t) != len(v):
        raise HolonomyMismatch("one twist vector per component is required",
                               components=len(v), twists=len(t))
    return v, t, single


def dolbeault_apply(curve: FlatCurve, vals, twists, qbeta=None) -> np.ndarray:
    """dbar_{B,A} on twisted sections; returns the dzbar coefficient.

    ``qbeta`` is an optional connection deviation, the dzbar coefficient of
    the (0,1)-part of the added connection form (per component or shared).
    """
    v, t, single = _per_component(vals, twists)
    out = np.empty_like(v)
    for j in range(len(v)):
        out[j] = curve.spectral(v[j], curve.lam(t[j]), t[j])
        if qbeta is not None:
            qb = qbeta[j] if np.ndim(qbeta) == 3 else qbeta
            out[j] += qb * v[j]
    return out[0] if single else out


def dolbeault_adjoint(curve: FlatCurve, vals, twists, qbeta=None) -> np.ndarray:
    """L2 adjoint of dolbeault_apply: (0,1)-forms to sections."""
    v, t, single = _per_component(vals, twists)
    w = curve.form_weight
    out = np.empty_like(v)
    for j in range(len(v)):
        out[j] = curve.spectral(v[j], w * np.conj(curve.lam(t[j])), t[j])
        if qbeta is not None:
            qb = qbeta[j] if np.ndim(qbeta) == 3 else qbeta
            out[j] += w * np.conj(qb) * v[j]
    return out[0] if single else out


def flat_deviation_q(curve: FlatCurve, delta_a) -> complex:
    """dzbar coefficient of the flat connection form 2 pi i delta_a (dx,dy)."""
    da = np.asarray(delta_a, float)
    mu = curve.modulus
    return complex((2j * math.pi) * (mu * da[0] - da[1]) / (2j * curve.imu))


# ---------------------------------------------------------------------------
# Bundle families
# ---------------------------------------------------------------------------

class HolonomyPath:
    """Lift of one strand's holonomy path to R^2, piecewise linear or smooth."""

    def __init__(self, eval_fn: Callable[[float], np.ndarray],
                 deriv_fn: Callable[[float], np.ndarray],
                 breaks: Sequence[float] = (0.0, 1.0)):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self.breaks = tuple(sorted(set(float(b) for b in breaks)))

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self._eval(float(t)), float)

    def deriv(self, t: float) -> np.ndarray:
        return np.asarray(self._deriv(float(t)), float)

    @staticmethod
    def piecewise_linear(points: Sequence[Tuple[float, float, float]]) -> "HolonomyPath":
        ts = np.array([float(p[0]) for p in points])
        xs = np.array([[float(p[1]), float(p[2])] for p in points])

        def ev(t):
            return np.array([np.interp(t, ts, xs[:, 0]),
                             np.interp(t, ts, xs[:, 1])])

        def dv(t):
            i = int(np.searchsorted(ts, t, side="right")) - 1
            i = min(max(i, 0), len(ts) - 2)
            return (xs[i + 1] - xs[i]) / (ts[i + 1] - ts[i])

        return HolonomyPath(ev, dv, breaks=ts)

    @staticmethod
    def trigonometric(a0, winding, amp=(0.0, 0.0)) -> "HolonomyPath":
        """Smooth closed lift a0 + t w + sin(2 pi t)/(2 pi) * amp."""
        a0 = np.asarray(a0, float)
        w = np.asarray(winding, float)
        r = np.asarray(amp, float)

        def ev(t):
            return a0 + t * w + math.sin(TWO_PI * t) / TWO_PI * r

        def dv(t):
            return w + math.cos(TWO_PI * t) * r

        return HolonomyPath(ev, dv)


@dataclass
class FlatBundleFamily:
    """N holonomy paths with twisted closing, plus perturbation (sigma, tau)."""

    N: int
    mc: MappingClass
    closing_permutation: Tuple[int, ...]
    paths: List[HolonomyPath]
    sigma: Callable[[float], np.ndarray] = field(
        default=lambda t: np.zeros(2))
    tau_bar: float = 2.0
    # optional t-independent spatial profile tau(X, Y); with spatially
    # constant sigma the closedness constraint forces tau_dot = 0
    tau_spatial: Optional[Callable] = None

    def tau(self):
        return self.tau_spatial if self.tau_spatial is not None \
            else self.tau_bar

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.paths) != self.N:
            raise ValueError("need one path per summand")
        F = np.array(self.mc.fstar.to_lists(), float)
        for k in range(self.N):
            end = F @ self.paths[k](1.0)
            start = self.paths[self.closing_permutation[k]](0.0)
            if toroidal_distance(start, end) > 1e-9:
                raise EndpointMismatch(
                    f"path {k}: closing does not match f* endpoint mod Z^2",
                    strand=k, distance=toroidal_distance(start, end))
        # spatially constant sigma has star d sigma = 0, so the closedness
        # constraint tau_dot + star d sigma = 0 holds with constant tau
        s = np.asarray(self.sigma(0.5), float)
        if s.shape != (2,):
            raise ValueError("sigma must be a spatially constant 1-form (2,)")

    def holonomies(self, t: float) -> np.ndarray:
        return np.stack([p(t) for p in self.paths])

    def velocities(self, t: float) -> np.ndarray:
        return np.stack([p.deriv(t) for p in self.paths])

    def breaks(self) -> Tuple[float, ...]:
        out = set()
        for p in self.paths:
            out.update(p.breaks)
        return tuple(sorted(out | {0.0, 1.0}))

    @staticmethod
    def from_braid(b: TorusBraid, tau_bar: float = 2.0,
                   sigma=None) -> "FlatBundleFamily":
        paths = [HolonomyPath.piecewise_linear(
            [(float(t), float(x), float(y)) for (t, x, y) in s])
            for s in b.strands]
        return FlatBundleFamily(
            N=b.N, mc=b.mc, closing_permutation=b.closing_permutation,
            paths=paths, sigma=sigma or (lambda t: np.zeros(2)),
            tau_bar=tau_bar)


def smooth_family(tau_spatial: Optional[Callable] = None) -> FlatBundleFamily:
    """The smooth reference family of the tests and studies.

    One vortex (N = 1, f* = identity, tau_bar = 2) over the trigonometric
    holonomy loop a0 + t (1, 0) + sin(2 pi t)/(2 pi) (0.15, -0.1) with
    a0 = (0.3, 0.1); ``tau_spatial`` optionally replaces the constant tau.
    """
    mc = validate_mapping_class(1, IntMatrix.identity(2))
    path = HolonomyPath.trigonometric([0.3, 0.1], [1, 0], amp=[0.15, -0.1])
    return FlatBundleFamily(N=1, mc=mc, closing_permutation=(0,),
                            paths=[path], tau_bar=2.0,
                            tau_spatial=tau_spatial)


# ---------------------------------------------------------------------------
# Vortex configurations
# ---------------------------------------------------------------------------

@dataclass
class VortexConfig:
    """Framed vortex data: flat base holonomy zeta0 plus an iR-valued 1-form
    deviation alpha, and the N-component spinor Phi (grid samples including
    twist phases).  Component twists are frozen at their t = 0 values; the
    moving part of the family connection enters through dbar deviations."""

    curve: FlatCurve
    zeta0: np.ndarray                 # (2,) flat holonomy at assembly time
    alpha: Tuple[np.ndarray, np.ndarray]  # iR-valued components (ax, ay)
    Phi: np.ndarray                   # (N, n, n) complex
    twists: np.ndarray                # (N, 2) frozen component twists
    k: int                            # active summand

    @property
    def N(self) -> int:
        return len(self.Phi)

    def holonomy(self) -> np.ndarray:
        """Gauge-invariant holonomy of A: zeta0 shifted by alpha's mean."""
        ax, ay = self.alpha
        shift = np.array([np.mean(ax), np.mean(ay)]) / (2j * math.pi)
        return wrap_twist(self.zeta0 + np.real(shift))

    def q_alpha(self) -> np.ndarray:
        return form_pq(self.curve, *self.alpha)[1]

    def dbar(self, vals, twists=None, extra_q=None):
        t = self.twists if twists is None else twists
        if twists is not None and np.max(np.abs(
                wrap_twist(np.asarray(twists) - self.twists))) > 1e-12:
            raise HolonomyMismatch("field twisting disagrees with context",
                                   expected=self.twists.tolist())
        q = self.q_alpha()
        if extra_q is not None:
            q = q + extra_q if np.ndim(extra_q) < 3 else extra_q + q[None]
        return dolbeault_apply(self.curve, vals, t, qbeta=q)

    def phi_l2_sq(self) -> float:
        return float(sum(ip_section(self.curve, p, p) for p in self.Phi))

    def apply_gauge(self, chi: np.ndarray) -> "VortexConfig":
        """Unitary gauge transform by e^{i chi} for real periodic chi."""
        phase = np.exp(1j * chi)
        dx, dy = d_scalar(self.curve, chi)
        ax, ay = self.alpha
        return replace(self, Phi=self.Phi * phase[None],
                       alpha=(ax + 1j * dx, ay + 1j * dy))


def _tau_grid(curve: FlatCurve, tau) -> np.ndarray:
    if callable(tau):
        X, Y = curve.grid()
        return np.asarray(tau(X, Y), float)
    return np.broadcast_to(np.asarray(tau, float),
                           (curve.n, curve.n)).copy()


def moment_residual(cfg: VortexConfig, tau) -> float:
    """sup |star F_A - (i/2)|Phi|^2 + i tau| over the grid."""
    tg = _tau_grid(cfg.curve, tau)
    dens = np.sum(np.abs(cfg.Phi) ** 2, axis=0)
    val = star_d(cfg.curve, *cfg.alpha) - 0.5j * dens + 1j * tg
    return float(np.max(np.abs(val)))


def _kw_laplacian_symbol(curve: FlatCurve) -> np.ndarray:
    """Positive-semidefinite symbol of Delta = 2 dbar* dbar on functions."""
    return 2.0 * curve.form_weight * np.abs(curve.lam((0.0, 0.0))) ** 2


def _kw_newton(curve: FlatCurve, tau_g: np.ndarray, tol: float,
               max_iter: int = 60):
    """Solve Delta u + (1/2) e^{2u} - tau = 0; returns (u, increments)."""
    sym = _kw_laplacian_symbol(curve)
    # roundoff floor of the spectral Laplacian grows with the top symbol
    tol = max(tol, 8.0 * np.finfo(float).eps * float(np.max(sym)))
    tau_bar = float(np.mean(tau_g))
    u = np.full((curve.n, curve.n), 0.5 * math.log(2.0 * tau_bar))
    n2 = curve.n * curve.n
    increments = []
    for _ in range(max_iter):
        e2u = np.exp(2.0 * u)
        F = np.real(curve.spectral(u, sym)) + 0.5 * e2u - tau_g
        res = float(np.max(np.abs(F)))
        if res < tol:
            return u, increments
        shift = float(np.mean(e2u))

        def apply_J(x):
            xg = x.reshape(curve.n, curve.n)
            return (np.real(curve.spectral(xg, sym)) + e2u * xg).ravel()

        def apply_M(x):
            xg = x.reshape(curve.n, curve.n)
            return np.real(curve.spectral(xg, 1.0 / (sym + shift))).ravel()

        op = LinearOperator((n2, n2), matvec=apply_J)
        pre = LinearOperator((n2, n2), matvec=apply_M)
        du, info = cg(op, -F.ravel(), rtol=1e-13, atol=0.0, M=pre,
                      maxiter=500)
        if info != 0:
            raise NonConvergence("inner CG solve failed", info=info)
        du = du.reshape(curve.n, curve.n)
        u = u + du
        increments.append(float(np.max(np.abs(du))))
    raise NonConvergence("Kazdan-Warner Newton iteration did not converge",
                         residual=res, max_iter=max_iter)


def vortex_solve(curve: FlatCurve, holonomies, k: int, tau,
                 zeta=None, tol: float = 1e-12):
    """Framed multi-vortex solution with the section in summand k.

    ``holonomies`` are the a_j at the current parameter time; the line
    bundle holonomy is zeta0 = -a_k so summand k carries a holomorphic
    section (zero total twist).  Returns (VortexConfig, newton increments).
    """
    hol = np.atleast_2d(np.asarray(holonomies, float))
    if not 0 <= k < len(hol):
        raise ValueError("active summand index out of range")
    zeta0 = wrap_twist(-hol[k])
    if zeta is not None and toroidal_distance(zeta, zeta0) > 1e-9:
        matches = [j for j in range(len(hol))
                   if toroidal_distance(zeta, -hol[j]) <= 1e-9]
        if not matches:
            raise NoHolomorphicSection(
                "no summand holonomy matches -zeta; the twisted bundle has "
                "no holomorphic section", zeta=list(np.asarray(zeta, float)))
        raise NoHolomorphicSection(
            "zeta matches a different summand than the requested k",
            matches=matches, k=k)
    tau_g = _tau_grid(curve, tau)
    tau_bar = float(np.mean(tau_g))
    if not (np.all(np.isfinite(tau_g)) and tau_bar > 0):
        raise ValueError("need finite tau and d - tau_bar < 0: with d = 0, "
                         "tau_bar must be positive")
    u, increments = _kw_newton(curve, tau_g, tol)
    twists = wrap_twist(hol + zeta0[None])
    Phi = np.zeros((len(hol), curve.n, curve.n), complex)
    Phi[k] = np.exp(u)
    # alpha = (del - delbar) u: p = dz u, q = -dzbar u
    p = curve.spectral(u.astype(complex), curve.dz_symbol())
    q = -curve.spectral(u.astype(complex), curve.lam((0.0, 0.0)))
    alpha = form_xy(curve, p, q)
    cfg = VortexConfig(curve=curve, zeta0=zeta0, alpha=alpha, Phi=Phi,
                       twists=twists, k=k)
    return cfg, increments


# ---------------------------------------------------------------------------
# Snapshot I/O
# ---------------------------------------------------------------------------

def save_field(path: str, values: np.ndarray, sidecar: dict) -> None:
    """Raw little-endian float64 (re, im) pairs, row-major, plus JSON sidecar."""
    flat = np.ascontiguousarray(values, dtype=complex)
    buf = np.empty(flat.shape + (2,), dtype="<f8")
    buf[..., 0] = flat.real
    buf[..., 1] = flat.imag
    with open(path, "wb") as fh:
        fh.write(buf.tobytes())
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_field(path: str) -> Tuple[np.ndarray, dict]:
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    raw = np.frombuffer(open(path, "rb").read(), dtype="<f8")
    n = sidecar["n"]
    pairs = raw.reshape(-1, n, n, 2)
    values = pairs[..., 0] + 1j * pairs[..., 1]
    if values.shape[0] == 1:
        values = values[0]
    return values, sidecar


def save_vortex_config(prefix: str, cfg: VortexConfig, t: float,
                       holonomies=None) -> List[str]:
    """One file per spinor component plus the connection deviation form."""
    base = {
        "n": cfg.curve.n,
        "modulus": [cfg.curve.modulus.real, cfg.curve.modulus.imag],
        "area": cfg.curve.area,
        "holonomies": (np.asarray(holonomies, float).tolist()
                       if holonomies is not None
                       else cfg.twists.tolist()),
        "time": t,
    }
    written = []
    for j in range(cfg.N):
        p = f"{prefix}.phi{j}.f64"
        save_field(p, cfg.Phi[j], {**base, "component": f"phi{j}"})
        written.append(p)
    p = f"{prefix}.alpha.f64"
    save_field(p, np.stack(cfg.alpha), {**base, "component": "alpha"})
    written.append(p)
    return written

