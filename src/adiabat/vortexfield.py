"""Discretized fields on a flat elliptic curve and the multi-vortex solver.

Conventions.  The curve is C/(Z + mu Z) with z = x + mu y, (x, y) in the unit
square, metric rho |dz|^2 with rho chosen so the total area is
``area`` = 2 pi, making the volume form area * dx dy.  Sections of a flat
line bundle with holonomy theta in (R/Z)^2 are sampled on the uniform grid;
the samples include the twist phase exp(2 pi i (theta_1 x + theta_2 y)), so
spectral operators strip the phase, act diagonally on Fourier modes, and
restore it.  A (0,1)-form is stored through its dz-bar coefficient q, a
1-form as one (..., 2, n, n) array of its components (alpha_x, alpha_y);
the pointwise metric weight of dz-bar is Im(mu)/pi.

Arrays.  The grid is always the last two axes.  Every spectral operator
(``FlatCurve.spectral``, ``d_scalar``, ``star_d``, ``d_star`` and
``Dolbeault``) acts on (..., n, n) input, or (..., 2, n, n) 1-forms, any
leading axes being a stack such as the t-slices of a 3D configuration,
with one 2D FFT over axes (-2, -1) per call.  Per-component data of an
N-summand spinor is (..., N, n, n), with twists (N, 2) matched to axis
-3, or a stack of twists (..., N, 2) matched to the axes before the grid.
Each curve builds its constants (grid, modes, derivative symbols) once,
and the twist phase, its conjugate and the Dolbeault symbol once per
twist or stack of twists, on first use, from one formula broadcast over
the stack; they are returned as read-only arrays and live as long as the
curve.  The transforms write their products and inverse FFTs into the
arrays they have just made.

The twisted Dolbeault operator dbar_beta = dbar + q(beta) and its L2
adjoint, which the transport equation and the 3D equations both apply,
are discretized in one place, ``Dolbeault``, built once per set of twists
and connection deviation; ``form_q`` gives the dzbar coefficient q of a
1-form.  So are the moment map ``moment_map``, the Hodge star
``hodge_star`` and ``pcg``, the batched conjugate gradients of the
Kazdan-Warner steps and of the auxiliary spinor equation of transport.

The multi-vortex solve uses the complex-gauge substitution Phi = e^u Phi_0
with Phi_0 = 1 in the active summand, reducing the moment-map equation to a
scalar Kazdan-Warner-type equation Delta u + (1/2) e^{2u} - tau = 0 with
Delta positive semidefinite, solved by Newton iteration whose linear
steps are ``pcg`` solves preconditioned in Fourier space.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .braid import TorusBraid
from .errors import EndpointMismatch, HolonomyMismatch, NonConvergence
from .topology import MappingClass, validate_mapping_class
from .zlattice import IntMatrix

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Curve and spectral helpers
# ---------------------------------------------------------------------------

# twist arrays (one twist or a stack) whose phases and symbols a curve
# keeps; the oldest is dropped first
TWIST_CACHE_SIZE = 64
# Kazdan-Warner Newton: residual tolerance (raised to the round-off floor)
# and iteration cap; residual reduction and iteration cap of each step's
# conjugate-gradient solve
KW_TOL = 1e-12
KW_MAX_ITER = 60
KW_CG_RTOL = 1e-13
KW_CG_MAXITER = 500


def _read_only(arrs):
    for a in arrs:
        a.setflags(write=False)
    return arrs


def _curve_constant(build):
    """Method decorator: build a curve constant once and keep it read-only."""
    @functools.wraps(build)
    def get(self):
        hit = self._consts.get(build.__name__)
        if hit is None:
            hit = self._consts[build.__name__] = build(self)
            _read_only(hit if isinstance(hit, tuple) else (hit,))
        return hit
    return get


@dataclass(frozen=True)
class FlatCurve:
    modulus: complex
    n: int
    area: ClassVar[float] = TWO_PI
    _consts: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _twists: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("grid resolution must be even and at least 8")
        if not cmath.isfinite(self.modulus):
            raise ValueError("modulus must be finite")
        if self.modulus.imag <= 0:
            raise ValueError("modulus must have positive imaginary part")

    @property
    def imu(self) -> float:
        return self.modulus.imag

    @property
    def form_weight(self) -> float:
        """Pointwise metric norm of dz-bar: |dzbar|^2_g = 2 Im(mu) / area."""
        return 2.0 * self.imu / self.area

    @_curve_constant
    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        c = np.arange(self.n) / self.n
        return tuple(np.meshgrid(c, c, indexing="ij"))

    @_curve_constant
    def modes(self) -> Tuple[np.ndarray, np.ndarray]:
        m = np.fft.fftfreq(self.n, 1.0 / self.n)
        return tuple(np.meshgrid(m, m, indexing="ij"))

    @_curve_constant
    def dz_symbol(self) -> np.ndarray:
        M, K = self.modes()
        return (math.pi / self.imu) * (K - np.conj(self.modulus) * M)

    @_curve_constant
    def grad_symbol(self) -> np.ndarray:
        """(2, n, n) symbols of (d/dx, d/dy): 2 pi i M and 2 pi i K."""
        return 2j * math.pi * np.stack(self.modes())

    def _twisted(self, theta) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phase, lam, conjugate phase) of one twist (2,) or of a stack of
        twists (..., 2), built once per twist array."""
        t = np.asarray(theta, float)
        key = (t.shape, t.tobytes())
        hit = self._twists.get(key)
        if hit is None:
            X, Y = self.grid()
            M, K = self.modes()
            tx, ty = t[..., 0, None, None], t[..., 1, None, None]
            phase = np.exp(2j * math.pi * (tx * X + ty * Y))
            lam = (math.pi / self.imu) * (self.modulus * (M + tx) - (K + ty))
            hit = (phase, lam, np.conj(phase))
            if len(self._twists) >= TWIST_CACHE_SIZE:
                del self._twists[next(iter(self._twists))]
            hit = self._twists[key] = _read_only(hit)
        return hit

    def twist_phase(self, theta) -> np.ndarray:
        """exp(2 pi i theta . (x, y)): (n, n) for one twist, (..., n, n) for
        a (..., 2) stack of twists."""
        return self._twisted(theta)[0]

    def lam(self, theta) -> np.ndarray:
        """Dolbeault symbol: dbar e_{m,k} = lam * e_{m,k} dzbar; (n, n) for
        one twist, (..., n, n) for a (..., 2) stack of twists."""
        return self._twisted(theta)[1]

    # -- basic transforms --------------------------------------------------

    def to_modes(self, vals: np.ndarray, theta=None) -> np.ndarray:
        if theta is None:
            return np.fft.fft2(vals, norm="forward")
        out = vals * self._twisted(theta)[2]
        return np.fft.fft2(out, norm="forward", out=out)

    def from_modes(self, coef: np.ndarray, theta=None) -> np.ndarray:
        return self._phased(np.fft.ifft2(coef, norm="forward"), theta)

    def spectral(self, vals: np.ndarray, symbol: np.ndarray,
                 theta=None) -> np.ndarray:
        """Fourier multiplier ``symbol`` on (..., n, n) samples.

        ``theta`` is None for untwisted functions, one twist, or a stack of
        twists (..., N, 2) matched to the axes before the grid of ``vals``.
        """
        coef = self.to_modes(vals, theta)
        coef = _product(symbol, coef, coef)
        # the 2D inverse transform; numpy's ifft2 drops its ``out`` argument
        return self._phased(np.fft.ifftn(coef, axes=(-2, -1), norm="forward",
                                         out=coef), theta)

    def _phased(self, vals: np.ndarray, theta) -> np.ndarray:
        """Restore the twist phase on samples this curve has just made."""
        if theta is None:
            return vals
        return _product(vals, self._twisted(theta)[0], vals)


def _product(x, y, owned: np.ndarray) -> np.ndarray:
    """x * y, written into ``owned`` (x or y, an array the caller has just
    made) when the product has its shape.  The factors keep their order,
    because a vectorized complex product need not commute bit for bit."""
    if np.broadcast_shapes(np.shape(x), np.shape(y)) == owned.shape:
        return np.multiply(x, y, out=owned)
    return x * y


def wrap_twist(theta) -> np.ndarray:
    """Canonical representative in [-1/2, 1/2)^2."""
    t = np.asarray(theta, dtype=float)
    return (t + 0.5) % 1.0 - 0.5


def toroidal_distance(a, b) -> float:
    d = wrap_twist(np.asarray(a, float) - np.asarray(b, float))
    return float(np.max(np.abs(d)))


def invariant_modulus(fstar) -> complex:
    """A modulus mu whose flat structure f preserves: the default curve of
    a family over f.

    With C = F^T, f preserves C/(Z + mu Z) when C10 mu^2 + (C00 - C11) mu
    - C01 = 0.  An elliptic f* has one root with Im mu > 0: i at order 4,
    +-1/2 + i sqrt(3)/2 at orders 3 and 6 (-1/2 for 0,-1;1,1).  Every mu is
    invariant under +-1 and none under a parabolic or hyperbolic f*; these
    get i.
    """
    (a, b), (_, d) = fstar
    disc = (a + d) ** 2 - 4
    if disc >= 0:
        return 1j
    return complex(d - a, math.copysign(math.sqrt(-disc), b)) / (2 * b)


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

def form_q(curve: FlatCurve, ax, ay):
    """The dzbar coefficient q of alpha = ax dx + ay dy = p dz + q dzbar;
    the components are arrays, or numbers for a constant 1-form."""
    return (curve.modulus * ax - ay) / (2j * curve.imu)


def form_pq(curve: FlatCurve, a: np.ndarray):
    """(p, q) with alpha = p dz + q dzbar, of a 1-form (..., 2, n, n)."""
    ax, ay = a[..., 0, :, :], a[..., 1, :, :]
    p = (ay - np.conj(curve.modulus) * ax) / (2j * curve.imu)
    return p, form_q(curve, ax, ay)


def form_xy(curve: FlatCurve, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    mu = curve.modulus
    return np.stack([p + q, p * mu + q * np.conj(mu)], axis=-3)


def hodge_star(curve: FlatCurve, a: np.ndarray) -> np.ndarray:
    """Hodge star on 1-forms: p dz + q dzbar -> -i p dz + i q dzbar."""
    p, q = form_pq(curve, a)
    return form_xy(curve, -1j * p, 1j * q)


def star_d(curve: FlatCurve, a: np.ndarray) -> np.ndarray:
    """Hodge star of d(alpha) for 1-forms: (dx ay - dy ax) / area."""
    d = curve.spectral(a[..., ::-1, :, :], curve.grad_symbol())
    return (d[..., 0, :, :] - d[..., 1, :, :]) / curve.area


def d_star(curve: FlatCurve, a: np.ndarray) -> np.ndarray:
    """Codifferential d* alpha = -star d star alpha for 1-forms."""
    return -star_d(curve, hodge_star(curve, a))


def d_scalar(curve: FlatCurve, f: np.ndarray) -> np.ndarray:
    """(dx f, dy f) of functions f (..., n, n), stacked on axis -3, from one
    forward transform of f."""
    return curve.spectral(np.asarray(f)[..., None, :, :], curve.grad_symbol())


# ---------------------------------------------------------------------------
# The twisted Dolbeault operator
# ---------------------------------------------------------------------------

class Dolbeault:
    """dbar_beta = dbar + q on twisted sections, and its L2 adjoint.

    ``twists`` is one twist for (..., n, n) sections, or twists (..., N, 2)
    matched to the axes before the grid.  ``q`` is the dzbar coefficient of
    the (0,1)-part of the connection deviation beta, broadcast against the
    sections (per component, or shared by the components).  The symbols
    lam and w conj(lam) and the terms q and w conj(q) are built once and
    serve every product.
    """

    def __init__(self, curve: FlatCurve, twists, q=0):
        self.curve = curve
        self.twists = np.asarray(twists, float)
        w = curve.form_weight
        self.lam = curve.lam(self.twists)
        self.lam_adj = w * np.conj(self.lam)
        self.q = q
        self.q_adj = w * np.conj(q)

    def _spectral(self, vals, symbol) -> np.ndarray:
        lead = self.twists.shape[:-1]
        if lead and np.shape(vals)[-2 - len(lead):-2] != lead:
            raise HolonomyMismatch(
                "one twist vector per component is required",
                components=list(np.shape(vals)[:-2]), twists=len(self.twists))
        return self.curve.spectral(vals, symbol, self.twists)

    def apply(self, vals) -> np.ndarray:
        """dbar_beta: sections to the dzbar coefficient of (0,1)-forms."""
        out = self._spectral(vals, self.lam)
        out += self.q * vals
        return out

    def adjoint(self, vals) -> np.ndarray:
        """dbar_beta*: (0,1)-forms to sections."""
        out = self._spectral(vals, self.lam_adj)
        out += self.q_adj * vals
        return out


# ---------------------------------------------------------------------------
# Bundle families
# ---------------------------------------------------------------------------

class HolonomyPath:
    """Lift of one strand's holonomy path to R^2, piecewise linear or smooth.

    ``constant`` is True only where a constructor knows from its data that
    the path stands still; a path given only by functions may move.
    """

    constant = False

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

        path = HolonomyPath(ev, dv, breaks=ts)
        path.constant = bool(np.all(xs == xs[0]))
        return path

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

        path = HolonomyPath(ev, dv)
        path.constant = not (w.any() or r.any())
        return path


@dataclass
class FlatBundleFamily:
    """N holonomy paths with twisted closing, plus the perturbation tau."""

    N: int
    mc: MappingClass
    closing_permutation: Tuple[int, ...]
    paths: List[HolonomyPath]
    tau_bar: float = 2.0
    # optional spatial profile tau(X, Y), t-independent as the closedness
    # constraint tau_dot = 0 requires
    tau_spatial: Optional[Callable] = None

    def tau(self):
        return self.tau_spatial if self.tau_spatial is not None \
            else self.tau_bar

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.paths) != self.N:
            raise ValueError("need one path per summand")
        # (N, 2, 2): the start and end of each path; a NaN would pass the
        # distance test below
        ends = np.array([(p(0.0), p(1.0)) for p in self.paths])
        if not np.all(np.isfinite(ends)):
            raise ValueError("holonomy path endpoints must be finite")
        F = np.array(self.mc.fstar.to_lists(), float)
        for k in range(self.N):
            end = F @ ends[k, 1]
            start = ends[self.closing_permutation[k], 0]
            if toroidal_distance(start, end) > 1e-9:
                raise EndpointMismatch(
                    f"path {k}: closing does not match f* endpoint mod Z^2",
                    strand=k, distance=toroidal_distance(start, end))

    def holonomies(self, t: float) -> np.ndarray:
        return np.stack([p(t) for p in self.paths])

    @functools.cached_property
    def base_holonomies(self) -> np.ndarray:
        """The holonomies a_j(0) where the strands start, (N, 2), evaluated
        once per family and read-only."""
        return _read_only((self.holonomies(0.0),))[0]

    def velocities(self, t: float) -> np.ndarray:
        return np.stack([p.deriv(t) for p in self.paths])

    def breaks(self) -> Tuple[float, ...]:
        out = set()
        for p in self.paths:
            out.update(p.breaks)
        return tuple(sorted(out | {0.0, 1.0}))

    @staticmethod
    def from_braid(b: TorusBraid, tau_bar: float = 2.0) -> "FlatBundleFamily":
        paths = [HolonomyPath.piecewise_linear(
            [(float(t), float(x), float(y)) for (t, x, y) in s])
            for s in b.strands]
        return FlatBundleFamily(
            N=b.N, mc=b.mc, closing_permutation=b.closing_permutation,
            paths=paths, tau_bar=tau_bar)


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


def tau_profile(X, Y):
    """The spatial tau that the tests and studies give ``smooth_family``
    where tau varies: mean 2 and at least 1.2."""
    return 2.0 + 0.5 * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y) \
        + 0.3 * np.sin(2 * np.pi * X)


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
    alpha: np.ndarray                 # (2, n, n) iR-valued (alpha_x, alpha_y)
    Phi: np.ndarray                   # (N, n, n) complex
    twists: np.ndarray                # (N, 2) frozen component twists
    k: int                            # active summand

    @property
    def N(self) -> int:
        return len(self.Phi)

    def holonomy(self) -> np.ndarray:
        """Gauge-invariant holonomy of A: zeta0 shifted by alpha's mean."""
        shift = np.mean(self.alpha, axis=(-2, -1)) / (2j * math.pi)
        return wrap_twist(self.zeta0 + np.real(shift))

    def dbar(self, vals) -> np.ndarray:
        """dbar_{B,A} of sections with this configuration's twists."""
        return Dolbeault(self.curve, self.twists,
                         form_q(self.curve, *self.alpha)).apply(vals)

    def phi_l2_sq(self) -> float:
        return float(sum(ip_section(self.curve, p, p) for p in self.Phi))

    def apply_gauge(self, chi: np.ndarray) -> "VortexConfig":
        """Unitary gauge transform by e^{i chi} for real periodic chi."""
        phase = np.exp(1j * chi)
        return replace(self, Phi=self.Phi * phase[None],
                       alpha=self.alpha + 1j * d_scalar(self.curve, chi))


def _tau_grid(curve: FlatCurve, tau) -> np.ndarray:
    if callable(tau):
        X, Y = curve.grid()
        return np.asarray(tau(X, Y), float)
    return np.broadcast_to(np.asarray(tau, float),
                           (curve.n, curve.n)).copy()


def moment_map(curve: FlatCurve, alpha: np.ndarray, Phi: np.ndarray,
               tau_grid: np.ndarray) -> np.ndarray:
    """star F_A - (i/2)|Phi|^2 + i tau on the grid, for each configuration
    of a stack: alpha (..., 2, n, n), Phi (..., N, n, n)."""
    return star_d(curve, alpha) - 0.5j * np.sum(np.abs(Phi) ** 2, axis=-3) \
        + 1j * tau_grid


def moment_residuals(curve: FlatCurve, alpha: np.ndarray, Phi: np.ndarray,
                     tau_grid: np.ndarray) -> np.ndarray:
    """sup of |moment_map| over the grid, for each configuration."""
    return np.max(np.abs(moment_map(curve, alpha, Phi, tau_grid)),
                  axis=(-2, -1))


def moment_residual(cfg: VortexConfig, tau) -> float:
    """sup |star F_A - (i/2)|Phi|^2 + i tau| over the grid."""
    return float(moment_residuals(cfg.curve, cfg.alpha, cfg.Phi,
                                  _tau_grid(cfg.curve, tau)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of each system of a stack (axis 0), a conjugated; contiguous
    operands make a product independent of the strides of its views."""
    return np.vecdot(np.ascontiguousarray(a).reshape(len(a), -1),
                     np.ascontiguousarray(b).reshape(len(b), -1))


def pcg(apply: Callable, precondition: Callable, rhs: np.ndarray,
        rtol: float, maxiter: int) -> np.ndarray:
    """Preconditioned conjugate gradients on a stack of Hermitian positive
    definite systems, one per index of axis 0 of ``rhs`` (any trailing
    shape); ``apply`` and ``precondition`` act on the whole stack.  Each
    system has its own step lengths and stops once its residual norm is
    below ``rtol`` times that of its right-hand side (scipy's ``cg`` rule);
    a zero right-hand side gives exactly zero.  The iteration starts from
    zero.  A breakdown (non-finite residual) or ``maxiter`` iterations
    without convergence raise NonConvergence."""
    per_system = (-1,) + (1,) * (rhs.ndim - 1)
    # an overflow or a zero division shows as a non-finite residual, which
    # raises below; numpy's warning for it would be a second report
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = rtol * np.sqrt(_dot(rhs, rhs).real)
        r, x, p = rhs.copy(), np.zeros_like(rhs), np.zeros_like(rhs)
        # rho_prev = inf makes the first direction z itself
        rho_prev = np.inf
        for _ in range(maxiter):
            res = np.sqrt(_dot(r, r).real)
            if not np.all(np.isfinite(res)):
                raise NonConvergence("conjugate-gradient solve broke down",
                                     residuals=res.tolist())
            active = (res >= bound) & (bound > 0)
            if not active.any():
                return x
            z = precondition(r)
            rho = _dot(r, z)
            p *= np.where(active, rho / rho_prev, 0.0).reshape(per_system)
            p += z
            q = apply(p)
            step = np.where(active, rho / _dot(p, q), 0.0).reshape(per_system)
            x += step * p
            r -= step * q
            rho_prev = rho
    raise NonConvergence("conjugate-gradient solve stalled", maxiter=maxiter,
                         residuals=res.tolist())


def _kw_laplacian_symbol(curve: FlatCurve) -> np.ndarray:
    """Positive-semidefinite symbol of Delta = 2 dbar* dbar on functions."""
    return 2.0 * curve.form_weight * np.abs(curve.lam((0.0, 0.0))) ** 2


def _kw_newton(curve: FlatCurve, tau_g: np.ndarray):
    """Solve Delta u + (1/2) e^{2u} - tau = 0; returns (u, increments)."""
    sym = _kw_laplacian_symbol(curve)
    # round-off floor of the residual: the spectral Laplacian's grows with
    # the top symbol, that of (1/2) e^{2u} - tau with tau
    tol = max(KW_TOL, 8.0 * np.finfo(float).eps
              * (float(np.max(sym)) + float(np.max(np.abs(tau_g)))))
    tau_bar = float(np.mean(tau_g))
    u = np.full((curve.n, curve.n), 0.5 * math.log(2.0 * tau_bar))
    increments = []
    for _ in range(KW_MAX_ITER):
        e2u = np.exp(2.0 * u)
        F = np.real(curve.spectral(u, sym)) + 0.5 * e2u - tau_g
        res = float(np.max(np.abs(F)))
        if res < tol:
            return u, increments
        inv = 1.0 / (sym + float(np.mean(e2u)))
        # Jacobian Delta + e^{2u}, preconditioned by (Delta + mean e^{2u})^-1
        du = pcg(lambda x: np.real(curve.spectral(x, sym)) + e2u * x,
                 lambda x: np.real(curve.spectral(x, inv)), -F[None],
                 KW_CG_RTOL, KW_CG_MAXITER)[0]
        u = u + du
        increments.append(float(np.max(np.abs(du))))
    raise NonConvergence("Kazdan-Warner Newton iteration did not converge",
                         residual=res, max_iter=KW_MAX_ITER)


def vortex_solve(curve: FlatCurve, holonomies, k: int, tau):
    """Framed multi-vortex solution with the section in summand k.

    ``holonomies`` are the a_j at the current parameter time; the line
    bundle holonomy is zeta0 = -a_k so summand k carries a holomorphic
    section (zero total twist).  Returns (VortexConfig, newton increments).
    Holonomies that are not finite, and a tau with a grid value beyond
    max_float / (2 n^2) in size (about 1.4e306 at n = 8) or a mean that is
    not positive, raise ValueError.
    """
    hol = np.atleast_2d(np.asarray(holonomies, float))
    if not np.all(np.isfinite(hol)):
        raise ValueError("holonomies must be finite")
    if not 0 <= k < len(hol):
        raise ValueError("active summand index out of range")
    zeta0 = wrap_twist(-hol[k])
    tau_g = _tau_grid(curve, tau)
    # the mean sums the n^2 grid values and Kazdan-Warner starts from
    # log(2 tau_bar): both stay finite when every |tau| is at most
    # max_float / (2 n^2), tested before anything is summed; NaN fails it
    bound = np.finfo(float).max / (2 * tau_g.size)
    if not (np.all(np.abs(tau_g) <= bound) and np.mean(tau_g) > 0):
        raise ValueError(f"need |tau| <= {bound:.3g} on this grid and "
                         "d - tau_bar < 0: with d = 0, tau_bar must be "
                         "positive")
    u, increments = _kw_newton(curve, tau_g)
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
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype="<f8")
    n = sidecar["n"]
    pairs = raw.reshape(-1, n, n, 2)
    values = pairs[..., 0] + 1j * pairs[..., 1]
    if values.shape[0] == 1:
        values = values[0]
    return values, sidecar


def save_vortex_config(prefix: str, cfg: VortexConfig, t: float) -> List[str]:
    """One file per spinor component plus the connection deviation form."""
    base = {
        "n": cfg.curve.n,
        "modulus": [cfg.curve.modulus.real, cfg.curve.modulus.imag],
        "area": cfg.curve.area,
        "twists": cfg.twists.tolist(),
        "time": t,
    }
    written = []
    for j in range(cfg.N):
        p = f"{prefix}.phi{j}.f64"
        save_field(p, cfg.Phi[j], {**base, "component": f"phi{j}"})
        written.append(p)
    p = f"{prefix}.alpha.f64"
    save_field(p, cfg.alpha, {**base, "component": "alpha"})
    written.append(p)
    return written

