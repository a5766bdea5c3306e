"""Rescaled 3D multi-monopole equations on the mapping torus.

Discretization.  The mapping torus glues [0,1] x Sigma by (0, x) ~ (1, f(x))
with f linear, f(x) = C x for the integer matrix C = F^T (F the induced map
on H^1 in the (dx, dy) basis).  A configuration is stored on m uniform
t-slices; the connection is split as A(t) = flat(zeta0) + ref(t) + dev(t)
with ref(t) = -2 pi i (a_{k0}(t) - a_{k0}(0)) (dx, dy) tracking the active
strand, so the stored deviation dev glues linearly across the seam.  The
seam operator U maps slice-i data to slice-(i+m) data: it pulls fields back
along the grid map and moves each spinor component between frozen twists
with an integer large gauge.  t-derivatives are spectral on the R m-slice
unfolding, R being the order of U, computed exactly from C, the closing
permutation and the gauge; this makes D_t exactly skew-adjoint and keeps
the discrete Leibniz rule at spectral accuracy for band-limited fields.

The moment map, the Hodge star on 1-forms and the twisted Dolbeault
operator are those of ``vortexfield``.  Scalar slots V and b are carried
as iR-valued grid functions; the five rows of the rescaled equations and
of the symmetric linearization follow the block layout (N, G, S*; e^-2 G*,
0, L*; e^-2 S, L, M) on x = (a, phi), v, y = (c, psi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (Divergence, LinearSolveFailure, NonConvergence,
                     PeriodicityMismatch)
from .transport import TransportTrace, transported
from .vortexfield import (Dolbeault, FlatBundleFamily, FlatCurve, _tau_grid,
                          d_scalar, d_star, form_pq, form_q, form_xy,
                          hodge_star, moment_map, save_field, star_d)

TWO_PI = 2.0 * math.pi
# largest seam mismatch of a transported end state that assembly accepts
SEAM_TOL = 1e-5
# largest denominator read off a breakpoint time of a family's paths
BREAK_DENOMINATOR = 1000
# Newton refinement: stopping residual in the (0, 2, eps) norm and
# iteration cap; floor of the GMRES relative tolerance and restart cycles
# per step
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 12
GMRES_TOL = 1e-8
GMRES_MAXITER = 40
# Eisenstat-Walker forcing terms of the GMRES solves (``forcing_term``)
FORCING_MAX = 1e-3
FORCING_SAFEGUARD = 1e-4
# regularization of the mode symbol's inverse, the Newton preconditioner
PRECONDITIONER_DELTA = 1e-3


# ---------------------------------------------------------------------------
# Seam gluing
# ---------------------------------------------------------------------------

@dataclass
class SeamGluing:
    """The operator U sending slice-i data to slice-(i+m) data.

    V = U^{-1} realizes the identification of the t = 1 slice with the
    f-pullback of the t = 0 slice: scalars pull back along the exact grid
    map x -> Cx, 1-forms pick up the matrix F = C^T, (0,1)-forms the factor
    conj(gamma) with z(Cx) = gamma z(x).  Spinor component k of the image
    reads component sigma(k): the source is stripped of its twist
    theta_sigma(k), gathered at C^{-1} x on the grid, multiplied by the
    integer large gauge exp(2 pi i v_k . x) and given its twist theta_k.
    """

    curve: FlatCurve
    C: np.ndarray                # integer 2x2, grid map of f
    perm: Tuple[int, ...]        # closing permutation sigma
    twists: np.ndarray           # (N, 2) frozen component twists
    gauge: np.ndarray            # (N, 2) integer large-gauge vectors v_k
    gamma: complex = field(init=False)
    order: int = field(init=False)

    def __post_init__(self):
        mu = self.curve.modulus
        (a, b), (c, d) = C = self.C
        if a * d - b * c != 1:
            raise PeriodicityMismatch("grid map must have determinant 1",
                                      C=C.tolist())
        if abs((b + mu * d) - mu * (a + mu * c)) > 1e-12 * (1 + abs(mu)):
            tr = abs(a + d)
            raise PeriodicityMismatch(
                f"f* is {'hyperbolic' if tr > 2 else 'parabolic'}: no "
                "f-invariant flat structure exists" if tr >= 2 else
                "f does not preserve the complex structure at this modulus",
                modulus=[mu.real, mu.imag], C=C.tolist())
        # |gamma| = 1 follows from det C = 1
        self.gamma = complex(a + mu * c)
        # the grid point x gathers C^-1 x = (d x0 - b x1, a x1 - c x0)
        n = self.curve.n
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        self._idx_fwd = i0, i1 = (d * j - b * k) % n, (a * k - c * j) % n
        # 1-forms push forward by F^-1 = (C^-1)^T
        self._Finv = np.array([[d, -c], [-b, a]])
        # strip theta_sigma(k) at the gathered point, restore theta_k + v_k
        perm = np.asarray(self.perm)
        twist = self.curve.twist_phase(self.twists)
        self._phase_fwd = self.curve.twist_phase(self.twists + self.gauge) \
            * np.conj(twist[perm][:, i0, i1])
        self._idx_section = (perm.reshape(-1, 1, 1), i0[None], i1[None])
        self.order = self._order(perm)

    def push(self, arr: np.ndarray, kind: str) -> np.ndarray:
        """U on the last axes of a stack of slices of one ``kind``:
        "scalar", "form", "section" or "form01"."""
        if kind == "scalar":
            return arr[..., self._idx_fwd[0], self._idx_fwd[1]]
        if kind == "form":
            # einsum, not a BLAS product: a threaded 2 x 2 product over a
            # whole stack burns CPU without saving time
            return np.einsum("ij,...jxy->...ixy", self._Finv,
                             self.push(arr, "scalar"))
        if kind == "section":
            return self._phase_fwd * arr[(...,) + self._idx_section]
        if kind == "form01":
            return self.push(arr, "section") / np.conj(self.gamma)
        raise ValueError(f"unknown field kind {kind!r}")

    def _order(self, perm: np.ndarray) -> int:
        """The order of U on the grid, in integers: U^q, q = lcm(ord C,
        ord sigma), multiplies component k by exp(2 pi i w_k . x) with
        w_k = sum_{r < q} F^-r v_{sigma^r(k)}, of order n / gcd(n, w).
        C preserves a complex structure, so ord C is 1, 2, 3, 4 or 6."""
        ident, one = np.arange(len(perm)), np.eye(2, dtype=int)
        idx, Fr, w, q = ident, one, np.zeros_like(self.gauge), 0
        while q == 0 or not (np.array_equal(idx, ident)
                             and np.array_equal(Fr, one)):
            w += self.gauge[idx] @ Fr.T
            idx, Fr, q = perm[idx], Fr @ self._Finv, q + 1
        n = self.curve.n
        return q * n // math.gcd(n, *w.ravel().tolist())


# ---------------------------------------------------------------------------
# 3D configurations and tangents
# ---------------------------------------------------------------------------

@dataclass
class Config3D:
    dev: np.ndarray            # (m, 2, n, n) iR-valued 1-form deviation
    Phi: np.ndarray            # (m, N, n, n)
    V: np.ndarray              # (m, n, n) iR-valued
    b: np.ndarray              # (m, n, n) iR-valued
    Psi: np.ndarray            # (m, N, n, n)
    seam: SeamGluing           # with the curve and the (N, 2) twists
    cq: np.ndarray             # (m, N) flat dbar deviation constants
    aref_dot: np.ndarray       # (m, 2) active-strand velocity
    tau_grid: np.ndarray       # (n, n)
    # dbar_beta of the slices, beta the connection deviation dev plus the
    # flat constants cq; rebuilt whenever a configuration is made
    dbar: Dolbeault = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _q_of(self, self.dev)[:, None] + self.cq[:, :, None, None]
        self.dbar = Dolbeault(self.curve, self.seam.twists, q)

    @property
    def curve(self) -> FlatCurve:
        return self.seam.curve

    @property
    def m(self) -> int:
        return len(self.dev)

    @property
    def N(self) -> int:
        return self.Phi.shape[1]


# the Config3D fields that the tangent fields (a, phi, v, c, psi) move
MOVED_FIELDS = ("dev", "Phi", "V", "b", "Psi")


def _moved(Xi: Config3D) -> List[np.ndarray]:
    return [getattr(Xi, name) for name in MOVED_FIELDS]


@dataclass
class Tangent3D:
    """A tangent x = (a, phi), v, y = (c, psi); it iterates its fields in
    that order."""

    a: np.ndarray              # (m, 2, n, n)
    phi: np.ndarray            # (m, N, n, n)
    v: np.ndarray              # (m, n, n)
    c: np.ndarray              # (m, n, n)
    psi: np.ndarray            # (m, N, n, n)

    def __iter__(self) -> Iterator[np.ndarray]:
        return (getattr(self, f.name) for f in fields(self))

    def scale(self, s) -> "Tangent3D":
        return Tangent3D(*(s * f for f in self))

    def sup(self) -> float:
        return max(float(np.max(np.abs(f))) for f in self)

    @staticmethod
    def zero(Xi: Config3D) -> "Tangent3D":
        return Tangent3D(*(np.zeros(f.shape, complex) for f in _moved(Xi)))


def config_update(Xi: Config3D, xi: Tangent3D) -> Config3D:
    return replace(Xi, **{name: f + g for name, f, g
                          in zip(MOVED_FIELDS, _moved(Xi), xi)})


# ---------------------------------------------------------------------------
# The spectral t-derivative
# ---------------------------------------------------------------------------

def _extend(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    chunks = [arr]
    for _ in range(Xi.seam.order - 1):
        chunks.append(Xi.seam.push(chunks[-1], kind))
    return np.concatenate(chunks, axis=0)


def d_t(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    """Spectral time derivative with twisted wrap-around."""
    ext = _extend(Xi, arr, kind)
    freqs = Xi.m * np.fft.fftfreq(ext.shape[0])
    shape = (-1,) + (1,) * (arr.ndim - 1)
    hat = np.fft.fft(ext, axis=0)
    out = np.fft.ifft(hat * (2j * math.pi * freqs).reshape(shape), axis=0)
    return out[:Xi.m]


def _grad_t_section(Xi: Config3D, arr: np.ndarray, kind: str) -> np.ndarray:
    return d_t(Xi, arr, kind) + Xi.b[:, None] * arr


# ---------------------------------------------------------------------------
# Sigma operators, applied to all slices at once (slice axis first)
# ---------------------------------------------------------------------------

def _q_of(Xi: Config3D, a: np.ndarray) -> np.ndarray:
    """(m, n, n) dzbar coefficient of an (m, 2, n, n) stack of 1-forms."""
    return form_q(Xi.curve, a[:, 0], a[:, 1])


def _im_form01(curve: FlatCurve, eta: np.ndarray) -> np.ndarray:
    """Components of Im(eta dzbar): (Im eta, Im(eta mubar))."""
    return np.stack([np.imag(eta), np.imag(eta * np.conj(curve.modulus))],
                    axis=1).astype(complex)


def _pair01(Psi: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """<Psi, Phi> pointwise: the dzbar coefficient sum_j Psi_j conj(Phi_j)."""
    return np.sum(Psi * np.conj(Phi), axis=1)


# ---------------------------------------------------------------------------
# Assembly from a transport trace
# ---------------------------------------------------------------------------

def build_seam(curve: FlatCurve, family: FlatBundleFamily, k0: int,
               twists: np.ndarray) -> SeamGluing:
    """The seam of a family with active strand k0 and frozen twists: at
    t = 1 component k has the twist theta_k + dA_k - dA_k0, which differs
    from the pullback twist F^-1 theta_sigma(k) by the integer gauge v_k."""
    if family.closing_permutation[k0] != k0:
        raise PeriodicityMismatch(
            "active strand must be fixed by the closing permutation",
            k0=k0, permutation=list(family.closing_permutation))
    F = np.array(family.mc.fstar.to_lists(), float)
    C = np.round(F.T).astype(int)
    dA = family.holonomies(1.0) - family.base_holonomies
    perm = tuple(family.closing_permutation)
    v = twists[list(perm)] @ np.linalg.inv(F).T - twists - (dA - dA[k0])
    gauge = np.round(v).astype(int)
    if np.max(np.abs(v - gauge)) > SEAM_TOL:
        raise PeriodicityMismatch(
            "seam gauge is not an integer vector", gauge=v.tolist())
    return SeamGluing(curve=curve, C=C, perm=perm, twists=twists,
                      gauge=gauge)


def assemble_adiabatic(trace: TransportTrace, family: FlatBundleFamily,
                       m: int, k0: Optional[int] = None) -> Config3D:
    """Build the adiabatic 3D configuration Xi_0 (V = 0, b = 0) from a trace.

    The trace must contain states at the slice times i/m; each slice takes
    its configuration and its Psi from the state there.  The t = 1 end
    state must match the seam image of the t = 0 slice, otherwise the
    closing gauge cannot be realized on the grid.
    """
    if m < 1:
        raise ValueError("the number of t-slices must be at least 1")
    states = {round(s.t * 1e7): s for s in trace.states}
    curve = trace.states[0].cfg.curve
    if k0 is None:
        k0 = trace.states[0].cfg.k
    seam = build_seam(curve, family, k0, trace.states[0].cfg.twists)
    N, n = family.N, curve.n
    base = family.base_holonomies
    dev = np.empty((m, 2, n, n), complex)
    Phi = np.empty((m, N, n, n), complex)
    Psi = np.empty((m, N, n, n), complex)
    cq = np.empty((m, N), complex)
    aref_dot = np.empty((m, 2))
    for i in range(m):
        t = i / m
        key = round(t * 1e7)
        if key not in states or abs(states[key].t - t) > 1e-9:
            raise PeriodicityMismatch(
                "trace does not sample the slice times i/m", missing_t=t)
        cfg = states[key].cfg
        hol = family.holonomies(t)
        ref = -TWO_PI * (hol[k0] - base[k0])
        dev[i] = cfg.alpha - 1j * ref[:, None, None]
        Phi[i] = cfg.Phi
        Psi[i] = states[key].psi
        da = (hol - base) - (hol[k0] - base[k0])
        cq[i] = 2j * math.pi * form_q(curve, da[:, 0], da[:, 1])
        aref_dot[i] = family.paths[k0].deriv(t)
    Xi = Config3D(dev=dev, Phi=Phi, V=np.zeros((m, n, n), complex),
                  b=np.zeros((m, n, n), complex), Psi=Psi, seam=seam, cq=cq,
                  aref_dot=aref_dot, tau_grid=_tau_grid(curve, family.tau()))
    # seam closure: the t = 1 trace state must be U(slice 0)
    end = trace.states[-1]
    if abs(end.t - 1.0) > 1e-9:
        raise PeriodicityMismatch("trace does not reach t = 1", t=end.t)
    ref1 = -TWO_PI * (family.holonomies(1.0)[k0] - base[k0])
    dev_end = end.cfg.alpha - 1j * ref1[:, None, None]
    mis_dev = np.max(np.abs(dev_end - seam.push(dev[0], "form")))
    mis_phi = np.max(np.abs(end.cfg.Phi - seam.push(Phi[0], "section")))
    if max(mis_dev, mis_phi) > SEAM_TOL:
        raise PeriodicityMismatch(
            "transport end state does not close up across the seam",
            dev_mismatch=float(mis_dev), phi_mismatch=float(mis_phi))
    return Xi


def adiabatic_config(curve: FlatCurve, family: FlatBundleFamily, m: int,
                     steps: int, tol: float = 1e-6) -> Config3D:
    """The adiabatic 3D configuration Xi_0 of a family on m slices.

    The active strand k0 is the first strand fixed by the closing
    permutation.  Its vortex seed is transported at moment tolerance
    ``tol`` in max(steps, 4 m) steps, rounded up to a multiple of m and of
    the breakpoints' common denominator so that every slice time i/m is a
    step time, and assembled on the slices.
    """
    if m < 1:
        raise ValueError("the number of t-slices must be at least 1")
    fixed = [k for k, j in enumerate(family.closing_permutation) if j == k]
    if not fixed:
        raise PeriodicityMismatch(
            "no strand is fixed by the closing permutation",
            permutation=list(family.closing_permutation))
    k0 = fixed[0]
    unit = m
    for b in family.breaks():
        frac = Fraction(b).limit_denominator(BREAK_DENOMINATOR)
        if float(frac) == b:  # b is p/q with q <= BREAK_DENOMINATOR
            unit = math.lcm(unit, frac.denominator)
    steps = -(-max(steps, 4 * m) // unit) * unit
    trace = transported(curve, family, k0, steps, tol)
    return assemble_adiabatic(trace, family, m)


def adiabatic_residual(Xi: Config3D, eps: float = 1.0) -> float:
    """Sup norm of the first three rows of the rescaled equations."""
    rows = sw_map(Xi, eps)
    return max(float(np.max(np.abs(rows.a))), float(np.max(np.abs(rows.phi))),
               float(np.max(np.abs(rows.v))))


# ---------------------------------------------------------------------------
# The five-row map and its linearization
# ---------------------------------------------------------------------------

def check_eps(eps: float) -> float:
    """``eps``, if it is positive with eps^4 and 1/eps^4 finite and
    nonzero (about 1e-77 < eps < 1e77); otherwise ValueError.  eps^4 is
    the largest weight the norms take, eps^(2p) at p = 2.  Powers are
    formed by products, which round to 0 or inf where ** would raise:
    1e-300 squares to 0, 1e-160 to a subnormal whose inverse overflows."""
    e2 = float(eps) * float(eps)
    e4 = e2 * e2
    if not (eps > 0 and 0 < e4 < math.inf and 1.0 / e4 < math.inf):
        raise ValueError(f"eps must be positive with eps^4 and 1/eps^4 "
                         f"finite and nonzero, got {eps!r}")
    return eps


def sw_map(Xi: Config3D, eps: float) -> Tangent3D:
    """Discrete evaluation of the rescaled equations; row 3 is zero."""
    check_eps(eps)
    curve = Xi.curve
    ie2 = 1.0 / eps ** 2
    Adot = d_t(Xi, Xi.dev, "form") \
        + (-2j * math.pi * Xi.aref_dot)[:, :, None, None]
    one = Adot - d_scalar(curve, Xi.b)
    eta = _pair01(Xi.Psi, Xi.Phi)
    a = hodge_star(curve, one) - d_scalar(curve, Xi.V) \
        - 1j * _im_form01(curve, eta)
    phi = -1j * _grad_t_section(Xi, Xi.Phi, "section") \
        + Xi.dbar.adjoint(Xi.Psi) - Xi.V[:, None] * Xi.Phi
    c = ie2 * moment_map(curve, Xi.dev, Xi.Phi, Xi.tau_grid) \
        - d_t(Xi, Xi.V, "scalar") \
        + 0.5j * curve.form_weight * np.sum(np.abs(Xi.Psi) ** 2, axis=1)
    psi = 1j * _grad_t_section(Xi, Xi.Psi, "form01") \
        + ie2 * Xi.dbar.apply(Xi.Phi) - Xi.V[:, None] * Xi.Psi
    return Tangent3D(a=a, phi=phi, v=np.zeros_like(Xi.V), c=c, psi=psi)


# -- operator blocks at a reference Xi (x = (a, phi), v, y = (c, psi)) ------

def block_G(Xi: Config3D, v: np.ndarray):
    return -d_scalar(Xi.curve, v), v[:, None] * Xi.Phi


def block_Gstar(Xi: Config3D, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return -d_star(Xi.curve, a) - 1j * np.imag(_pair01(Xi.Phi, phi))


def block_S(Xi: Config3D, a: np.ndarray, phi: np.ndarray):
    c = star_d(Xi.curve, a) - 1j * np.real(_pair01(Xi.Phi, phi))
    psi = -_q_of(Xi, a)[:, None] * Xi.Phi - Xi.dbar.apply(phi)
    return c, psi


def block_Sstar(Xi: Config3D, c: np.ndarray, psi: np.ndarray):
    return _Sstar_of(Xi, c, psi, Xi.dbar.adjoint(psi))


def _Sstar_of(Xi: Config3D, c: np.ndarray, psi: np.ndarray,
              dbar_adj_psi: np.ndarray):
    """S* (c, psi), given dbar* psi."""
    eta = _pair01(psi, Xi.Phi)
    a = -hodge_star(Xi.curve, d_scalar(Xi.curve, c)) \
        - 1j * _im_form01(Xi.curve, eta)
    phi = 1j * c[:, None] * Xi.Phi - dbar_adj_psi
    return a, phi


def block_L(Xi: Config3D, v: np.ndarray):
    c = -d_t(Xi, v, "scalar")
    psi = v[:, None] * Xi.Psi
    return c, psi


def block_Lstar(Xi: Config3D, c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return d_t(Xi, c, "scalar") \
        - 1j * Xi.curve.form_weight * np.imag(_pair01(Xi.Psi, psi))


def block_M(Xi: Config3D, c: np.ndarray, psi: np.ndarray):
    return _M_of(Xi, c, psi, _grad_t_section(Xi, psi, "form01"))


def _M_of(Xi: Config3D, c: np.ndarray, psi: np.ndarray,
          grad_t_psi: np.ndarray):
    """M (c, psi), given grad_t psi."""
    oc = 1j * Xi.curve.form_weight * np.real(_pair01(Xi.Psi, psi))
    return oc, -1j * c[:, None] * Xi.Psi - 1j * grad_t_psi


def block_N(Xi: Config3D, a: np.ndarray, phi: np.ndarray):
    w = Xi.curve.form_weight
    eta = _pair01(Xi.Psi, phi)
    oa = hodge_star(Xi.curve, d_t(Xi, a, "form")) \
        - 1j * _im_form01(Xi.curve, eta)
    ophi = -w * np.conj(_q_of(Xi, a))[:, None] * Xi.Psi \
        + 1j * _grad_t_section(Xi, phi, "section")
    return oa, ophi


def _blocks(rows) -> np.ndarray:
    """A square array of broadcastable (Mt, ...) symbols as one contiguous
    (Mt, k, k, ...) stack: the block axes before the grid axes, so that a
    product with a (Mt, k, ...) field reads memory in order."""
    shape = np.broadcast_shapes(*(np.shape(e) for row in rows for e in row))
    return np.ascontiguousarray(np.moveaxis(np.array(
        [[np.broadcast_to(e, shape) for e in row] for row in rows], complex),
        2, 0))


def _inverse(A: np.ndarray) -> np.ndarray:
    """(A + PRECONDITIONER_DELTA)^-1 per block of a (Mt, k, k, ...) stack,
    and about the identity on the blocks below delta: the mean of the fields
    of zero twist."""
    A = np.moveaxis(A, (1, 2), (-2, -1))
    small = np.abs(A).max(axis=(-2, -1)) < PRECONDITIONER_DELTA
    shift = np.where(small, 1.0, PRECONDITIONER_DELTA)
    inv = np.linalg.inv(A + shift[..., None, None] * np.eye(A.shape[-1]))
    return np.ascontiguousarray(np.moveaxis(inv, (-2, -1), (1, 2)))


class _ModeSymbol:
    """The derivative part of D_eps in the (omega, k) modes of the R m-slice
    unfolding: a 4x4 symbol A4 on (p, q, v, c), a = p dz + q dzbar, and a
    2x2 symbol A2 on each (phi_j, psi_j).  ``apply`` multiplies by them,
    ``precondition`` (the Newton preconditioner) by their ``_inverse``.
    Only the curve, the slices and the seam with its twists are read.
    """

    def __init__(self, Xi: Config3D, eps: float):
        curve = Xi.curve
        self.Xi = Xi
        ie2, w = 1.0 / eps ** 2, curve.form_weight
        om = 2.0 * math.pi * Xi.m * np.fft.fftfreq(Xi.seam.order * Xi.m)
        om = om.reshape(-1, 1, 1)
        l0, zp = curve.lam((0.0, 0.0)), curve.dz_symbol()
        # rows: *d_t a - dv - *dc, ie2 *d*a + d_t c, ie2 *da - d_t v
        self.A4 = _blocks([
            [om, 0, -zp, 1j * zp],
            [0, -om, -l0, -1j * l0],
            [ie2 * w * l0, ie2 * w * zp, 0, 1j * om],
            [1j * ie2 * w * l0, -1j * ie2 * w * zp, -1j * om, 0]])
        # i d_t has the symbol -omega
        om = om[:, None]
        self.A2 = _blocks([[-om, -Xi.dbar.lam_adj],
                           [-ie2 * Xi.dbar.lam, om]])
        self.inv4, self.inv2 = _inverse(self.A4), _inverse(self.A2)

    def apply(self, xi: Tangent3D) -> Tangent3D:
        return self._map(xi, self.A4, self.A2)

    def precondition(self, xi: Tangent3D) -> Tangent3D:
        return self._map(xi, self.inv4, self.inv2)

    def _map(self, xi: Tangent3D, S4: np.ndarray,
             S2: np.ndarray) -> Tangent3D:
        Xi = self.Xi
        curve, m, tw = Xi.curve, Xi.m, Xi.seam.twists
        # unfold in t and transform all fields to mode space
        p, q = form_pq(curve, _extend(Xi, xi.a, "form"))
        vec4 = np.stack([p, q, _extend(Xi, xi.v, "scalar"),
                         _extend(Xi, xi.c, "scalar")], axis=1)
        vec2 = np.stack([_extend(Xi, xi.phi, "section"),
                         _extend(Xi, xi.psi, "form01")], axis=1)
        vec4 = np.fft.fft(curve.to_modes(vec4), axis=0)
        vec2 = np.fft.fft(curve.to_modes(vec2, tw), axis=0)
        vec4 = np.einsum("tabij,tbij->taij", S4, vec4)
        vec2 = np.einsum("tabkij,tbkij->takij", S2, vec2)
        p, q, v, c = np.moveaxis(
            curve.from_modes(np.fft.ifft(vec4, axis=0)[:m]), 1, 0)
        phi, psi = np.moveaxis(
            curve.from_modes(np.fft.ifft(vec2, axis=0)[:m], tw), 1, 0)
        return Tangent3D(a=form_xy(curve, p, q), phi=phi, v=v, c=c, psi=psi)


def linearize_apply(Xi: Config3D, xi: Tangent3D, eps: float,
                    symbol: Optional[_ModeSymbol] = None) -> Tangent3D:
    """The symmetric operator D_eps(Xi) xi in the swapped-row layout: the
    mode ``symbol`` at eps (built unless given) plus the pointwise coupling
    with Phi, Psi, q(dev) + cq, V and b.  Rows 2 and 5 carry +V phi and
    +V psi so that negating them recovers the derivative of the five-row
    map."""
    out = (symbol or _ModeSymbol(Xi, eps)).apply(xi)
    ie2, w = 1.0 / eps ** 2, Xi.curve.form_weight
    qa = _q_of(Xi, xi.a)[:, None]
    v, c, V, b = xi.v[:, None], xi.c[:, None], Xi.V[:, None], Xi.b[:, None]
    x_dot, y_dot = _pair01(Xi.Phi, xi.phi), _pair01(Xi.Psi, xi.psi)
    out.a -= 1j * _im_form01(Xi.curve, _pair01(Xi.Psi, xi.phi)
                             + _pair01(xi.psi, Xi.Phi))
    out.phi += -w * np.conj(qa) * Xi.Psi + (v + 1j * c) * Xi.Phi \
        + (1j * b + V) * xi.phi - Xi.dbar.q_adj * xi.psi
    out.v -= 1j * (ie2 * np.imag(x_dot) + w * np.imag(y_dot))
    out.c += 1j * (w * np.real(y_dot) - ie2 * np.real(x_dot))
    out.psi += -ie2 * (qa * Xi.Phi + Xi.dbar.q * xi.phi) \
        + (v - 1j * c) * Xi.Psi + (V - 1j * b) * xi.psi
    return out


def dsw_apply(Xi: Config3D, xi: Tangent3D, eps: float) -> Tangent3D:
    """Derivative of the five-row map: rows 2, 5 of D_eps negated, row 3 zero."""
    d = linearize_apply(Xi, xi, eps)
    return Tangent3D(a=d.a, phi=-d.phi, v=np.zeros_like(d.v), c=d.c,
                     psi=-d.psi)


def quadratic_term(Xi: Config3D, xi: Tangent3D, eps: float) -> Tangent3D:
    """The Xi-independent quadratic remainder of the five-row map."""
    ie2 = 1.0 / eps ** 2
    w = Xi.curve.form_weight
    qa = _q_of(Xi, xi.a)[:, None]
    v, c = xi.v[:, None], xi.c[:, None]
    return Tangent3D(
        a=-1j * _im_form01(Xi.curve, _pair01(xi.psi, xi.phi)),
        phi=w * np.conj(qa) * xi.psi - v * xi.phi - 1j * c * xi.phi,
        v=np.zeros_like(xi.v),
        c=-0.5j * ie2 * np.sum(np.abs(xi.phi) ** 2, axis=1)
        + 0.5j * w * np.sum(np.abs(xi.psi) ** 2, axis=1),
        psi=1j * c * xi.psi + ie2 * qa * xi.phi - v * xi.psi)


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
        p1, q1 = form_pq(curve, A)
        p2, q2 = form_pq(curve, B)
        return fw * np.real(p1 * np.conj(p2) + q1 * np.conj(q2))

    x = pair_form(u.a, w.a) + np.sum(np.real(u.phi * np.conj(w.phi)), axis=1)
    vv = np.real(u.v * np.conj(w.v))
    y = np.real(u.c * np.conj(w.c)) \
        + fw * np.sum(np.real(u.psi * np.conj(w.psi)), axis=1)
    total = np.mean(x) + eps ** 2 * (np.mean(vv) + np.mean(y))
    return float(area * total)


def _x_sq(Xi: Config3D, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|x|^2 = w(|p|^2 + |q|^2) + sum_j |phi_j|^2 pointwise, x = (a, phi)
    and a = p dz + q dzbar."""
    p, q = form_pq(Xi.curve, a)
    return Xi.curve.form_weight * (np.abs(p) ** 2 + np.abs(q) ** 2) \
        + np.sum(np.abs(phi) ** 2, axis=1)


def _y_sq(Xi: Config3D, c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|y|^2 = |c|^2 + w sum_j |psi_j|^2 pointwise, y = (c, psi)."""
    return np.abs(c) ** 2 \
        + Xi.curve.form_weight * np.sum(np.abs(psi) ** 2, axis=1)


def _lp(Xi: Config3D, sq: np.ndarray, p: float) -> float:
    dens = sq ** (p / 2.0)
    return Xi.curve.area * float(np.mean(dens))


@dataclass
class WeightedNormReport:
    value: float


def weighted_norm(Xi: Config3D, xi: Tangent3D, eps: float, p: float = 2,
                  level=0) -> WeightedNormReport:
    """The norms of the refinement scheme at reference Xi: the p-th root of
    a weighted sum of integrals of |x|^p, |v|^p and |y|^p terms.

    level 0: || |x| + e|v| + e|y| ||_p in the displayed integral sense;
    level 1 adds the operator blocks at Xi with their eps weights.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    ep, e2p = eps ** p, eps ** (2 * p)
    a, phi, v, c, psi = xi
    if level == 0:
        terms = [(1.0, _x_sq(Xi, a, phi)), (ep, np.abs(v) ** 2),
                 (ep, _y_sq(Xi, c, psi))]
    elif level == 1:
        terms = [(1.0, _x_sq(Xi, a, phi)),
                 (1.0, np.abs(block_Gstar(Xi, a, phi)) ** 2),
                 (1.0, _y_sq(Xi, *block_S(Xi, a, phi))),
                 (ep, _x_sq(Xi, *block_N(Xi, a, phi))),
                 (ep, _x_sq(Xi, *block_G(Xi, v))),
                 (e2p, _y_sq(Xi, *block_L(Xi, v))),
                 (ep, _x_sq(Xi, *block_Sstar(Xi, c, psi))),
                 (e2p, np.abs(block_Lstar(Xi, c, psi)) ** 2),
                 (e2p, _y_sq(Xi, *block_M(Xi, c, psi)))]
    else:
        raise ValueError("level must be 0 or 1")
    total = sum(wt * _lp(Xi, sq, p) for wt, sq in terms)
    return WeightedNormReport(total ** (1.0 / p))


def config_norm_diff(Xi1: Config3D, Xi0: Config3D, eps: float, p: float = 2,
                     level=1) -> WeightedNormReport:
    xi = Tangent3D(*(f1 - f0 for f1, f0 in zip(_moved(Xi1), _moved(Xi0))))
    return weighted_norm(Xi0, xi, eps, p, level)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def _pack(xi: Tangent3D) -> np.ndarray:
    return np.concatenate([f.ravel().view(float) for f in xi])


def _unpack(Xi: Config3D, vec: np.ndarray) -> Tangent3D:
    moved = _moved(Xi)
    parts = np.split(vec, np.cumsum([2 * f.size for f in moved])[:-1])
    return Tangent3D(*(part.view(complex).reshape(f.shape)
                       for part, f in zip(parts, moved)))


def forcing_term(res: float) -> float:
    """GMRES relative tolerance of a Newton step at residual ``res``.

    max(min(FORCING_MAX, res^2), FORCING_SAFEGUARD * NEWTON_TOL / res,
    GMRES_TOL); the safeguard keeps the last step's contraction quadratic.
    Newton solves only at res >= NEWTON_TOL, where this lies in
    [GMRES_TOL, FORCING_MAX].
    """
    return max(min(FORCING_MAX, res * res),
               FORCING_SAFEGUARD * NEWTON_TOL / res, GMRES_TOL)


def _gmres(mv, pc, b: np.ndarray, rtol: float):
    """Left-preconditioned GMRES (Saad & Schultz 1986) on the packed
    Newton space, with ``mv`` the operator and ``pc`` the preconditioner:
    (solution, info, residual).

    The algorithm of scipy 1.17's ``gmres`` from zero, restarted every 60
    products for at most GMRES_MAXITER cycles: modified Gram-Schmidt,
    real Givens rotations, an inner tolerance ``ptol`` on the
    preconditioned residual that each cycle's true residual retunes, and
    success when that true residual is at most rtol |b|.  ``info`` is 0 on
    success and the number of cycles run otherwise; ``residual`` is the
    final relative true residual.  Inner products, norms and the update
    go through ``np.einsum``, not BLAS, so the loop starts no OpenBLAS
    threads.  A zero b returns zeros without a product.
    """
    def norm(u):
        return math.sqrt(np.einsum("i,i->", u, u))

    x = np.zeros_like(b)
    bnorm = norm(b)
    if bnorm == 0.0:
        return x, 0, 0.0
    atol = rtol * bnorm
    restart = min(60, len(b))
    tiny = np.finfo(float).eps
    V = np.empty((restart + 1, len(b)))
    H = np.zeros((restart, restart + 1))  # row j: column j of the Hessenberg
    z = pc(b)
    ptol_factor = 1.0
    ptol = norm(z) * min(1.0, rtol)
    for cycle in range(1, GMRES_MAXITER + 1):
        g = np.zeros(restart + 1)
        g[0] = norm(z)
        V[0] = z * (1.0 / g[0])
        rot = []  # (cos, sin) of each column's Givens rotation
        breakdown = False
        for j in range(restart):
            w = pc(mv(V[j]))
            h0 = norm(w)
            for i in range(j + 1):
                H[j, i] = np.einsum("i,i->", V[i], w)
                w -= H[j, i] * V[i]
            h1 = norm(w)
            # an exactly invariant Krylov space: this column ends the cycle
            breakdown = h1 <= tiny * h0
            H[j, j + 1] = 0.0 if breakdown else h1
            V[j + 1] = w if breakdown else w * (1.0 / h1)
            for i, (c, s) in enumerate(rot):
                H[j, i], H[j, i + 1] = (c * H[j, i] + s * H[j, i + 1],
                                        c * H[j, i + 1] - s * H[j, i])
            # the rotation zeroing H[j, j + 1], signed as LAPACK's dlartg
            f, h = H[j, j], H[j, j + 1]
            d = math.copysign(math.hypot(f, h), f)
            c, s = (f / d, h / d) if d else (1.0, 0.0)
            rot.append((c, s))
            H[j, j], H[j, j + 1] = d, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            presid = abs(g[j + 1])
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangle, skipping a zero pivot
        y = g[:j + 1].copy()
        if H[j, j] == 0.0:
            y[j] = 0.0
        for k in range(j, -1, -1):
            if y[k] != 0.0:
                y[k] /= H[k, k]
                y[:k] -= y[k] * H[k, :k]
        x += np.einsum("k,kn->n", y, V[:j + 1])
        r = b - mv(x)
        rnorm = norm(r)
        if rnorm <= atol or breakdown:
            break
        ptol_factor = (max(tiny, 0.25 * ptol_factor) if presid <= ptol
                       else min(1.0, 1.5 * ptol_factor))
        ptol = presid * min(ptol_factor, atol / rnorm)
        z = pc(r)
    return x, (0 if rnorm <= atol else cycle), rnorm / bnorm


def newton_refine(Xi0: Config3D, eps: float) -> Tuple[Config3D, List[Dict]]:
    """Gauge-fixed inexact Newton iteration from the adiabatic configuration.

    Each step solves D_eps(Xi_k) xi = (-R1, +R2, 0, -R4, +R5) for the
    current five-row residual R, enforcing the Coulomb-type gauge row by
    construction, and updates Xi.  Stops below NEWTON_TOL in the (0,2,eps)
    norm; a residual that is not finite and two consecutive residual
    increases abort with Divergence before the next solve, and a residual
    still above it after NEWTON_MAX_ITER steps raises NonConvergence.  A
    field of Xi0 that a tangent moves and that is not finite is an input
    error: ValueError.

    The step is inexact: preconditioned GMRES solves to the relative
    tolerance eta_k = ``forcing_term(r_k)`` (Eisenstat-Walker) of the
    step's residual r_k, loose far from the solution and tight near it.
    Each log entry holds k, ``residual_0_2_eps``, ``increment_1_2_eps``,
    ``gmres_rtol`` (eta_k) and ``gmres_products`` (operator applications
    of the solve); a refinement that converges always ends its log with a
    closing entry, which solves nothing and has 0 for the last three.  A
    GMRES failure raises LinearSolveFailure with the iteration, ``info``
    (the cycles run), ``rtol``, the packed ``rhs_norm``, ``products`` and
    ``residual``, the solve's final relative true residual.
    """
    Xi = Xi0
    log: List[Dict] = []
    prev = math.inf
    increases = 0
    for name, f in zip(MOVED_FIELDS, _moved(Xi0)):
        if not np.all(np.isfinite(f)):
            raise ValueError(f"Xi0.{name} is not finite")
    symbol = _ModeSymbol(Xi0, check_eps(eps))
    for k in range(NEWTON_MAX_ITER + 1):
        R = sw_map(Xi, eps)
        res = weighted_norm(Xi, R, eps, 2, 0).value
        if not math.isfinite(res):
            raise Divergence("Newton residual is not finite", log=log,
                             residual=res)
        if res < NEWTON_TOL:
            log.append({"k": k, "residual_0_2_eps": res,
                        "increment_1_2_eps": 0.0, "gmres_rtol": 0.0,
                        "gmres_products": 0})
            return Xi, log
        if k == NEWTON_MAX_ITER:
            raise NonConvergence("Newton refinement did not reach tolerance",
                                 residual=res, log=log)
        if res >= prev:
            increases += 1
            if increases >= 2:
                raise Divergence(
                    "residual increased twice (wall proximity, eps too "
                    "large, or a round-off floor at very small eps)",
                    log=log, residual=res)
        else:
            increases = 0
        prev = res
        rhs = Tangent3D(a=-R.a, phi=R.phi, v=np.zeros_like(R.v), c=-R.c,
                        psi=R.psi)
        Xi_k = Xi
        b = _pack(rhs)
        rtol = forcing_term(res)
        products = 0

        def mv(vec):
            nonlocal products
            products += 1
            return _pack(linearize_apply(Xi_k, _unpack(Xi_k, vec), eps,
                                         symbol))

        def pc(vec):
            return _pack(symbol.precondition(_unpack(Xi_k, vec)))

        sol, info, residual = _gmres(mv, pc, b, rtol)
        if info != 0:
            raise LinearSolveFailure(
                "GMRES did not converge (operator near-singular: eps too "
                "large or wall proximity; or a round-off floor at very "
                "small eps)", info=int(info), iteration=k, rtol=rtol,
                rhs_norm=float(np.linalg.norm(b)), products=products,
                residual=float(residual))
        xi = _unpack(Xi, sol)
        inc = weighted_norm(Xi, xi, eps, 2, 1).value
        log.append({"k": k, "residual_0_2_eps": res,
                    "increment_1_2_eps": inc, "gmres_rtol": rtol,
                    "gmres_products": products})
        Xi = config_update(Xi, xi)


def refine_ladder(Xi0: Config3D, eps_list: Sequence[float]
                  ) -> Iterator[Tuple[Dict, Config3D]]:
    """For each eps in order, ``newton_refine(Xi0, eps)`` as (row, Xi_eps):
    the row holds ``eps``, the start residual ``residual_0_2_eps`` (the
    log's first entry), the (1, 2, eps) distance ``distance_1_2_eps`` from
    Xi0 and the log ``iterations``.  One refined configuration is alive at
    a time."""
    for eps in eps_list:
        Xi_eps, log = newton_refine(Xi0, eps)
        dist = config_norm_diff(Xi_eps, Xi0, eps, 2, 1).value
        yield ({"eps": eps, "residual_0_2_eps": log[0]["residual_0_2_eps"],
                "distance_1_2_eps": dist, "iterations": log}, Xi_eps)


# ---------------------------------------------------------------------------
# Appendix identities
# ---------------------------------------------------------------------------

def random_tangent(Xi: Config3D, rng: np.random.Generator) -> Tangent3D:
    """Band-limited smooth random tangent with the correct reality types."""
    m, N, n = Xi.m, Xi.N, Xi.curve.n
    R = Xi.seam.order
    Mt = R * m
    bt = max(2, (m // 4))
    # the grid map sends mode k to F^-r k, spreading the band by rho (the
    # largest row sum of |F^-r|); rho bs < n / 2 keeps the orbit off
    # Nyquist, and bs = 0, a grid too coarse for the spread, leaves the
    # spatially constant tangents
    rho = max(np.abs(np.linalg.matrix_power(Xi.seam._Finv, r)).sum(1).max()
              for r in range(1, 7))
    bs = n // (2 * rho + 2)

    def smooth(count):
        shape = (Mt, n, n, count)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kt = np.fft.fftfreq(Mt) * m
        ks = np.fft.fftfreq(n) * n
        # the t band stops short of the Nyquist mode |kt| = m / 2 (inside
        # bt for m <= 4): the spectral d_t of that mode is not the
        # derivative of a smooth field, and the identities compose d_t
        # with the other blocks
        damp_t = np.exp(-(kt / bt) ** 2) * (np.abs(kt) <= bt) \
            * (np.abs(kt) < m / 2)
        damp_s = np.exp(-(ks / max(bs, 1)) ** 2) * (np.abs(ks) <= bs)
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
            cur = Xi.seam.push(np.roll(cur, m, axis=0), kind)
            acc += cur
        return acc[:m] / R

    tw = Xi.curve.twist_phase(Xi.seam.twists)
    a = 1j * np.imag(equivariant("form", smooth(2)))
    v = 1j * np.imag(equivariant("scalar", smooth(1)[:, 0]))
    c = 1j * np.imag(equivariant("scalar", smooth(1)[:, 0]))
    phi = equivariant("section", smooth(N) * tw[None])
    psi = equivariant("form01", smooth(N) * tw[None])
    return Tangent3D(a=a, phi=phi, v=v, c=c, psi=psi)


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
    under constant J; identities 0 and 1 hold pointwise on any Xi.  A
    residual that is not finite raises Divergence.
    """
    if samples < 1:
        raise ValueError("identity_check needs at least one sample")
    rng = np.random.default_rng(seed)
    fixed = (_grad_t_section(Xi, Xi.Psi, "form01"),
             _grad_t_section(Xi, Xi.Phi, "section"), Xi.dbar.apply(Xi.Psi))
    out = np.zeros(3)
    for _ in range(samples):
        res = _identity_residuals(Xi, random_tangent(Xi, rng), *fixed)
        # np.maximum keeps a NaN residual, which the built-in max drops
        out = np.maximum(out, res)
    if not np.all(np.isfinite(out)):
        raise Divergence("identity residual is not finite",
                         residuals=out.tolist())
    return {f"identity{i}": float(r) for i, r in enumerate(out)}


def _identity_residuals(Xi: Config3D, xi: Tangent3D, gPsi: np.ndarray,
                        gPhi: np.ndarray,
                        dbar_Psi: np.ndarray) -> Tuple[float, float, float]:
    """The three identity residuals of ``identity_check`` at one tangent.

    Each block value is an (m, 2, n, n) or (m, N, n, n) stack; the sums
    are formed in place and the names reused, so that few stacks are alive
    at once.  grad_t psi and dbar* psi are formed once each.
    """
    curve = Xi.curve
    w = curve.form_weight
    # identity0
    grad_t_psi = _grad_t_section(Xi, xi.psi, "form01")
    M = _M_of(Xi, xi.c, xi.psi, grad_t_psi)
    id0 = float(np.max(np.abs(block_Lstar(Xi, *M)
                              - 1j * w * np.real(_pair01(gPsi, xi.psi)))))
    # identity1: N G v + S* L v = 0
    lhs_a, lhs_phi = block_N(Xi, *block_G(Xi, xi.v))
    a, phi = block_Sstar(Xi, *block_L(Xi, xi.v))
    lhs_a += a
    lhs_phi += phi
    id1 = max(float(np.max(np.abs(lhs_a))), float(np.max(np.abs(lhs_phi))))
    # identity2: N S* y + G L* y + S* M y = R_Xi y; the [grad_t, dbar*] psi
    # term of R_Xi y is formed with S* y, from grad_t psi and dbar* psi
    dbar_adj_psi = Xi.dbar.adjoint(xi.psi)
    a, phi = _Sstar_of(Xi, xi.c, xi.psi, dbar_adj_psi)
    commutator = _grad_t_section(Xi, dbar_adj_psi, "section")
    del dbar_adj_psi
    commutator -= Xi.dbar.adjoint(grad_t_psi)
    del grad_t_psi
    lhs_a, lhs_phi = block_N(Xi, a, phi)
    a, phi = block_G(Xi, block_Lstar(Xi, xi.c, xi.psi))
    lhs_a += a
    lhs_phi += phi
    a, phi = block_Sstar(Xi, *M)
    lhs_a += a
    lhs_phi += phi
    # remainder
    wfun = w * np.sum(xi.psi * np.conj(Xi.Psi), axis=1)
    dzw = curve.spectral(wfun, curve.dz_symbol()) \
        + w * np.sum(xi.psi * np.conj(dbar_Psi), axis=1)
    r_a = -1j * np.stack([np.imag(dzw), np.imag(dzw * curve.modulus)],
                         axis=1)
    eta1 = _pair01(Xi.Psi, xi.psi)[:, None]
    eta2 = np.conj(_pair01(xi.psi, Xi.Phi))[:, None]
    r_phi = (-2.0 * gPhi + 1j * Xi.V[:, None] * Xi.Phi) * xi.c[:, None] \
        - w * eta1 * Xi.Phi + 0.5 * w * eta2 * Xi.Psi
    r_phi += -1j * commutator
    id2 = max(float(np.max(np.abs(lhs_a - r_a))),
              float(np.max(np.abs(lhs_phi - r_phi))))
    return id0, id1, id2


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
        "twists": Xi.seam.twists.tolist(),
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
        "fstar": Xi.seam.C.T.tolist(),  # C = F^T holds integers
        "seam_gauge": Xi.seam.gauge.tolist(),
        "files": written,
    }
    with open(prefix + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return written
