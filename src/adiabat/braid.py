"""Torus braids: the genus-1, degree-0 chamber engine.

A braid is N piecewise-linear strand lifts in R^2 with twisted endpoint
matching gamma_{sigma(k)}(0) = f* gamma_k(1) mod Z^2.  Strands must avoid
the big diagonal (pairwise-distinct projections to the torus at all times);
wall membership is decided exactly over the rationals.  Fixed strands of
the closing permutation carry a torsion class in coker(1 - f*), computed
from the integer vector gamma(0) - f* gamma(1); a constant strand at a
fixed point x gets the class of (1 - f*) x, matching the labels of
``topology.jacobian_fixed_points``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (DiagonalCollision, EndpointMismatch, NonIsolatedFixedSet,
                     TargetsExceedRank, UnrealizableClass,
                     UnsupportedGenus)
from .topology import MappingClass, jacobian_fixed_points, validate_mapping_class
from .zlattice import IntMatrix, int_tuple

Breakpoint = Tuple[Fraction, Fraction, Fraction]  # (t, x, y)
Strand = Tuple[Breakpoint, ...]


def _is_integral(v: Sequence[Fraction]) -> bool:
    return all(c.denominator == 1 for c in v)


def _breakpoint(bp) -> Breakpoint:
    """A [t, x, y] breakpoint, each an integer or a string such as "1/3"."""
    if not isinstance(bp, list) or len(bp) != 3:
        raise ValueError(f"a breakpoint is a list [t, x, y], got {bp!r}")
    try:
        return tuple(map(Fraction, bp))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad breakpoint {bp!r}: {exc}") from None


@dataclass(frozen=True)
class TorusBraid:
    N: int
    strands: Tuple[Strand, ...]
    closing_permutation: Tuple[int, ...]
    mc: MappingClass

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"a braid needs N >= 1 strands, got {self.N!r}")
        if self.N != len(self.strands):
            raise ValueError("strand count mismatch")
        if sorted(self.closing_permutation) != list(range(self.N)):
            raise ValueError("closing_permutation is not a permutation")
        for s in self.strands:
            if len(s) < 2:
                raise ValueError("each strand needs at least two breakpoints")
            ts = [bp[0] for bp in s]
            if ts[0] != 0 or ts[-1] != 1 or any(a >= b for a, b in zip(ts, ts[1:])):
                raise ValueError("strand times must strictly increase from 0 to 1")

    # -- evaluation --------------------------------------------------------

    def eval(self, k: int, t: Fraction) -> Tuple[Fraction, Fraction]:
        """Exact lift value of strand k at rational time t."""
        s = self.strands[k]
        t = Fraction(t)
        for (t0, x0, y0), (t1, x1, y1) in zip(s, s[1:]):
            if t0 <= t <= t1:
                lam = (t - t0) / (t1 - t0)
                return (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))
        raise ValueError("time out of range")

    def start(self, k: int) -> Tuple[Fraction, Fraction]:
        return (self.strands[k][0][1], self.strands[k][0][2])

    def end(self, k: int) -> Tuple[Fraction, Fraction]:
        return (self.strands[k][-1][1], self.strands[k][-1][2])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "N": self.N,
            "fstar": self.mc.fstar.to_lists(),
            "closing_permutation": list(self.closing_permutation),
            "strands": [[[str(t), str(x), str(y)] for (t, x, y) in s]
                        for s in self.strands],
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "TorusBraid":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a braid file holds one JSON object")
        mc = validate_mapping_class(1, IntMatrix.from_rows(data["fstar"]))
        strands = data["strands"]
        if not isinstance(strands, list) or not all(
                isinstance(s, list) for s in strands):
            raise ValueError('"strands" must be a list of breakpoint lists')
        return TorusBraid(
            N=data["N"],
            strands=tuple(tuple(map(_breakpoint, s)) for s in strands),
            closing_permutation=int_tuple(data["closing_permutation"],
                                          "closing_permutation"),
            mc=mc)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _segment_hits_lattice(P, Q) -> Fraction | None:
    """Smallest s in [0,1] with P + s Q in Z^2, or None.

    Exact rational arithmetic; P, Q are pairs of Fractions.
    """
    if Q[0] == 0 and Q[1] == 0:
        return Fraction(0) if _is_integral(P) else None
    # scan the integer crossings of a coordinate j that moves
    j = 0 if Q[0] != 0 else 1
    lo, hi = sorted((P[j], P[j] + Q[j]))
    m = -(-lo.numerator // lo.denominator)  # ceil(lo)
    hits: List[Fraction] = []
    while m <= hi:
        s = (Fraction(m) - P[j]) / Q[j]
        if 0 <= s <= 1 and (P[1 - j] + s * Q[1 - j]).denominator == 1:
            hits.append(s)
        m += 1
    return min(hits) if hits else None


def braid_validate(b: TorusBraid) -> TorusBraid:
    """Verify twisted endpoint matching and strand separation, exactly.

    Endpoint matching: gamma_{sigma(k)}(0) = f* gamma_k(1) mod Z^2.
    Separation: no pair of strands may project to the same torus point at
    any parameter value; each PL segment pair is checked for lattice
    crossings of the difference path.
    """
    f = b.mc.fstar
    for k in range(b.N):
        tail = f.apply(b.end(k))
        head = b.start(b.closing_permutation[k])
        diff = tuple(h - t for h, t in zip(head, tail))
        if not _is_integral(diff):
            raise EndpointMismatch(
                f"strand {k}: sigma(k) start does not match f* end mod Z^2",
                strand=k, difference=[str(d) for d in diff])
    for i in range(b.N):
        for j in range(i + 1, b.N):
            times = sorted({bp[0] for bp in b.strands[i]} |
                           {bp[0] for bp in b.strands[j]})
            for t0, t1 in zip(times, times[1:]):
                pi0 = b.eval(i, t0)
                pj0 = b.eval(j, t0)
                pi1 = b.eval(i, t1)
                pj1 = b.eval(j, t1)
                P = (pi0[0] - pj0[0], pi0[1] - pj0[1])
                Q = (pi1[0] - pj1[0] - P[0], pi1[1] - pj1[1] - P[1])
                s = _segment_hits_lattice(P, Q)
                if s is not None:
                    tc = t0 + s * (t1 - t0)
                    raise DiagonalCollision(
                        f"strands {i} and {j} collide on the torus at t = {tc}",
                        strand_pair=[i, j], time=str(tc))
    return b


def braid_permutation(b: TorusBraid) -> Tuple[int, ...]:
    """Covering monodromy of the braid: its closing permutation."""
    return braid_validate(b).closing_permutation


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidCensus:
    permutation: Tuple[int, ...]
    fixed_strands: Tuple[Tuple[int, Tuple[int, ...]], ...]
    per_class_counts: Dict[Tuple[int, ...], int]

    def to_json(self) -> str:
        return json.dumps({
            "permutation": list(self.permutation),
            "fixed_strands": [{"strand": k, "class": list(c)}
                              for k, c in self.fixed_strands],
            "per_class_counts": [{"class": list(c), "count": n}
                                 for c, n in sorted(self.per_class_counts.items())],
        }, indent=2)


def strand_class(b: TorusBraid, k: int) -> Tuple[int, ...]:
    """Torsion class of a fixed strand: coset of gamma(0) - f* gamma(1).

    The vector is integral precisely because the strand is fixed by the
    closing permutation; translating the lift by any integer vector u
    changes it by (1 - f*) u, so the coset is well defined.
    """
    if b.closing_permutation[k] != k:
        raise ValueError(f"strand {k} is not fixed by the closing permutation")
    head = b.start(k)
    tail = b.mc.fstar.apply(b.end(k))
    diff = [h - t for h, t in zip(head, tail)]
    assert _is_integral(diff)
    return b.mc.classes.normalize([int(d) for d in diff])


def braid_census(b: TorusBraid) -> BraidCensus:
    """Fixed strands of the closing permutation with their torsion classes."""
    b = braid_validate(b)
    rho = b.closing_permutation
    fixed = []
    counts: Dict[Tuple[int, ...], int] = {}
    for k in range(b.N):
        if rho[k] == k:
            c = strand_class(b, k)
            fixed.append((k, c))
            counts[c] = counts.get(c, 0) + 1
    return BraidCensus(permutation=rho, fixed_strands=tuple(fixed),
                       per_class_counts=counts)


# ---------------------------------------------------------------------------
# Constructor
# ---------------------------------------------------------------------------

def _offset_sequence(seed: int):
    """Deterministic stream of small generic rational offsets."""
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]
    i = seed
    while True:
        p = primes[i % len(primes)]
        q = primes[(i + 3) % len(primes)]
        yield (Fraction(1, p + 2 * (i // len(primes))),
               Fraction(1, q + 3 * (i // len(primes))))
        i += 1


def braid_construct(mc: MappingClass, targets: Dict[Tuple[int, ...], int],
                    N: int) -> TorusBraid:
    """Build a valid braid whose census meets the target fixed counts.

    One closed strand is routed through a Jacobian fixed point realizing
    each requested class (repeat requests get translated copies through
    the same fixed point); the remaining strands are padded into a single
    cycle under the closing permutation so they contribute no unrequested
    fixed points when at least two are needed.  A single padding strand is
    allowed but may add one extra fixed point; the census is authoritative.
    """
    if mc.genus != 1:
        raise UnsupportedGenus("braids are built on genus-1 mapping tori "
                               "only", genus=mc.genus)
    grp = mc.classes
    if not grp.is_finite:
        raise NonIsolatedFixedSet(
            "det(1 - f*) = 0: classes are not realized by closed strands",
            fstar=mc.fstar.to_lists())
    total = sum(targets.values())
    if total > N:
        raise TargetsExceedRank(f"targets sum to {total} > N = {N}",
                                total=total, N=N)
    norm_targets: Dict[Tuple[int, ...], int] = {}
    for c, cnt in targets.items():
        if cnt < 0:
            raise UnrealizableClass("negative target count", target=list(c))
        if len(c) != 2 * mc.genus:
            raise UnrealizableClass("class vector has wrong length",
                                    target=list(c))
        cc = grp.normalize(c)
        norm_targets[cc] = norm_targets.get(cc, 0) + cnt

    class_to_point = {lab: pt for pt, lab in jacobian_fixed_points(mc)}
    f = mc.fstar

    for attempt in range(64):
        offsets = _offset_sequence(attempt * 131 + 1)
        strands: List[Strand] = []
        perm: List[int] = []
        for c, cnt in sorted(norm_targets.items()):
            x = class_to_point[c].coordinates
            for r in range(cnt):
                if r == 0 and all(
                        tuple(s[0][1:]) != tuple(x) for s in strands):
                    strands.append(((Fraction(0), x[0], x[1]),
                                    (Fraction(1), x[0], x[1])))
                else:
                    # Translated copy through the same fixed point; a generic
                    # midpoint detour keeps the difference path with the
                    # constant strand (and other copies) off the lattice.
                    d = next(offsets)
                    m = next(offsets)
                    fd = f.apply(d)
                    strands.append((
                        (Fraction(0), x[0] + fd[0], x[1] + fd[1]),
                        (Fraction(1, 2), x[0] + d[0] + m[0], x[1] + d[1] + m[1]),
                        (Fraction(1), x[0] + d[0], x[1] + d[1])))
                perm.append(len(strands) - 1)
        p = N - total
        if p > 0:
            base = [next(offsets) for _ in range(p)]
            anchors = [(Fraction(1, 3) + Fraction(i, 2 * p + 1) + dx,
                        Fraction(2, 3) + Fraction(i, 3 * p + 2) + dy)
                       for i, (dx, dy) in enumerate(base)]
            first = len(strands)
            for i in range(p):
                v_prev = anchors[(i - 1) % p]
                fv = f.apply(v_prev)
                # generic midpoint detour: a straight chord from f(v) to v
                # can pass through a lattice translate of another strand
                # (for f = -identity it always crosses the origin)
                mx, my = next(offsets)
                strands.append((
                    (Fraction(0), fv[0], fv[1]),
                    (Fraction(1, 2),
                     (fv[0] + anchors[i][0]) / 2 + mx,
                     (fv[1] + anchors[i][1]) / 2 + my),
                    (Fraction(1), anchors[i][0], anchors[i][1])))
            for i in range(p):
                perm.append(first + (i + 1) % p)
        b = TorusBraid(N=N, strands=tuple(strands),
                       closing_permutation=tuple(perm), mc=mc)
        try:
            return braid_validate(b)
        except DiagonalCollision:
            continue
    raise DiagonalCollision(
        "could not route strands without collisions", attempts=64)


# ---------------------------------------------------------------------------
# Composition utilities (used by property tests)
# ---------------------------------------------------------------------------

def braid_reverse(b: TorusBraid) -> TorusBraid:
    """Time-reversal; requires f* = identity so the closing stays valid."""
    if b.mc.fstar.entries != IntMatrix.identity(2 * b.mc.genus).entries:
        raise ValueError("reversal implemented for f* = identity only")
    inv = [0] * b.N
    for k, v in enumerate(b.closing_permutation):
        inv[v] = k
    # reversed strand continuing strand k occupies slot sigma(k), so that
    # concatenation with the reversal aligns endpoints slot by slot
    strands = [None] * b.N
    for k in range(b.N):
        src = b.strands[k]
        rev = tuple((1 - t, x, y) for (t, x, y) in reversed(src))
        strands[b.closing_permutation[k]] = rev
    return TorusBraid(N=b.N, strands=tuple(strands),
                      closing_permutation=tuple(inv), mc=b.mc)


def braid_concat(b1: TorusBraid, b2: TorusBraid) -> TorusBraid:
    """Concatenation (b1 then b2) for f* = identity braids whose endpoints
    match on the nose after applying b1's closing permutation."""
    if b1.mc.fstar.entries != b2.mc.fstar.entries:
        raise ValueError("mapping classes differ")
    if b1.mc.fstar.entries != IntMatrix.identity(2 * b1.mc.genus).entries:
        raise ValueError("concatenation implemented for f* = identity only")
    strands = []
    perm = []
    for k in range(b1.N):
        mid = b1.closing_permutation[k]
        shift = tuple(a - c for a, c in zip(b1.end(k), b2.start(mid)))
        if not _is_integral(shift):
            raise EndpointMismatch("strand endpoints do not align mod Z^2",
                                   strand=k)
        first = tuple((t / 2, x, y) for (t, x, y) in b1.strands[k])
        second = tuple((Fraction(1, 2) + t / 2, x + shift[0], y + shift[1])
                       for (t, x, y) in b2.strands[mid])
        strands.append(first + second[1:])
        perm.append(b2.closing_permutation[mid])
    return TorusBraid(N=b1.N, strands=tuple(strands),
                      closing_permutation=tuple(perm), mc=b1.mc)
