"""Mapping-torus topology: spin^c classification and closed-form counts.

A mapping class is an integer symplectic matrix f* on H^1 of a genus-g
surface.  Spin^c structures on the mapping torus are labeled by a fiber
degree d together with a coset in coker(1 - f*); the monodromy of the
Jacobian torus bundle has fixed set Fix(M) = (1-f*)^{-1} H^1(Z) / H^1(Z)
mapping bijectively onto coker(1 - f*) via 1 - f*.  For d above the
critical range every class receives the signed count
sign(det(1-f*)) * N * (d + 1 - g), with sign(0) = 0.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .errors import DegreeTooSmall, InfiniteFamily, NonIsolatedFixedSet, NotSymplectic
from .zlattice import FinAbGroup, IntMatrix, TorusPoint, cokernel


# ---------------------------------------------------------------------------
# Mapping classes
# ---------------------------------------------------------------------------

def _standard_symplectic(g: int) -> IntMatrix:
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class MappingClass:
    genus: int
    fstar: IntMatrix

    @property
    def one_minus_fstar(self) -> IntMatrix:
        return IntMatrix.identity(2 * self.genus) - self.fstar

    @cached_property
    def classes(self) -> FinAbGroup:
        """coker(1 - f*), built once: its cosets label the torsion classes."""
        return cokernel(self.one_minus_fstar)


def validate_mapping_class(g: int, matrix: IntMatrix) -> MappingClass:
    """Check the symplectic condition f*^T J0 f* = J0 (det = 1 for g = 1)."""
    if g < 1:
        raise NotSymplectic("genus must be at least 1", genus=g)
    n = 2 * g
    if (matrix.rows, matrix.cols) != (n, n):
        raise NotSymplectic("matrix must be 2g x 2g",
                            genus=g, rows=matrix.rows, cols=matrix.cols)
    j0 = _standard_symplectic(g)
    if (matrix.transpose() @ j0 @ matrix).entries != j0.entries:
        raise NotSymplectic("matrix does not preserve the symplectic form",
                            matrix=matrix.to_lists())
    return MappingClass(genus=g, fstar=matrix)


# ---------------------------------------------------------------------------
# Spin^c classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class SpinCClass:
    """Fiber degree plus canonical coset representative in coker(1 - f*)."""

    degree: int
    torsion_class: Tuple[int, ...]


def spinc_classes(mc: MappingClass, d: int) -> List[SpinCClass]:
    """All degree-d spin^c classes, one per coset of coker(1 - f*)."""
    grp = mc.classes
    if not grp.is_finite:
        raise InfiniteFamily(
            "coker(1 - f*) has positive free rank; classes form an infinite family",
            free_rank=grp.free_rank, torsion_factors=list(grp.torsion_factors))
    return [SpinCClass(degree=d, torsion_class=w) for w in grp.elements()]


def jacobian_fixed_points(mc: MappingClass) -> List[Tuple[TorusPoint, Tuple[int, ...]]]:
    """Fixed points of the Jacobian monodromy with their coset labels.

    Each fixed point x satisfies (1-f*) x integral; its label is the
    canonical coset of the integer vector (1-f*) x, and x -> label is a
    bijection onto coker(1 - f*).
    """
    grp = mc.classes
    if not grp.is_finite:
        raise NonIsolatedFixedSet("det(1 - f*) = 0: fixed set not isolated",
                                  fstar=mc.fstar.to_lists())
    A = mc.one_minus_fstar
    out = []
    for x in grp.torsion_points():
        w = A.apply(x.coordinates)
        assert all(c.denominator == 1 for c in w)
        out.append((x, grp.normalize([int(c) for c in w])))
    labels = [lab for _, lab in out]
    assert len(set(labels)) == len(labels), "fixed-point labels must be distinct"
    return out


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------

def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class CountTable:
    rows: Tuple[Tuple[SpinCClass, int], ...]
    N: int
    d: int
    g: int
    det_one_minus_fstar: int
    assumptions: Tuple[str, ...] = ()

    def total(self) -> int:
        return sum(c for _, c in self.rows)

    def to_json(self) -> str:
        return json.dumps({
            "metadata": {
                "N": self.N, "d": self.d, "g": self.g,
                "det_one_minus_fstar": self.det_one_minus_fstar,
                "assumptions": list(self.assumptions),
            },
            "rows": [
                {"degree": s.degree,
                 "torsion_class": list(s.torsion_class),
                 "count": c}
                for s, c in self.rows
            ],
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["degree", "torsion_class", "count"])
        for s, c in self.rows:
            w.writerow([s.degree, " ".join(str(x) for x in s.torsion_class), c])
        return buf.getvalue()


def count_large_d(mc: MappingClass, N: int, d: int) -> CountTable:
    """Signed count per degree-d spin^c class in the large-degree chamber.

    Every class receives sign(det(1-f*)) * N * (d + 1 - g); when
    det(1-f*) = 0 the table is all zeros over a single unresolved class
    label (the classes then form an infinite family).
    """
    g = mc.genus
    if g < 1 or N < 1:
        raise ValueError("need g >= 1 and N >= 1")
    if d <= 2 * g - 2:
        raise DegreeTooSmall(f"need d > 2g-2 = {2*g-2}", d=d, g=g)
    det = mc.one_minus_fstar.det()
    count = _sign(det) * N * (d + 1 - g)
    classes = (spinc_classes(mc, d) if det else
               [SpinCClass(degree=d, torsion_class=(0,) * (2 * g))])
    return CountTable(rows=tuple((s, count) for s in classes), N=N, d=d, g=g,
                      det_one_minus_fstar=det,
                      assumptions=("bundle family semistable (not verified)",
                                   "generic parameters (not verified)"))


def moduli_dimension(N: int, d: int, g: int) -> int:
    """Expected dimension N d - (N-1)(g-1) of the vortex moduli space."""
    if N < 1 or g < 1:
        raise ValueError("need N >= 1 and g >= 1")
    return N * d - (N - 1) * (g - 1)


def dimension_zero_point_count(N: int, g: int) -> int:
    """Number of points (N^g) when the expected dimension is zero."""
    return N ** g


# ---------------------------------------------------------------------------
# Genus-1 split moduli structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuliComponent:
    holonomy: TorusPoint
    multiplicity: int

    @property
    def framed_label(self) -> str:
        return f"P^{self.multiplicity - 1}"

    @property
    def unframed_label(self) -> str:
        return f"T*P^{self.multiplicity - 1}"


@dataclass(frozen=True)
class ModuliReport:
    components: Tuple[ModuliComponent, ...]
    compact: bool
    point_count: int | None

    def to_json(self) -> str:
        return json.dumps({
            "compact": self.compact,
            "point_count": self.point_count,
            "components": [
                {"holonomy": [str(c) for c in comp.holonomy.coordinates],
                 "multiplicity": comp.multiplicity,
                 "framed": comp.framed_label,
                 "unframed": comp.unframed_label}
                for comp in self.components
            ],
        }, indent=2, sort_keys=True)


def genus1_moduli_structure(holonomy_multiset: Sequence[TorusPoint]) -> ModuliReport:
    """Component report for the degree-0 genus-1 split moduli space.

    Each distinct holonomy with multiplicity n contributes a framed
    component P^{n-1} (unframed T*P^{n-1}).  The space is compact iff all
    holonomies are distinct, in which case it consists of N isolated
    points.
    """
    groups: Dict[Tuple, int] = {}
    order: List[TorusPoint] = []
    for h in holonomy_multiset:
        key = h.coordinates
        if key not in groups:
            order.append(h)
        groups[key] = groups.get(key, 0) + 1
    comps = tuple(ModuliComponent(holonomy=h, multiplicity=groups[h.coordinates])
                  for h in order)
    compact = all(c.multiplicity == 1 for c in comps)
    return ModuliReport(components=comps, compact=compact,
                        point_count=len(comps) if compact else None)
