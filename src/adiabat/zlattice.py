"""Exact integer linear algebra.

Smith normal form over Z with unimodular transforms, cokernel presentations
of square integer matrices, and enumeration of the torsion points x of a
torus with A x integral.  Everything is arbitrary-precision (Python ints and
fractions); no floats appear anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import NonIsolatedFixedSet


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

def int_tuple(v, what: str) -> Tuple[int, ...]:
    """The list of integers v as a tuple; a float, bool or string entry, or
    a v that is not a list, raises ValueError naming ``what``."""
    if not isinstance(v, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in v):
        raise ValueError(f"{what} must be a list of integers, got {v!r}")
    return tuple(v)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: Tuple[int, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not isinstance(rows, (list, tuple)) or not rows:
            raise ValueError("matrix rows must be a non-empty list, "
                             f"got {rows!r}")
        rows = [int_tuple(row, "a matrix row") for row in rows]
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), c, tuple(x for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(r: int, c: int) -> "IntMatrix":
        return IntMatrix(r, c, (0,) * (r * c))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * e for e in self.entries))

    def apply(self, v: Sequence) -> tuple:
        """Exact product A v for a vector of ints or Fractions."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(self.row(i), v))
                     for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = [list(self.row(i)) for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = D with U, V unimodular and D diagonal with divisibility chain;
    Uinv is the inverse of U."""

    U: IntMatrix
    Uinv: IntMatrix
    V: IntMatrix
    D: IntMatrix
    invariant_factors: Tuple[int, ...]


def _find_pivot(m, rows, cols, start) -> Tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing block; ties break to the
    lowest row index, then lowest column index."""
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            e = m[i][j]
            if e != 0:
                a = abs(e)
                if best is None or a < best[0]:
                    best = (a, i, j)
    if best is None:
        return None
    return best[1], best[2]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Exact Smith normal form with tracked unimodular transforms.

    Deterministic for fixed input: pivoting always selects the smallest
    nonzero absolute value, lowest row then column on ties.  U^{-1} is
    built alongside U from the inverse of each row operation, applied as
    the matching column operation on the right.
    """
    r, c = A.rows, A.cols
    m = [list(A.row(i)) for i in range(r)]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    uinv = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, j, q):  # row_i -= q * row_j; on U^{-1}, col_j += q * col_i
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        for row in uinv:
            row[j] += q * row[i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i != j:
            for row in m:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]
        for row in uinv:
            row[i] = -row[i]

    k = 0
    n = min(r, c)
    while k < n:
        piv = _find_pivot(m, r, c, k)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        # clear row/column k by repeated reduction
        while True:
            cleared = True
            for i in range(k + 1, r):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    row_op(i, k, q)
                    if m[i][k] != 0:
                        swap_rows(i, k)
                        cleared = False
            for j in range(k + 1, c):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    col_op(j, k, q)
                    if m[k][j] != 0:
                        swap_cols(j, k)
                        cleared = False
            if cleared:
                break
        if m[k][k] < 0:
            negate_row(k)
        k += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold b into position (i, i) via the standard gcd trick
                col_op(i, i + 1, -1)          # col_i += col_{i+1}
                while True:
                    piv = _find_pivot(m, r, c, i)
                    swap_rows(i, piv[0])
                    swap_cols(i, piv[1])
                    done = True
                    for ii in range(i + 1, r):
                        if m[ii][i] != 0:
                            row_op(ii, i, m[ii][i] // m[i][i])
                            if m[ii][i] != 0:
                                swap_rows(ii, i)
                            done = False
                    for jj in range(i + 1, c):
                        if m[i][jj] != 0:
                            col_op(jj, i, m[i][jj] // m[i][i])
                            if m[i][jj] != 0:
                                swap_cols(jj, i)
                            done = False
                    if done:
                        break
                if m[i][i] < 0:
                    negate_row(i)
                changed = True

    for i in range(n):
        if m[i][i] < 0:
            negate_row(i)

    return SmithDecomposition(
        U=IntMatrix.from_rows(u), Uinv=IntMatrix.from_rows(uinv),
        V=IntMatrix.from_rows(v), D=IntMatrix.from_rows(m),
        invariant_factors=tuple(m[i][i] for i in range(n)))


# ---------------------------------------------------------------------------
# Cokernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinAbGroup:
    """Presentation of Z^n / im(A) from a Smith decomposition of a square A.

    The coset of w has digits (U w)_i mod d_i; ``normalize`` maps w to the
    canonical representative U^{-1} digits(w) of its coset.
    """

    snf: SmithDecomposition

    @property
    def torsion_factors(self) -> Tuple[int, ...]:
        """The invariant factors > 1."""
        return tuple(f for f in self.snf.invariant_factors if f > 1)

    @property
    def free_rank(self) -> int:
        """The number of zero invariant factors."""
        return self.snf.invariant_factors.count(0)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        return math.prod(self.torsion_factors)

    def digits(self, w: Sequence[int]) -> Tuple[int, ...]:
        """Coordinates of the coset of w: (U w)_i reduced mod d_i."""
        return tuple(x % d if d else x for x, d in
                     zip(self.snf.U.apply(w), self.snf.invariant_factors))

    def normalize(self, w: Sequence[int]) -> Tuple[int, ...]:
        """Canonical integer representative of the coset of w.

        Idempotent: normalize(normalize(w)) == normalize(w).
        """
        return self.snf.Uinv.apply(self.digits(w))

    def same_coset(self, w1: Sequence[int], w2: Sequence[int]) -> bool:
        return self.digits(w1) == self.digits(w2)

    def elements(self) -> list:
        """All cosets as canonical representatives, in digit order (finite
        groups only)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return [self.snf.Uinv.apply(dig) for dig in
                itertools.product(*map(range, self.snf.invariant_factors))]

    def torsion_points(self) -> list:
        """All x in [0,1)^n with A x integral, sorted lexicographically.

        Writes x = V y; A x is integral iff D y is, so y_i ranges over
        multiples of 1/d_i: exactly |det A| points.  Raises
        NonIsolatedFixedSet when det A = 0 (the group is infinite).
        """
        if not self.is_finite:
            raise NonIsolatedFixedSet(
                "fixed set is positive-dimensional (det = 0)", det=0)
        factors = self.snf.invariant_factors
        points = {TorusPoint(self.snf.V.apply([Fraction(j, d)
                                               for j, d in zip(y, factors)]))
                  for y in itertools.product(*map(range, factors))}
        assert len(points) == self.order
        return sorted(points)


def cokernel(A: IntMatrix) -> FinAbGroup:
    """Cokernel Z^n / im(A) of a square integer matrix."""
    if A.rows != A.cols:
        raise ValueError("cokernel expects a square matrix")
    return FinAbGroup(smith_normal_form(A))


# ---------------------------------------------------------------------------
# Torus points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TorusPoint:
    """Point of (R/Z)^n with exact rational coordinates in [0,1)."""

    coordinates: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coordinates",
            tuple(Fraction(c) % 1 for c in self.coordinates))

    @staticmethod
    def of(*coords) -> "TorusPoint":
        return TorusPoint(tuple(Fraction(c) for c in coords))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coordinates) + ")"
