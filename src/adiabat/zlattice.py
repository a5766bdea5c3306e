"""Exact integer linear algebra.

Smith normal form over Z with unimodular transforms, cokernel presentations
of square integer matrices, and enumeration of the torsion points x of a
torus with A x integral.  Everything is arbitrary-precision (Python ints and
fractions); no floats appear anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import NonIsolatedFixedSet


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

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
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(int(x) for row in rows for x in row))

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

    def apply_int(self, v: Sequence[int]) -> Tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def apply_frac(self, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((Fraction(self.row(i)[k]) * v[k] for k in range(self.cols)),
                         Fraction(0)) for i in range(self.rows))

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

    def inverse_frac(self) -> list:
        """Exact inverse as a list of Fraction rows; raises on singular."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        a = [[Fraction(self[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
             for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv = Fraction(1) / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = D with U, V unimodular and D diagonal with divisibility chain."""

    U: IntMatrix
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
    nonzero absolute value, lowest row then column on ties.
    """
    r, c = A.rows, A.cols
    m = [list(A.row(i)) for i in range(r)]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in m:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

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

    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    D = IntMatrix.from_rows(m)
    factors = tuple(m[i][i] for i in range(n))
    return SmithDecomposition(U=U, V=V, D=D, invariant_factors=factors)


# ---------------------------------------------------------------------------
# Cokernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinAbGroup:
    """Presentation of Z^n / im(A) from a Smith decomposition of A.

    ``torsion_factors`` are the invariant factors > 1; ``free_rank`` counts
    zero invariant factors.  ``normalize`` maps an integer vector to the
    canonical representative of its coset.
    """

    torsion_factors: Tuple[int, ...]
    free_rank: int
    snf: SmithDecomposition
    ambient: int

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        out = 1
        for f in self.torsion_factors:
            out *= f
        return out

    def digits(self, w: Sequence[int]) -> Tuple[int, ...]:
        """Coordinates of the coset of w: (U w)_i reduced mod d_i."""
        if len(w) != self.ambient:
            raise ValueError("vector length mismatch")
        uw = self.snf.U.apply_int(list(w))
        out = []
        for i, x in enumerate(uw):
            d = self.snf.invariant_factors[i] if i < len(self.snf.invariant_factors) else 0
            out.append(x % d if d > 0 else x)
        return tuple(out)

    def normalize(self, w: Sequence[int]) -> Tuple[int, ...]:
        """Canonical integer representative of the coset of w.

        Idempotent: normalize(normalize(w)) == normalize(w).
        """
        dig = self.digits(w)
        uinv = self.snf.U.inverse_frac()
        out = []
        for i in range(self.ambient):
            s = sum(uinv[i][j] * dig[j] for j in range(self.ambient))
            if s.denominator != 1:
                raise ArithmeticError("U inverse not integral")  # pragma: no cover
            out.append(int(s))
        return tuple(out)

    def same_coset(self, w1: Sequence[int], w2: Sequence[int]) -> bool:
        return self.digits(w1) == self.digits(w2)

    def elements(self) -> list:
        """All cosets as canonical representatives (finite groups only)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        reps = [()]
        for i in range(self.ambient):
            d = self.snf.invariant_factors[i] if i < len(self.snf.invariant_factors) else 1
            d = d if d > 0 else 1
            reps = [r + (k,) for r in reps for k in range(d)]
        uinv = self.snf.U.inverse_frac()
        out = []
        for dig in reps:
            vec = []
            for i in range(self.ambient):
                s = sum(uinv[i][j] * dig[j] for j in range(self.ambient))
                vec.append(int(s))
            out.append(tuple(vec))
        return sorted(out, key=lambda v: self.digits(v))


def cokernel(A: IntMatrix) -> FinAbGroup:
    """Cokernel Z^n / im(A) of a square integer matrix."""
    if A.rows != A.cols:
        raise ValueError("cokernel expects a square matrix")
    snf = smith_normal_form(A)
    factors = tuple(f for f in snf.invariant_factors if f > 1)
    free = sum(1 for f in snf.invariant_factors if f == 0)
    return FinAbGroup(torsion_factors=factors, free_rank=free, snf=snf, ambient=A.rows)


# ---------------------------------------------------------------------------
# Torsion fixed points
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


def torsion_fixed_points(A: IntMatrix) -> list:
    """All x in [0,1)^n with A x integral, via the Smith decomposition.

    Writes x = V y; A x is integral iff D y is, so y_i ranges over
    multiples of 1/d_i.  Returns exactly |det A| points sorted
    lexicographically; raises NonIsolatedFixedSet when det A = 0.
    """
    if A.rows != A.cols:
        raise ValueError("torsion_fixed_points expects a square matrix")
    d = A.det()
    if d == 0:
        raise NonIsolatedFixedSet(
            "fixed set is positive-dimensional (det = 0)", det=0)
    snf = smith_normal_form(A)
    n = A.rows
    points = set()
    stacks = [[Fraction(j, snf.invariant_factors[i]) for j in range(snf.invariant_factors[i])]
              for i in range(n)]
    def rec(i, y):
        if i == n:
            x = snf.V.apply_frac(y)
            points.add(TorusPoint(tuple(c % 1 for c in x)))
            return
        for val in stacks[i]:
            rec(i + 1, y + [val])

    rec(0, [])
    out = sorted(points, key=lambda p: p.coordinates)
    assert len(out) == abs(d)
    return out
