"""Exact integer layer: Smith normal form, cokernels, torsion fixed points."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adiabat.zlattice import (FinAbGroup, IntMatrix, cokernel,
                              smith_normal_form)


def random_int_matrix(rng, n, bound=5):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def brute_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * brute_det(minor)
    return total


class TestIntMatrix:
    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            A = random_int_matrix(rng, n)
            assert A.det() == brute_det(A.to_lists())

    def test_matmul_identity(self):
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert (A @ IntMatrix.identity(2)).entries == A.entries


class TestSmithNormalForm:
    def check(self, A):
        snf = smith_normal_form(A)
        n = A.rows
        # U A V = D, U and V unimodular, Uinv the exact inverse of U
        assert abs(snf.U.det()) == 1
        assert abs(snf.V.det()) == 1
        assert (snf.U @ snf.Uinv).entries == IntMatrix.identity(n).entries
        D = snf.U @ A @ snf.V
        assert D.entries == snf.D.entries
        diag = [snf.D[i, i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert snf.D[i, j] == 0
        for i in range(n - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert all(d >= 0 for d in diag)
        return diag

    def test_random_matrices(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(1, 4)
            A = random_int_matrix(rng, n)
            diag = self.check(A)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(A.det())

    def test_zero_and_identity(self):
        assert self.check(IntMatrix.zero(3, 3)) == [0, 0, 0]
        assert self.check(IntMatrix.identity(3)) == [1, 1, 1]

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_snf_property(self, rows):
        self.check(IntMatrix.from_rows(rows))


class TestCokernel:
    def test_group_order_equals_det(self):
        rng = random.Random(7)
        for _ in range(80):
            A = random_int_matrix(rng, 2)
            grp = cokernel(A)
            if A.det() == 0:
                assert not grp.is_finite
            else:
                assert grp.is_finite
                assert grp.order == abs(A.det())
                assert len(grp.elements()) == grp.order

    def test_normalize_is_idempotent_coset_map(self):
        A = IntMatrix.from_rows([[2, 0], [0, 4]])
        grp = cokernel(A)
        assert grp.order == 8
        labels = {grp.normalize(w) for w in
                  [[x, y] for x in range(-4, 5) for y in range(-4, 5)]}
        assert len(labels) == 8
        for w in [[1, 1], [3, -2], [0, 5]]:
            lab = grp.normalize(w)
            assert grp.normalize(list(lab)) == lab
            assert grp.same_coset(w, list(lab))

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=120, deadline=None)
    def test_elements_in_digit_order_and_fixed(self, rows):
        A = IntMatrix.from_rows(rows)
        assume(A.det() != 0)
        grp = cokernel(A)
        elems = grp.elements()
        digits = [grp.digits(e) for e in elems]
        assert len(elems) == grp.order
        assert digits == sorted(set(digits))
        assert [grp.normalize(e) for e in elems] == elems

    def test_image_vectors_are_trivial(self):
        rng = random.Random(13)
        for _ in range(40):
            A = random_int_matrix(rng, 3, bound=3)
            grp = cokernel(A)
            v = [rng.randint(-3, 3) for _ in range(3)]
            img = A.apply(v)
            assert grp.normalize(list(img)) == grp.normalize([0, 0, 0])


class TestTorsionFixedPoints:
    def brute_fixed_points(self, A, denom_bound=30):
        """Exhaustive search for x in Q^2/Z^2 with A x integral."""
        out = set()
        d = abs(A.det())
        for p in range(d):
            for q in range(d):
                x = (Fraction(p, d), Fraction(q, d))
                w = A.apply(x)
                if all(c.denominator == 1 for c in w):
                    out.add(x)
        return out

    def test_count_equals_det(self):
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            A = random_int_matrix(rng, 2, bound=4)
            if A.det() == 0:
                continue
            pts = cokernel(A).torsion_points()
            assert len(pts) == abs(A.det())
            coords = {tuple(x.coordinates) for x in pts}
            assert len(coords) == len(pts)
            assert coords == self.brute_fixed_points(A)
            checked += 1

    def test_singular_rejected(self):
        with pytest.raises(Exception):
            cokernel(IntMatrix.zero(2, 2)).torsion_points()
