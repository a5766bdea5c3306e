"""Spin^c classification, fixed-point bijection, and closed-form counts."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabat.errors import (DegreeTooSmall, InfiniteFamily,
                            NonIsolatedFixedSet, NotSymplectic)
from adiabat.zlattice import IntMatrix, TorusPoint, cokernel
from adiabat.topology import (CountTable, count_large_d,
                              dimension_zero_point_count,
                              genus1_moduli_structure,
                              jacobian_fixed_points, moduli_dimension,
                              spinc_classes, validate_mapping_class)


def random_sl2z(rng, bound=5, steps=8):
    """Random SL(2,Z) element as a word in the elementary generators."""
    while True:
        A = IntMatrix.identity(2)
        for _ in range(steps):
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:
                E = IntMatrix.from_rows([[1, k], [0, 1]])
            else:
                E = IntMatrix.from_rows([[1, 0], [k, 1]])
            A = A @ E
        if all(abs(x) <= bound for x in A.entries):
            return A


class TestValidation:
    def test_accepts_sl2z(self):
        mc = validate_mapping_class(1, IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert mc.genus == 1

    def test_rejects_det_minus_one(self):
        with pytest.raises(NotSymplectic):
            validate_mapping_class(1, IntMatrix.from_rows([[0, 1], [1, 0]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(NotSymplectic):
            validate_mapping_class(2, IntMatrix.identity(2))

    def test_genus2_symplectic(self):
        J = IntMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1],
                                 [-1, 0, 0, 0], [0, -1, 0, 0]])
        # J itself is symplectic
        validate_mapping_class(2, J)


class TestSpinc:
    def test_identity_raises_infinite_family(self):
        mc = validate_mapping_class(1, IntMatrix.identity(2))
        with pytest.raises(InfiniteFamily):
            spinc_classes(mc, 1)

    def test_class_count_is_det(self):
        rng = random.Random(2)
        for _ in range(30):
            A = random_sl2z(rng)
            mc = validate_mapping_class(1, A)
            det = mc.one_minus_fstar.det()
            if det == 0:
                continue
            classes = spinc_classes(mc, 3)
            assert len(classes) == abs(det)
            assert len({c.torsion_class for c in classes}) == len(classes)


class TestFixedPointBijection:
    def test_minus_identity(self):
        mc = validate_mapping_class(1, IntMatrix.identity(2).scale(-1))
        pts = jacobian_fixed_points(mc)
        assert len(pts) == 4  # half-integer points of the 2-torus
        labels = {lab for _, lab in pts}
        assert len(labels) == 4

    def test_identity_rejected(self):
        mc = validate_mapping_class(1, IntMatrix.identity(2))
        with pytest.raises(NonIsolatedFixedSet):
            jacobian_fixed_points(mc)

    def test_bijection_random(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            mc = validate_mapping_class(1, random_sl2z(rng))
            det = mc.one_minus_fstar.det()
            if det == 0:
                continue
            pts = jacobian_fixed_points(mc)
            grp = cokernel(mc.one_minus_fstar)
            assert len(pts) == abs(det) == grp.order
            labels = {lab for _, lab in pts}
            assert labels == {grp.normalize(list(w)) for w in grp.elements()}
            done += 1


class TestClassLabels:
    """The printed torsion labels depend on the U of the Smith decomposition,
    not only on the group; these pin them so that a change to the pivot
    rule or the clearing loops cannot relabel classes unnoticed."""

    VECTORS = ([1, 0], [0, 1], [3, -2], [-5, 7])

    @pytest.mark.parametrize("rows, elements, normalized", [
        ([[-1, 0], [0, -1]], [(0, 0), (0, 1), (1, 0), (1, 1)],
         [(1, 0), (0, 1), (1, 0), (1, 1)]),
        ([[0, -1], [1, 0]], [(0, 0), (0, 1)],
         [(0, 1), (0, 1), (0, 1), (0, 0)]),
        ([[0, -1], [1, 1]], [(0, 0)], [(0, 0)] * 4),
        ([[1, -1], [1, 0]], [(0, 0)], [(0, 0)] * 4),
        ([[2, 1], [1, 1]], [(0, 0)], [(0, 0)] * 4),
    ])
    def test_genus1_labels(self, rows, elements, normalized):
        grp = validate_mapping_class(1, IntMatrix.from_rows(rows)).classes
        assert grp.elements() == elements
        assert [grp.normalize(v) for v in self.VECTORS] == normalized

    def test_genus2_labels(self):
        mc = validate_mapping_class(2, IntMatrix.from_rows(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, -1, 0], [0, -1, 0, 0]]))
        grp = mc.classes
        assert grp.elements() == [(0, 0, -k, -k) for k in range(6)]
        assert [grp.normalize(v) for v in
                ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                 [2, -3, 5, 7])] == [(0, 0, -4, -4), (0, 0, -3, -3),
                                     (0, 0, -2, -2), (0, 0, -3, -3),
                                     (0, 0, 0, 0)]
        assert [s.torsion_class for s in spinc_classes(mc, 3)] \
            == grp.elements()


class TestCountTable:
    def expected(self, det, N, d, g):
        sign = (det > 0) - (det < 0)
        return sign * N * (d + 1 - g)

    def test_formula_grid(self):
        mats = [IntMatrix.from_rows(r) for r in
                [[[2, 1], [1, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]],
                 [[1, 1], [0, 1]], [[1, 0], [0, 1]], [[2, 3], [1, 2]],
                 [[0, 1], [-1, -1]], [[3, 2], [4, 3]], [[1, -1], [1, 0]],
                 [[-2, -1], [-1, -1]]]]
        cases = 0
        for A in mats:
            mc = validate_mapping_class(1, A)
            det = mc.one_minus_fstar.det()
            for N in range(1, 5):
                for d in range(1, 6):
                    table = count_large_d(mc, N, d)
                    want = self.expected(det, N, d, 1)
                    for _, c in table.rows:
                        assert c == want
                    if det != 0:
                        assert len(table.rows) == abs(det)
                        assert table.total() == want * abs(det)
                    cases += 1
        assert cases >= 50

    def test_sign_zero_convention(self):
        mc = validate_mapping_class(1, IntMatrix.identity(2))
        table = count_large_d(mc, 3, 4)
        assert all(c == 0 for _, c in table.rows)
        assert table.det_one_minus_fstar == 0

    def test_degree_too_small(self):
        mc = validate_mapping_class(1, IntMatrix.from_rows([[2, 1], [1, 1]]))
        with pytest.raises(DegreeTooSmall):
            count_large_d(mc, 1, 0)

    def test_serialization_roundtrip(self):
        mc = validate_mapping_class(1, IntMatrix.from_rows([[2, 1], [1, 1]]))
        table = count_large_d(mc, 2, 3)
        data = json.loads(table.to_json())
        assert data["metadata"]["N"] == 2
        assert all(row["count"] == -2 * 3 for row in data["rows"])
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "degree,torsion_class,count"

    @given(st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_counts_invariant_under_conjugation(self, N, d):
        """The table depends on f* only through coker(1 - f*)."""
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        P = IntMatrix.from_rows([[1, 1], [0, 1]])
        Pinv = IntMatrix.from_rows([[1, -1], [0, 1]])
        B = P @ A @ Pinv
        mc_a = validate_mapping_class(1, A)
        mc_b = validate_mapping_class(1, B)
        ta = count_large_d(mc_a, N, d)
        tb = count_large_d(mc_b, N, d)
        assert sorted(c for _, c in ta.rows) == sorted(c for _, c in tb.rows)


class TestModuli:
    def test_dimension_formula(self):
        assert moduli_dimension(3, 2, 1) == 6
        assert moduli_dimension(2, 0, 1) == 0
        assert moduli_dimension(2, 1, 2) == 1

    def test_point_count(self):
        assert dimension_zero_point_count(3, 1) == 3
        assert dimension_zero_point_count(2, 2) == 4

    def test_split_structure(self):
        pts = [TorusPoint.of(0, 0), TorusPoint.of("1/2", 0),
               TorusPoint.of(0, "1/2")]
        rep = genus1_moduli_structure(pts)
        assert rep.compact and rep.point_count == 3
        assert all(c.framed_label == "P^0" for c in rep.components)

    def test_wall_collision(self):
        pts = [TorusPoint.of(0, 0), TorusPoint.of(0, 0)]
        rep = genus1_moduli_structure(pts)
        assert not rep.compact
        assert rep.components[0].multiplicity == 2
        assert rep.components[0].unframed_label == "T*P^1"
