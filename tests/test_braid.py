"""Torus braids: validation, permutation, census, and the constructor."""

import json
import random
from fractions import Fraction

import pytest

from adiabat.braid import (TorusBraid, braid_census, braid_concat,
                           braid_construct, braid_permutation, braid_reverse,
                           braid_validate, strand_class)
from adiabat.errors import (DiagonalCollision, EndpointMismatch,
                            TargetsExceedRank, UnrealizableClass)
from adiabat.topology import validate_mapping_class
from adiabat.zlattice import IntMatrix, cokernel

F = Fraction

MINUS_ID = IntMatrix.from_rows([[-1, 0], [0, -1]])
ID2 = IntMatrix.identity(2)


def mk(mc, strands, perm):
    strands = tuple(tuple((F(t), F(x), F(y)) for t, x, y in s) for s in strands)
    return braid_validate(TorusBraid(len(strands), strands, tuple(perm), mc))


def even_winding_braid():
    """Two strands tracing a loop and its inverse, both closed."""
    mc = validate_mapping_class(1, MINUS_ID)
    s0 = [(0, F(1, 4), 0), (F(1, 2), F(1, 2), F(1, 4)), (1, F(3, 4), 0)]
    s1 = [(0, F(3, 4), 0), (F(1, 2), F(1, 2), F(-1, 4)), (1, F(1, 4), 0)]
    return mk(mc, [s0, s1], (0, 1))


def odd_winding_braid():
    """Two strands exchanged by the closing permutation."""
    mc = validate_mapping_class(1, MINUS_ID)
    s0 = [(0, F(1, 8), 0), (1, F(3, 8), 0)]
    s1 = [(0, F(5, 8), 0), (1, F(7, 8), 0)]
    return mk(mc, [s0, s1], (1, 0))


class TestValidation:
    def test_constant_strands_valid(self):
        mc = validate_mapping_class(1, ID2)
        b = mk(mc, [[(0, 0, 0), (1, 0, 0)],
                    [(0, F(1, 2), 0), (1, F(1, 2), 0)]], (0, 1))
        assert braid_permutation(b) == (0, 1)

    def test_coincident_strands_collide(self):
        mc = validate_mapping_class(1, ID2)
        with pytest.raises(DiagonalCollision):
            mk(mc, [[(0, 0, 0), (1, 0, 0)],
                    [(0, 0, 0), (1, 0, 0)]], (0, 1))

    def test_interior_crossing_detected(self):
        mc = validate_mapping_class(1, ID2)
        # strand 0 winds once and sweeps past the constant strand at t = 1/2
        with pytest.raises(DiagonalCollision):
            mk(mc, [[(0, 0, 0), (1, 1, 0)],
                    [(0, F(1, 2), 0), (1, F(1, 2), 0)]], (0, 1))

    def test_vertical_crossing_detected(self):
        """The strands differ only in y, so the scan runs over y; the
        difference (0, -1/4) - s (0, 1) meets the lattice at t = 3/4."""
        mc = validate_mapping_class(1, ID2)
        with pytest.raises(DiagonalCollision) as info:
            mk(mc, [[(0, F(1, 4), F(1, 4)), (1, F(1, 4), F(1, 4))],
                    [(0, F(1, 4), F(1, 2)), (1, F(1, 4), F(3, 2))]], (0, 1))
        assert (info.value.code, info.value.exit_code) == \
            ("diagonal_collision", 1)
        assert info.value.detail["time"] == "3/4"

    def test_swap_braid_valid(self):
        mc = validate_mapping_class(1, ID2)
        b = mk(mc, [[(0, 0, 0), (1, F(1, 2), 0)],
                    [(0, F(1, 2), 0), (1, 1, 0)]], (1, 0))
        assert braid_permutation(b) == (1, 0)

    def test_endpoint_mismatch(self):
        mc = validate_mapping_class(1, ID2)
        with pytest.raises(EndpointMismatch):
            mk(mc, [[(0, 0, 0), (1, F(1, 3), 0)],
                    [(0, F(1, 2), 0), (1, F(1, 2), 0)]], (0, 1))


class TestWindingExample:
    def test_even_winding_two_fixed_strands(self):
        b = even_winding_braid()
        census = braid_census(b)
        assert census.permutation == (0, 1)
        assert len(census.fixed_strands) == 2
        grp = cokernel(b.mc.one_minus_fstar)
        c0, c1 = (c for _, c in census.fixed_strands)
        total = [a + bb for a, bb in zip(c0, c1)]
        assert grp.normalize(total) == grp.normalize([0, 0])
        # the two classes are inverse to each other
        assert grp.normalize(list(c0)) == grp.normalize([-x for x in c1])

    def test_odd_winding_transposition_no_fixed_strands(self):
        b = odd_winding_braid()
        census = braid_census(b)
        assert census.permutation == (1, 0)
        assert census.fixed_strands == ()
        assert census.per_class_counts == {}


class TestStrandClass:
    def test_matches_constant_strand_at_fixed_point(self):
        mc = validate_mapping_class(1, MINUS_ID)
        b = mk(mc, [[(0, F(1, 2), 0), (1, F(1, 2), 0)]], (0,))
        grp = cokernel(mc.one_minus_fstar)
        # (1 - f*) x = 2x = (1, 0)
        assert strand_class(b, 0) == grp.normalize([1, 0])

    def test_translation_by_image_vector_preserves_class(self):
        b = even_winding_braid()
        base = strand_class(b, 0)
        # translate strand 0 by (2, 0), which lies in im(1 - f*) = 2 Z^2
        s0 = tuple((t, x + 2, y) for t, x, y in b.strands[0])
        b2 = braid_validate(TorusBraid(2, (s0, b.strands[1]),
                                       b.closing_permutation, b.mc))
        assert strand_class(b2, 0) == base

    def test_unfixed_strand_rejected(self):
        b = odd_winding_braid()
        with pytest.raises(ValueError):
            strand_class(b, 0)


class TestReverseConcat:
    def test_concat_with_reverse_is_identity(self):
        mc = validate_mapping_class(1, ID2)
        b = mk(mc, [[(0, 0, 0), (1, F(1, 2), 0)],
                    [(0, F(1, 2), 0), (1, 1, 0)]], (1, 0))
        loop = braid_concat(b, braid_reverse(b))
        assert braid_permutation(loop) == (0, 1)

    def test_refinement_preserves_permutation(self):
        b = odd_winding_braid()
        refined = []
        for s in b.strands:
            (t0, x0, y0), (t1, x1, y1) = s
            mid = (F(1, 2), (x0 + x1) / 2, (y0 + y1) / 2)
            refined.append((s[0], mid, s[1]))
        b2 = braid_validate(TorusBraid(2, tuple(refined),
                                       b.closing_permutation, b.mc))
        assert braid_permutation(b2) == braid_permutation(b)


class TestConstruct:
    def test_census_meets_targets(self):
        mc = validate_mapping_class(1, MINUS_ID)
        grp = cokernel(mc.one_minus_fstar)
        rng = random.Random(31)
        elems = [grp.normalize(list(w)) for w in grp.elements()]
        for _ in range(25):
            N = rng.randint(1, 6)
            targets = {}
            budget = rng.randint(0, N)
            for _ in range(budget):
                c = rng.choice(elems)
                targets[c] = targets.get(c, 0) + 1
            b = braid_construct(mc, targets, N)
            census = braid_census(braid_validate(b))
            for c, want in targets.items():
                assert census.per_class_counts.get(c, 0) >= want

    def test_targets_exceed_rank(self):
        mc = validate_mapping_class(1, MINUS_ID)
        grp = cokernel(mc.one_minus_fstar)
        z = grp.normalize([0, 0])
        with pytest.raises(TargetsExceedRank):
            braid_construct(mc, {z: 3}, 2)

    def test_unrealizable_class(self):
        mc = validate_mapping_class(1, MINUS_ID)
        with pytest.raises(UnrealizableClass):
            braid_construct(mc, {(7, 7, 7): 1}, 3)

    def test_empty_targets_padding_cycle(self):
        mc = validate_mapping_class(1, MINUS_ID)
        b = braid_construct(mc, {}, 2)
        census = braid_census(braid_validate(b))
        assert census.fixed_strands == ()


class TestSerialization:
    def test_json_roundtrip(self):
        b = even_winding_braid()
        b2 = braid_validate(TorusBraid.from_json(b.to_json()))
        assert b2.strands == b.strands
        assert b2.closing_permutation == b.closing_permutation
        data = json.loads(b.to_json())
        assert data["N"] == 2
