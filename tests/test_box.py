"""Unit and property tests for the integer box algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box

# --------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------- #


class TestConstruction:
    def test_basic(self):
        b = Box((0, 0), (4, 8))
        assert b.ndim == 2
        assert b.shape == (4, 8)
        assert b.ncells == 32
        assert not b.is_empty

    def test_empty_box_is_legal(self):
        b = Box((3, 3), (3, 5))
        assert b.is_empty
        assert b.ncells == 0

    def test_inverted_raises(self):
        with pytest.raises(ValueError):
            Box((2, 0), (1, 4))

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, 1, 1))

    def test_zero_dims_raises(self):
        with pytest.raises(ValueError):
            Box((), ())

    def test_coordinates_coerced_to_int(self):
        b = Box((np.int64(1), np.int64(2)), (np.int64(3), np.int64(4)))
        assert all(isinstance(x, int) for x in b.lo + b.hi)

    def test_cube_constructor(self):
        b = Box.cube(0, 8, 3)
        assert b.shape == (8, 8, 8)

    def test_hashable_and_ordered(self):
        a, b = Box((0,), (2,)), Box((1,), (3,))
        assert a < b
        assert len({a, b, Box((0,), (2,))}) == 2

    def test_center(self):
        assert Box((0, 0), (4, 2)).center() == (2.0, 1.0)


# --------------------------------------------------------------------- #
# set operations
# --------------------------------------------------------------------- #


class TestSetOps:
    def test_intersection_overlapping(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (6, 6))
        assert a.intersection(b) == Box((2, 2), (4, 4))

    def test_intersection_disjoint_is_empty(self):
        a = Box((0, 0), (2, 2))
        b = Box((4, 4), (6, 6))
        assert a.intersection(b).is_empty

    def test_intersects(self):
        a = Box((0, 0), (4, 4))
        assert a.intersects(Box((3, 3), (5, 5)))
        assert not a.intersects(Box((4, 0), (6, 4)))  # touching faces

    def test_contains(self):
        outer = Box((0, 0), (8, 8))
        assert outer.contains(Box((2, 2), (4, 4)))
        assert not outer.contains(Box((6, 6), (10, 10)))
        assert outer.contains(Box((3, 3), (3, 3)))  # empty contained anywhere

    def test_contains_point(self):
        b = Box((0, 0), (4, 4))
        assert b.contains_point((0, 0))
        assert b.contains_point((3, 3))
        assert not b.contains_point((4, 0))

    def test_difference_no_overlap(self):
        a = Box((0,), (4,))
        assert a.difference(Box((10,), (12,))) == (a,)

    def test_difference_full_cover(self):
        a = Box((1,), (3,))
        assert a.difference(Box((0,), (4,))) == ()

    def test_difference_partition_is_exact(self):
        a = Box((0, 0, 0), (6, 6, 6))
        b = Box((2, 2, 2), (4, 4, 4))
        pieces = a.difference(b)
        # pieces plus the intersection partition a
        assert sum(p.ncells for p in pieces) + a.intersection(b).ncells == a.ncells
        for i, p in enumerate(pieces):
            assert not p.intersects(b)
            for q in pieces[i + 1 :]:
                assert not p.intersects(q)


# --------------------------------------------------------------------- #
# refine / coarsen / grow / split
# --------------------------------------------------------------------- #


class TestRefineCoarsen:
    def test_refine(self):
        assert Box((1, 2), (3, 4)).refine(2) == Box((2, 4), (6, 8))

    def test_coarsen_rounds_outward(self):
        assert Box((1,), (5,)).coarsen(2) == Box((0,), (3,))

    def test_refine_coarsen_roundtrip(self):
        b = Box((3, 5), (7, 9))
        assert b.refine(4).coarsen(4) == b

    def test_bad_ratio_raises(self):
        with pytest.raises(ValueError):
            Box((0,), (2,)).refine(0)
        with pytest.raises(ValueError):
            Box((0,), (2,)).coarsen(-2)

    def test_grow(self):
        assert Box((2, 2), (4, 4)).grow(1) == Box((1, 1), (5, 5))

    def test_grow_negative_shrinks(self):
        assert Box((0, 0), (4, 4)).grow(-1) == Box((1, 1), (3, 3))

    def test_grow_past_empty_raises(self):
        with pytest.raises(ValueError):
            Box((0, 0), (2, 2)).grow(-2)

    def test_split(self):
        lo, hi = Box((0, 0), (4, 4)).split(0, 1)
        assert lo == Box((0, 0), (1, 4))
        assert hi == Box((1, 0), (4, 4))

    def test_split_invalid_plane_raises(self):
        with pytest.raises(ValueError):
            Box((0,), (4,)).split(0, 0)
        with pytest.raises(ValueError):
            Box((0,), (4,)).split(0, 4)

    def test_split_bad_axis_raises(self):
        with pytest.raises(ValueError):
            Box((0,), (4,)).split(1, 2)

    def test_longest_axis(self):
        assert Box((0, 0, 0), (2, 8, 4)).longest_axis() == 1


# --------------------------------------------------------------------- #
# faces / adjacency
# --------------------------------------------------------------------- #


class TestFaces:
    def test_surface_cells_full_for_thin_box(self):
        b = Box((0, 0), (1, 5))
        assert b.surface_cells() == 5

    def test_surface_cells_3d(self):
        b = Box.cube(0, 4, 3)
        assert b.surface_cells() == 64 - 8  # 4^3 minus 2^3 interior

    def test_shared_face_area_adjacent(self):
        a = Box((0, 0), (4, 4))
        b = Box((4, 0), (8, 4))
        # 4 cells received by each side across the shared face
        assert a.shared_face_area(b) == 8
        assert b.shared_face_area(a) == 8  # symmetric

    def test_shared_face_area_corner_touch(self):
        a = Box((0, 0), (2, 2))
        b = Box((2, 2), (4, 4))
        assert a.shared_face_area(b) == 2  # one diagonal ghost cell each way

    def test_shared_face_area_far_apart(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 5), (7, 7))
        assert a.shared_face_area(b) == 0

    def test_wider_ghost_reaches_farther(self):
        a = Box((0, 0), (2, 2))
        b = Box((3, 0), (5, 2))
        assert a.shared_face_area(b, ghost=1) == 0
        assert a.shared_face_area(b, ghost=2) == 4


# --------------------------------------------------------------------- #
# iteration
# --------------------------------------------------------------------- #


class TestIteration:
    def test_slices_roundtrip(self):
        arr = np.zeros((8, 8))
        b = Box((2, 3), (5, 6))
        arr[b.slices()] = 1
        assert arr.sum() == b.ncells

    def test_slices_with_origin(self):
        arr = np.zeros((4, 4))
        b = Box((10, 10), (12, 12))
        arr[b.slices(origin=(9, 9))] = 1
        assert arr[1:3, 1:3].sum() == 4

    def test_cell_coordinates(self):
        b = Box((1, 1), (3, 2))
        coords = {tuple(c) for c in b.cell_coordinates()}
        assert coords == {(1, 1), (2, 1)}

    def test_iter_matches_cell_coordinates(self):
        b = Box((0, 0), (2, 2))
        assert set(b) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_empty_cell_coordinates(self):
        b = Box((1, 1), (1, 3))
        assert b.cell_coordinates().shape == (0, 2)


# --------------------------------------------------------------------- #
# property-based
# --------------------------------------------------------------------- #

coords = st.integers(min_value=-32, max_value=32)
extents = st.integers(min_value=0, max_value=16)


@st.composite
def boxes(draw, ndim=3):
    lo = [draw(coords) for _ in range(ndim)]
    hi = [l + draw(extents) for l in lo]
    return Box(tuple(lo), tuple(hi))


class TestProperties:
    @given(boxes(), boxes())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(boxes(), boxes())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if not inter.is_empty:
            assert a.contains(inter) and b.contains(inter)

    @given(boxes())
    def test_intersection_self_identity(self, a):
        if not a.is_empty:
            assert a.intersection(a) == a

    @given(boxes(), boxes())
    def test_intersects_iff_nonempty_intersection(self, a, b):
        assert a.intersects(b) == (not a.intersection(b).is_empty)

    @given(boxes(), st.integers(min_value=1, max_value=4))
    def test_coarsen_covers(self, a, r):
        """No cell may be lost when coarsening then refining back."""
        assert a.coarsen(r).refine(r).contains(a)

    @given(boxes(), st.integers(min_value=1, max_value=4))
    def test_refine_scales_volume(self, a, r):
        assert a.refine(r).ncells == a.ncells * r**a.ndim

    @given(boxes(), boxes())
    def test_difference_partitions(self, a, b):
        pieces = a.difference(b)
        inter = a.intersection(b)
        assert sum(p.ncells for p in pieces) + inter.ncells == a.ncells
        for p in pieces:
            assert a.contains(p)
            assert not p.intersects(b)

    @given(boxes(), boxes())
    def test_shared_face_area_symmetric(self, a, b):
        assert a.shared_face_area(b) == b.shared_face_area(a)

    @given(boxes())
    def test_surface_at_most_volume(self, a):
        assert 0 <= a.surface_cells() <= a.ncells
