"""Unit tests for Grid and GridIdAllocator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.grid import Grid, GridIdAllocator
from repro.amr.hierarchy import GridHierarchy


class TestGridIdAllocator:
    def test_monotonic(self):
        alloc = GridIdAllocator()
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]

    def test_start_offset(self):
        alloc = GridIdAllocator(start=10)
        assert alloc.allocate() == 10


def _hierarchy():
    """Two 4^3 roots, room for two finer levels."""
    h = GridHierarchy(Box((0, 0, 0), (8, 4, 4)), refinement_ratio=2, max_levels=3)
    h.create_root_grids(BoxArray.from_boxes([Box((0, 0, 0), (4, 4, 4)),
                                             Box((4, 0, 0), (8, 4, 4))]))
    return h


def _insert(h, level, box, parent=None, work_per_cell=1.0):
    """One grid through a one-row insert_grids batch."""
    parents = None if parent is None else np.array([parent], dtype=np.int64)
    (grid,) = h.insert_grids(level, BoxArray.from_box(box), parents, work_per_cell)
    return grid


class TestGrid:
    """A grid is an immutable record built by insert_grids, which checks it
    first; its cost lives in its level's table and its children in the next
    level's parent column."""

    def test_basic(self):
        h = _hierarchy()
        root = h.level_grids(0)[0]
        assert root == Grid(root.gid, 0, Box((0, 0, 0), (4, 4, 4)), None)
        assert h.grid(root.gid) is root
        assert h.level_workloads(0).tolist() == [64.0, 64.0]

    def test_holds_exactly_gid_level_box_and_parent(self):
        assert Grid._fields == ("gid", "level", "box", "parent_gid")
        h = _hierarchy()
        root = h.level_grids(0)[0]
        child = _insert(h, 1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert child == (child.gid, 1, Box((0, 0, 0), (4, 4, 4)), root.gid)

    @pytest.mark.parametrize("name", Grid._fields)
    def test_setting_a_field_raises(self, name):
        grid = _hierarchy().level_grids(0)[0]
        with pytest.raises(AttributeError):
            setattr(grid, name, getattr(grid, name))

    def test_workload_scales_with_work_per_cell(self):
        h = _hierarchy()
        _insert(h, 1, Box((0, 0, 0), (4, 4, 4)), h.level_gids(0)[0], 2.5)
        assert h.level_work_per_cell(1).tolist() == [2.5]
        assert h.level_workloads(1).tolist() == [160.0]

    def test_level0_with_parent_raises(self):
        h = _hierarchy()
        with pytest.raises(ValueError, match="cannot have a parent"):
            _insert(h, 0, Box.cube(0, 2, 3), parent=h.level_gids(0)[0])
        assert h.ngrids == 2

    def test_fine_without_parent_raises(self):
        h = _hierarchy()
        with pytest.raises(ValueError, match="need parents"):
            _insert(h, 1, Box.cube(0, 2, 3))
        assert h.ngrids == 2

    def test_negative_level_raises(self):
        h = _hierarchy()
        with pytest.raises(ValueError, match="out of range"):
            _insert(h, -1, Box.cube(0, 2, 3))
        assert h.ngrids == 2

    def test_empty_box_raises(self):
        h = _hierarchy()
        with pytest.raises(ValueError, match="empty box"):
            _insert(h, 1, Box((0, 0, 0), (0, 4, 4)), h.level_gids(0)[0])
        assert h.ngrids == 2

    def test_negative_work_raises(self):
        h = _hierarchy()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="work_per_cell must be finite"):
                _insert(h, 1, Box.cube(0, 2, 3), h.level_gids(0)[0], bad)
        assert h.ngrids == 2

    def test_children_management(self):
        h = _hierarchy()
        root, other = h.level_grids(0)
        a = _insert(h, 1, Box((0, 0, 0), (2, 2, 2)), root.gid)
        b = _insert(h, 1, Box((8, 0, 0), (10, 2, 2)), other.gid)
        c = _insert(h, 1, Box((4, 4, 4), (6, 6, 6)), root.gid)
        assert h.children(root.gid).tolist() == [a.gid, c.gid]
        assert h.children(other.gid).tolist() == [b.gid]
        h.remove_grid(a.gid)
        assert h.children(root.gid).tolist() == [c.gid]
        d = _insert(h, 2, Box((8, 8, 8), (10, 10, 10)), c.gid)
        assert h.children(c.gid).tolist() == [d.gid]
        leaf = h.children(d.gid)
        assert leaf.dtype == np.int64 and not len(leaf)
