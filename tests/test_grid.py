"""Unit tests for Grid and GridIdAllocator."""

from __future__ import annotations

import pytest

from repro.amr.box import Box
from repro.amr.grid import Grid, GridIdAllocator


class TestGridIdAllocator:
    def test_monotonic(self):
        alloc = GridIdAllocator()
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]

    def test_start_offset(self):
        alloc = GridIdAllocator(start=10)
        assert alloc.allocate() == 10


class TestGrid:
    def test_basic(self):
        g = Grid(gid=1, level=0, box=Box.cube(0, 4, 3))
        assert g.ncells == 64
        assert g.workload == 64.0

    def test_workload_scales_with_work_per_cell(self):
        g = Grid(gid=1, level=0, box=Box.cube(0, 4, 3), work_per_cell=2.5)
        assert g.workload == 160.0

    def test_level0_with_parent_raises(self):
        with pytest.raises(ValueError):
            Grid(gid=1, level=0, box=Box.cube(0, 2, 2), parent_gid=0)

    def test_fine_without_parent_raises(self):
        with pytest.raises(ValueError):
            Grid(gid=1, level=1, box=Box.cube(0, 2, 2))

    def test_negative_level_raises(self):
        with pytest.raises(ValueError):
            Grid(gid=1, level=-1, box=Box.cube(0, 2, 2))

    def test_empty_box_raises(self):
        with pytest.raises(ValueError):
            Grid(gid=1, level=0, box=Box((0, 0), (0, 4)))

    def test_negative_work_raises(self):
        with pytest.raises(ValueError):
            Grid(gid=1, level=0, box=Box.cube(0, 2, 2), work_per_cell=-1.0)

    def test_children_management(self):
        g = Grid(gid=1, level=0, box=Box.cube(0, 4, 2))
        g._add_child(5)
        g._add_child(7)
        assert g.children == (5, 7)
        g._remove_child(5)
        assert g.children == (7,)

    def test_duplicate_child_raises(self):
        g = Grid(gid=1, level=0, box=Box.cube(0, 4, 2))
        g._add_child(5)
        with pytest.raises(ValueError):
            g._add_child(5)

    def test_migration_cells_is_volume(self):
        g = Grid(gid=1, level=0, box=Box.cube(0, 4, 3))
        assert g.migration_cells() == 64
