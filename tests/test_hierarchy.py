"""Unit and property tests for the grid hierarchy."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.grid import Grid
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import apply_cluster_boxes
from repro.distsys import build_system, parallel_spec
from repro.partition import GridAssignment, carve_workload
from repro.runtime import root_blocks


def make_hierarchy(n=16, levels=3, blocks=(4, 1, 1)):
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, refinement_ratio=2, max_levels=levels)
    h.create_root_grids(root_blocks(domain, blocks))
    return h


class TestConstruction:
    def test_bad_ratio_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box.cube(0, 8, 2), refinement_ratio=1)

    def test_bad_levels_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box.cube(0, 8, 2), max_levels=0)

    def test_empty_domain_raises(self):
        with pytest.raises(ValueError):
            GridHierarchy(Box((0, 0), (0, 4)))

    def test_root_grids_must_tile_exactly(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError):
            h.create_root_grids(BoxArray.from_boxes([Box((0, 0), (4, 8))]))  # covers half

    def test_root_grids_must_not_overlap(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError, match="overlaps"):  # 48 + 16 cells
            h.create_root_grids(BoxArray.from_boxes([Box((0, 0), (6, 8)),
                                                     Box((4, 0), (6, 8))]))

    def test_root_grids_must_be_inside(self):
        h = GridHierarchy(Box.cube(0, 8, 2), max_levels=2)
        with pytest.raises(ValueError, match="not inside"):  # 48 + 16 cells
            h.create_root_grids(BoxArray.from_boxes([Box((0, 0), (8, 6)),
                                                     Box((0, 7), (8, 9))]))

    def test_double_root_creation_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.create_root_grids(BoxArray.from_box(h.domain))


class TestAddRemove:
    def test_add_child(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert child.parent_gid == root.gid
        assert root.children == (child.gid,)
        h.validate()

    def test_add_level0_via_add_grid_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.add_grid(0, Box.cube(0, 2, 3))

    def test_child_outside_parent_raises(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]  # box [0,4) x [0,16)^2
        with pytest.raises(ValueError):
            h.add_grid(1, Box((30, 0, 0), (32, 4, 4)), root.gid)

    def test_overlapping_siblings_raise(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        with pytest.raises(ValueError):
            h.add_grid(1, Box((2, 2, 2), (6, 6, 6)), root.gid)

    def test_wrong_parent_level_raises(self):
        h = make_hierarchy(levels=3)
        root = h.level_grids(0)[0]
        with pytest.raises(ValueError):
            h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), root.gid)

    def test_remove_subtree(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        c2 = h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        h.remove_grid(c1.gid)
        assert not h.has_grid(c1.gid)
        assert not h.has_grid(c2.gid)
        assert root.children == ()
        h.validate()

    def test_clear_level_removes_finer(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        h.clear_level(1)
        assert h.level_grids(1) == []
        assert h.level_grids(2) == []
        assert h.level_grids(0)  # roots survive

    def test_clear_level0_raises(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.clear_level(0)

    def test_version_bumps_on_change(self):
        h = make_hierarchy()
        v0 = [h.level_version(level) for level in range(3)]
        root = h.level_grids(0)[0]
        c = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert h.level_version(1) > v0[1]
        assert (h.level_version(0), h.level_version(2)) == (v0[0], v0[2])
        v1 = h.level_version(1)
        h.remove_grid(c.gid)
        assert h.level_version(1) > v1
        assert (h.level_version(0), h.level_version(2)) == (v0[0], v0[2])


class TestQueries:
    def test_nlevels(self):
        h = make_hierarchy()
        assert h.nlevels == 1
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        assert h.nlevels == 2

    def test_level_domain(self):
        h = make_hierarchy(n=16)
        assert h.level_domain(0) == Box.cube(0, 16, 3)
        assert h.level_domain(2) == Box.cube(0, 64, 3)

    def test_total_cells(self):
        h = make_hierarchy(n=16)
        assert h.total_cells() == 16**3

    def test_subtree_preorder(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c1 = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        c2 = h.add_grid(2, Box((0, 0, 0), (4, 4, 4)), c1.gid)
        gids = [g.gid for g in h.subtree(root.gid)]
        assert gids == [root.gid, c1.gid, c2.gid]


class TestSiblingPairs:
    def test_adjacent_slabs(self):
        h = make_hierarchy(n=16, blocks=(4, 1, 1))
        pairs = h.sibling_pairs(0)
        # 4 slabs in a row -> 3 adjacent pairs
        assert len(pairs) == 3
        for a, b, area in pairs:
            assert a < b
            assert area == 2 * 16 * 16  # two-way full face exchange

    def test_blocks_grid_pair_count(self):
        h = make_hierarchy(n=16, blocks=(2, 2, 1))
        pairs = h.sibling_pairs(0)
        # 2x2 arrangement: 4 face pairs + 2 diagonal pairs
        assert len(pairs) == 6

    def test_no_pairs_single_grid(self):
        h = make_hierarchy(n=16, blocks=(1, 1, 1))
        pairs = h.sibling_pairs(0)
        assert pairs.shape == (0, 3) and pairs.dtype == np.int64

    def test_pairs_sorted_and_deterministic(self):
        h = make_hierarchy(n=16, blocks=(4, 2, 1))
        rows = h.sibling_pairs(0).tolist()
        assert rows == sorted(rows) == h.sibling_pairs(0).tolist()

    def test_slab_layout_stays_small(self):
        """4096 slabs sharing one axis-0 interval: the pair search sweeps
        axis 1, so neither the root check nor the adjacency materialises
        the 8-million candidate pairs of an axis-0 sweep."""
        n = 4096
        slabs = [Box((0, k, 0), (8, k + 1, 8)) for k in range(n)]
        tracemalloc.start()
        try:
            h = GridHierarchy(Box((0, 0, 0), (8, n, 8)), max_levels=1)
            h.create_root_grids(BoxArray.from_boxes(slabs))
            pairs = h.sibling_pairs(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == n - 1
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def _sibling_pairs_reference(h, level, ghost):
    """The former ``sibling_pairs``: an axis-0 sweep, kept as the reference,
    with each volume from the scalar :meth:`Box.shared_face_area`."""
    grids = h.level_grids(level)
    n = len(grids)
    if n < 2:
        return []
    lo0 = np.array([g.box.lo[0] for g in grids])
    hi0 = np.array([g.box.hi[0] for g in grids])
    order = np.argsort(lo0, kind="stable")
    upper = np.searchsorted(lo0[order], hi0[order] + 2 * ghost, side="left")
    out = []
    for pos in range(n):
        for other in range(pos + 1, max(pos + 1, upper[pos])):
            a, b = grids[order[pos]], grids[order[other]]
            area = a.box.shared_face_area(b.box, ghost)
            if area > 0:
                out.append([min(a.gid, b.gid), max(a.gid, b.gid), area])
    return sorted(out)


@st.composite
def sibling_levels(draw):
    """A level-1 layout: a random bisection tiling of the refined domain
    (mixed box sizes; faces, edges and corners touch), some tiles dropped
    so gaps of every width appear, added in shuffled order."""
    ndim = draw(st.sampled_from([2, 3]))
    domain = Box.cube(0, draw(st.sampled_from([4, 6, 8])), ndim)
    tiles = [domain.refine(2)]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        k = draw(st.integers(min_value=0, max_value=len(tiles) - 1))
        box, axis = tiles[k], draw(st.integers(min_value=0, max_value=ndim - 1))
        if box.shape[axis] < 2:
            continue
        cut = draw(st.integers(min_value=box.lo[axis] + 1,
                               max_value=box.hi[axis] - 1))
        tiles[k:k + 1] = [
            Box(box.lo, box.hi[:axis] + (cut,) + box.hi[axis + 1:]),
            Box(box.lo[:axis] + (cut,) + box.lo[axis + 1:], box.hi),
        ]
    keep = draw(st.lists(st.booleans(), min_size=len(tiles), max_size=len(tiles)))
    order = draw(st.permutations([t for t, k in zip(tiles, keep) if k]))
    h = GridHierarchy(domain, refinement_ratio=2, max_levels=2)
    (root,) = h.create_root_grids(BoxArray.from_box(domain))
    for box in order:
        h.add_grid(1, box, root.gid)
    return h


class TestSiblingPairsMatchesReference:
    @given(h=sibling_levels(), ghost=st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_reference(self, h, ghost):
        assert h.sibling_pairs(1, ghost).tolist() == _sibling_pairs_reference(h, 1, ghost)

    def test_blocks_match_reference(self):
        h = make_hierarchy(n=16, blocks=(4, 4, 2))
        for ghost in (1, 2, 3):
            assert h.sibling_pairs(0, ghost).tolist() == _sibling_pairs_reference(h, 0, ghost)


# --------------------------------------------------------------------- #
# level tables
# --------------------------------------------------------------------- #


def _fresh_table(h, level):
    """A level's boxes and gids packed afresh from its grids."""
    grids = h.level_grids(level)
    return (BoxArray.from_boxes([g.box for g in grids], ndim=h.domain.ndim),
            np.array([g.gid for g in grids], dtype=np.int64))


def _fresh_columns(h, owners, level):
    """A level's ``work_per_cell``, workload, parent and owner columns read
    afresh from its grids and the per-grid owner map."""
    grids = h.level_grids(level)
    return {
        "work_per_cell": [g.work_per_cell for g in grids],
        "workload": [g.workload for g in grids],
        "parents": [-1 if g.parent_gid is None else g.parent_gid for g in grids],
        "owners": [owners._owner.get(g.gid, -1) for g in grids],
    }


def _columns(h, owners, level):
    return {
        "work_per_cell": h.level_work_per_cell(level).tolist(),
        "workload": h.level_workloads(level).tolist(),
        "parents": h.level_parents(level).tolist(),
        "owners": owners.owners(level).tolist(),
    }


@dataclass
class _Expect:
    """The levels one step changes: their rows (the level version), their
    ``work_per_cell`` (the workload version) and their owners (the owner
    version)."""

    rows: Set[int] = field(default_factory=set)
    work: Set[int] = field(default_factory=set)
    owners: Set[int] = field(default_factory=set)


def _sub_box(data, bounds):
    """A non-empty box drawn inside ``bounds``."""
    lo = [data.draw(st.integers(bounds.lo[d], bounds.hi[d] - 1))
          for d in range(bounds.ndim)]
    hi = [data.draw(st.integers(lo[d] + 1, bounds.hi[d]))
          for d in range(bounds.ndim)]
    return Box(tuple(lo), tuple(hi))


def _nonempty_from(h, level):
    return {lvl for lvl in range(level, h.max_levels) if h.level_grids(lvl)}


def _op_create_roots(data, h, owners):
    blocks = tuple(data.draw(st.sampled_from([1, 2, 4]))
                   for _ in range(h.domain.ndim))
    if h.level_grids(0):
        with pytest.raises(ValueError, match="root grids already exist"):
            h.create_root_grids(root_blocks(h.domain, blocks))
        return _Expect()
    h.create_root_grids(root_blocks(h.domain, blocks))
    return _Expect(rows={0})


def _op_add_grid(data, h, owners):
    """A child of a grid on a level drawn first, so deep levels fill as
    often as shallow ones."""
    levels = [lvl for lvl in range(h.max_levels - 1) if h.level_grids(lvl)]
    if not levels:
        return _Expect()
    parent = data.draw(st.sampled_from(h.level_grids(data.draw(st.sampled_from(levels)))))
    try:
        h.add_grid(parent.level + 1, _sub_box(data, parent.box.refine(2)),
                   parent.gid, work_per_cell=data.draw(WORK))
    except ValueError:  # overlaps a sibling: nothing changes
        return _Expect()
    return _Expect(rows={parent.level + 1})


def _op_remove_grid(data, h, owners):
    grids = h.all_grids()
    if not grids:
        return _Expect()
    gid = data.draw(st.sampled_from(grids)).gid
    expected = {g.level for g in h.subtree(gid)}
    h.remove_grid(gid)
    return _Expect(rows=expected)


def _op_clear_level(data, h, owners):
    level = data.draw(st.integers(1, max(1, h.max_levels - 1)))
    expected = _nonempty_from(h, level)
    h.clear_level(level)
    return _Expect(rows=expected)


def _op_apply_cluster_boxes(data, h, owners):
    """One cluster over the whole coarse level (it refines every grid, so
    deep hierarchies come quickly), or up to three anywhere on it,
    overlapping or not; an overlap raises after the fine level was
    cleared."""
    coarse = data.draw(st.integers(0, max(0, h.nlevels - 1)))
    if data.draw(st.booleans()):
        clusters = [h.level_domain(coarse)]
    else:
        clusters = [_sub_box(data, h.level_domain(coarse))
                    for _ in range(data.draw(st.integers(0, 3)))]
    cleared = _nonempty_from(h, coarse + 1)
    try:
        created = apply_cluster_boxes(h, coarse, clusters, 1.0)
    except ValueError:
        return _Expect(rows=cleared)
    return _Expect(rows=cleared | ({coarse + 1} if created else set()))


def _op_refine_finest(data, h, owners):
    """One child under every grid of the finest level."""
    coarse = h.nlevels - 1
    if coarse + 1 >= h.max_levels:
        return _Expect()
    apply_cluster_boxes(h, coarse, [h.level_domain(coarse)], 1.0)
    return _Expect(rows={coarse + 1})


def _op_insert_grids(data, h, owners):
    """One ``insert_grids`` batch of 1-4 boxes on a level drawn first, each
    inside a parent's refined box (or the domain on level 0).  A batch that
    overlaps itself or the level is refused and changes nothing; one on an
    empty level becomes its table."""
    level = data.draw(st.integers(0, h.max_levels - 1))
    if level and not h.level_grids(level - 1):
        return _Expect()
    n = data.draw(st.integers(1, 4))
    if level:
        parents = [data.draw(st.sampled_from(h.level_grids(level - 1))) for _ in range(n)]
        bounds = [p.box.refine(2) for p in parents]
        parent_gids = np.array([p.gid for p in parents], dtype=np.int64)
    else:
        bounds, parent_gids = [h.domain] * n, None
    boxes = BoxArray.from_boxes([_sub_box(data, b) for b in bounds])
    try:
        created = h.insert_grids(level, boxes, parent_gids, data.draw(WORK))
    except ValueError:
        return _Expect()
    assert [g.box for g in created] == [boxes.box(i) for i in range(n)]
    return _Expect(rows={level})


def _op_carve(data, h, owners):
    roots = [g for g in h.level_grids(0) if max(g.box.shape) >= 2 and g.workload > 0]
    if not roots:
        return _Expect()
    root = data.draw(st.sampled_from(roots))
    assigned = _nonempty_from(h, 0)
    for g in h.all_grids():
        owners.assign(g.gid, 0)
    expected = {g.level for g in h.subtree(root.gid)} | {0}
    fraction = data.draw(st.floats(0.05, 0.95))
    carve_workload(h, owners, root.gid, fraction * root.workload)
    return _Expect(rows=expected, owners=assigned)


def _op_set_work(data, h, owners):
    """New ``work_per_cell`` for every row of a level drawn first."""
    level = data.draw(st.integers(0, h.max_levels - 1))
    n = len(h.level_gids(level))
    h.set_work_per_cell(level, data.draw(st.lists(WORK, min_size=n, max_size=n)))
    return _Expect(work={level})


def _op_assign(data, h, owners):
    """Up to three grids, each to a drawn processor."""
    grids = h.all_grids()
    if not grids:
        return _Expect()
    changed = set()
    for _ in range(data.draw(st.integers(1, 3))):
        grid = data.draw(st.sampled_from(grids))
        owners.assign(grid.gid, data.draw(st.integers(0, owners.system.nprocs - 1)))
        changed.add(grid.level)
    return _Expect(owners=changed)


WORK = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5])

_MUTATIONS = [_op_create_roots, _op_add_grid, _op_insert_grids, _op_remove_grid,
              _op_clear_level, _op_apply_cluster_boxes, _op_carve, _op_set_work,
              _op_assign]


class TestLevelTables:
    def test_tables_match_the_grids(self):
        h = make_hierarchy(blocks=(2, 2, 1))
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        for level in range(h.max_levels):
            boxes, gids = _fresh_table(h, level)
            assert h.level_boxes(level).corners.tolist() == boxes.corners.tolist()
            assert h.level_gids(level).tolist() == gids.tolist()
            assert h.level_gids(level).dtype == np.int64

    def test_built_once_per_version_and_read_only(self):
        h = make_hierarchy()
        boxes, gids = h.level_boxes(0), h.level_gids(0)
        assert h.level_boxes(0) is boxes and h.level_gids(0) is gids
        with pytest.raises(ValueError):
            boxes.corners[0, 0, 0] = 1
        with pytest.raises(ValueError):
            gids[0] = 1
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), int(gids[0]))
        assert h.level_boxes(0) is boxes  # level 1 changed, not level 0

    def test_a_level_built_whole_keeps_its_rows(self):
        """Inserting into an empty level keeps the batch as its table,
        inserting into a non-empty one appends to it, and removing a grid
        drops its row: every table equals a fresh packing."""
        for ndim in (1, 2, 3):
            h = GridHierarchy(Box.cube(0, 8, ndim), refinement_ratio=2, max_levels=3)
            roots = h.create_root_grids(root_blocks(h.domain, (2,) + (1,) * (ndim - 1)))
            tiles = root_blocks(h.level_domain(1), (4,) * ndim)
            parents = np.where(tiles.lo[:, 0] < 8, roots[0].gid, roots[1].gid)
            half = len(tiles) // 2
            first = h.insert_grids(1, BoxArray(tiles.corners[:half]), parents[:half], 2.0)
            version = h.level_version(1)
            second = h.insert_grids(1, BoxArray(tiles.corners[half:]), parents[half:], 2.0)
            assert h.level_version(1) == version + 1
            assert [g.gid for g in first + second] == h.level_gids(1).tolist()
            np.testing.assert_array_equal(h.level_boxes(1).corners, tiles.corners)
            h.remove_grid(first[0].gid)  # and put it back, as a split does
            (again,) = h.insert_grids(1, BoxArray(tiles.corners[:1]), parents[:1], 2.0)
            assert h.level_gids(1).tolist() == [g.gid for g in first[1:] + second] + [again.gid]
            for level in (0, 1):
                boxes, gids = _fresh_table(h, level)
                np.testing.assert_array_equal(h.level_boxes(level).corners, boxes.corners)
                np.testing.assert_array_equal(h.level_gids(level), gids)
            h.validate()

    def test_refused_batches_change_nothing(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        state = ([h.level_version(lvl) for lvl in range(3)], h.ngrids)
        bad = [
            (1, [Box((2, 2, 2), (6, 6, 6))], [root.gid], "overlaps existing grid"),
            (1, [Box((4, 4, 4), (6, 6, 6)), Box((5, 5, 5), (7, 7, 7))],
             [root.gid] * 2, "overlaps box"),
            (1, [Box((4, 4, 4), (4, 6, 6))], [root.gid], "empty box"),
            (1, [Box((30, 0, 0), (32, 4, 4))], [root.gid], "not nested"),
            (2, [Box((0, 0, 0), (2, 2, 2))], [root.gid], "expected 1"),
            (1, [Box((4, 4, 4), (6, 6, 6))], None, "need parents"),
            (1, [Box((4, 4, 4), (6, 6, 6)), Box((8, 8, 8), (9, 9, 9))], [root.gid],
             "parent gids of shape"),
            (0, [Box((0, 0, 0), (1, 1, 1))], [root.gid], "cannot have a parent"),
            (0, [Box((0, 0, 0), (1, 1, 17))], None, "not inside domain"),
            (3, [Box((0, 0, 0), (1, 1, 1))], None, "out of range"),
        ]
        for level, boxes, parents, message in bad:
            gids = None if parents is None else np.array(parents, dtype=np.int64)
            with pytest.raises(ValueError, match=message):
                h.insert_grids(level, BoxArray.from_boxes(boxes), gids, 1.0)
        with pytest.raises(ValueError, match="work_per_cell"):
            h.add_grid(1, Box((4, 4, 4), (6, 6, 6)), root.gid, work_per_cell=-1.0)
        with pytest.raises(ValueError, match="rank mismatch"):
            h.add_grid(1, Box((4, 4), (6, 6)), root.gid)
        assert ([h.level_version(lvl) for lvl in range(3)], h.ngrids) == state
        h.validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_work_per_cell_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="work_per_cell must be finite"):
            GridHierarchy(Box.cube(0, 4, 2)).create_root_grids(
                root_blocks(Box.cube(0, 4, 2), (2, 2)), work_per_cell=bad)
        with pytest.raises(ValueError, match="work_per_cell must be finite"):
            Grid(gid=1, level=0, box=Box.cube(0, 2, 2), work_per_cell=bad)
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        state = ([h.level_version(lvl) for lvl in range(3)],
                 [h.workload_version(lvl) for lvl in range(3)], h.ngrids)
        with pytest.raises(ValueError, match="work_per_cell must be finite"):
            h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid, work_per_cell=bad)
        values = np.full(len(h.level_gids(0)), 2.0)
        values[-1] = bad
        with pytest.raises(ValueError, match="work_per_cell must be finite"):
            h.set_work_per_cell(0, values)
        with pytest.raises(ValueError, match="3 values for the 4 grids"):
            h.set_work_per_cell(0, np.ones(3))
        assert ([h.level_version(lvl) for lvl in range(3)],
                [h.workload_version(lvl) for lvl in range(3)], h.ngrids) == state
        assert h.level_work_per_cell(0).tolist() == [1.0] * 4
        h.validate()

    def test_set_work_per_cell_moves_the_columns_and_the_grids(self):
        h = make_hierarchy()
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), h.level_grids(0)[0].gid)
        workloads = h.level_workloads(0)
        h.set_work_per_cell(0, [0.5, 0.1, 0.0, 3.0])
        assert h.workload_version(0) == 1 and h.workload_version(1) == 0
        assert workloads.tolist() == [1024.0] * 4  # the old column is untouched
        expected = [g.ncells * w for g, w in zip(h.level_grids(0), [0.5, 0.1, 0.0, 3.0])]
        assert h.level_workloads(0).tolist() == expected
        assert [g.workload for g in h.level_grids(0)] == expected
        assert child.workload == 64.0
        with pytest.raises(ValueError):
            h.level_workloads(0)[0] = 1.0
        h.validate()

    def test_a_copy_assigns_without_touching_the_original(self):
        h = make_hierarchy()
        owners = GridAssignment(h, build_system(parallel_spec(3)))
        gids = h.level_gids(0).tolist()
        for gid in gids:
            owners.assign(gid, 1)
        column, version = owners.owners(0), owners.owner_version(0)
        other = owners.copy()
        other.assign(gids[0], 2)
        other.assign(gids[1], 0)
        assert owners.owners(0) is column and column.tolist() == [1, 1, 1, 1]
        assert owners.owner_version(0) == version
        assert [owners.pid_of(g) for g in gids] == [1, 1, 1, 1]
        assert other.owners(0).tolist() == [2, 0, 1, 1]
        assert other.owner_version(0) == version + 2
        assert owners.level_loads(0).tolist() == [0.0, 4096.0, 0.0]
        assert other.level_loads(0).tolist() == [1024.0, 2048.0, 1024.0]
        owners.validate()
        other.validate()

    def test_gids_ascend_after_a_carve(self):
        h = make_hierarchy()
        owners = GridAssignment(h, build_system(parallel_spec(1)))
        for g in h.all_grids():
            owners.assign(g.gid, 0)
        first = h.level_grids(0)[0]
        carve_workload(h, owners, first.gid, first.workload / 2)
        gids = h.level_gids(0).tolist()
        assert gids == sorted(gids) and first.gid not in gids

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_tables_never_go_stale(self, data):
        """After every mutation exactly the levels whose grid set changed
        have a new version, exactly the levels whose ``work_per_cell`` was
        set a new workload version and exactly the levels with an assigned
        grid a new owner version; each table equals a fresh packing, and
        its workload, parent and owner columns equal fresh values from the
        grids and the owner map.  The tables and columns are read between
        steps, so a stale one would be served.  Every sequence starts from
        a hierarchy refined to its last level, so clears and carves empty
        several levels at once."""
        ndim = data.draw(st.integers(1, 3))
        h = GridHierarchy(Box.cube(0, 4, ndim), refinement_ratio=2,
                          max_levels=data.draw(st.integers(1, 4)))
        owners = GridAssignment(h, build_system(parallel_spec(3)))
        levels = range(h.max_levels)
        steps = ([_op_create_roots] + [_op_refine_finest] * (h.max_levels - 1)
                 + data.draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1,
                                      max_size=12)))
        for op in steps:
            for level in levels:
                _columns(h, owners, level), h.level_boxes(level)
            before = [_fresh_table(h, level)[1].tolist() for level in levels]
            versions = [(h.level_version(level), h.workload_version(level),
                         owners.owner_version(level)) for level in levels]
            expected = op(data, h, owners)
            changed = {level for level in levels
                       if _fresh_table(h, level)[1].tolist() != before[level]}
            bumped = [{level for level in levels
                       if version(level) != versions[level][k]}
                      for k, version in enumerate((h.level_version, h.workload_version,
                                                   owners.owner_version))]
            assert changed == expected.rows, op.__name__
            assert bumped == [expected.rows, expected.work, expected.owners], op.__name__
            for level in levels:
                boxes, gids = _fresh_table(h, level)
                np.testing.assert_array_equal(h.level_boxes(level).corners,
                                              boxes.corners)
                np.testing.assert_array_equal(h.level_gids(level), gids)
                assert _columns(h, owners, level) == _fresh_columns(h, owners, level)


class TestValidateCatchesCorruption:
    def test_validate_ok(self):
        h = make_hierarchy()
        h.validate()

    def test_validate_catches_a_stale_table(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        h.level_gids(1)  # built while the child is there
        h.validate()
        # drop the child without moving level 1's version, on purpose
        h._levels[1].remove(child)
        root._remove_child(child.gid)
        del h._grids[child.gid]
        with pytest.raises(ValueError, match="level 1's table is stale"):
            h.validate()

    def test_validate_names_first_overlapping_pair(self):
        h = make_hierarchy(blocks=(2, 2, 1))
        root = h.level_grids(0)[0]
        a = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        h.add_grid(1, Box((4, 0, 0), (8, 4, 4)), root.gid)
        c = h.add_grid(1, Box((0, 4, 0), (4, 8, 4)), root.gid)
        c.box = Box((3, 3, 3), (5, 5, 5))  # onto both siblings, on purpose
        with pytest.raises(ValueError,
                           match=f"grids {a.gid} and {c.gid} overlap on level 1"):
            h.validate()

    def test_validate_catches_bad_parent_link(self):
        h = make_hierarchy()
        root = h.level_grids(0)[0]
        c = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
        root._children.remove(c.gid)  # corrupt on purpose
        with pytest.raises(ValueError):
            h.validate()

    def test_validators_raise_under_python_O(self):
        """``python -O`` strips ``assert``; both validators must still
        reject corrupt state, with a ``ValueError`` naming the grid."""
        import repro

        script = textwrap.dedent("""
            from repro.amr.box import Box
            from repro.amr.hierarchy import GridHierarchy
            from repro.distsys import build_system, wan_spec
            from repro.partition import GridAssignment
            from repro.runtime import root_blocks

            assert False, "this script must run under python -O"

            def hierarchy():
                domain = Box.cube(0, 16, 3)
                h = GridHierarchy(domain, refinement_ratio=2, max_levels=3)
                h.create_root_grids(root_blocks(domain, (2, 2, 1)))
                return h

            def expect(check, message):
                try:
                    check()
                except ValueError as err:
                    assert str(err) == message, str(err)
                    print("ok", message)
                else:
                    print("passed silently:", message)

            h = hierarchy()
            root = h.level_grids(0)[0]
            a = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), root.gid)
            c = h.add_grid(1, Box((0, 4, 0), (4, 8, 4)), root.gid)
            c.box = Box((3, 3, 3), (5, 5, 5))  # onto a, on purpose
            expect(h.validate, f"grids {a.gid} and {c.gid} overlap on level 1")

            h = hierarchy()
            system = build_system(wan_spec(2))
            owners = GridAssignment(h, system)
            gids = [g.gid for g in h.all_grids()]
            expect(owners.validate, f"grid {gids[0]} is unassigned")
            for gid in gids:
                owners.assign(gid, 0)
            owners._owner[gids[-1]] = system.nprocs  # corrupt on purpose
            expect(owners.validate, f"grid {gids[-1]} on bad pid {system.nprocs}")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and all(line.startswith("ok ") for line in lines), proc.stdout


@given(
    blocks=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (4, 2, 2)]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_property_random_subtrees_keep_invariants(blocks, seed):
    """Randomly grown hierarchies always satisfy validate()."""
    import numpy as np

    rng = np.random.default_rng(seed)
    h = make_hierarchy(n=16, levels=3, blocks=blocks)
    for _ in range(10):
        # pick a random grid, try to add a child in its refined box
        grids = [g for g in h.all_grids() if g.level < h.max_levels - 1]
        g = grids[rng.integers(len(grids))]
        refined = g.box.refine(2)
        lo = [int(rng.integers(refined.lo[d], refined.hi[d])) for d in range(3)]
        hi = [min(refined.hi[d], lo[d] + int(rng.integers(1, 5))) for d in range(3)]
        box = Box(tuple(lo), tuple(hi))
        if box.is_empty:
            continue
        try:
            h.add_grid(g.level + 1, box, g.gid)
        except ValueError:
            pass  # overlap with an existing sibling: legal rejection
    h.validate()
