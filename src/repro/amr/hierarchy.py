"""The SAMR grid hierarchy: a tree of grids over refinement levels (Fig. 1).

A hierarchy owns every :class:`~repro.amr.grid.Grid` in the simulation and
maintains the tree structure the paper's Fig. 1 shows: level 0 covers the
whole computational domain; each finer level consists of grids nested inside
(and attached to) a single parent grid one level coarser.

Invariants enforced here (and property-tested in ``tests/``):

* grids on one level are pairwise disjoint;
* every grid at level ``l >= 1`` is fully nested inside its parent's
  refined footprint;
* parent/child links are consistent both ways;
* level-0 grids tile the domain exactly (checked on construction).

Each level has a version, moved only when a grid joins or leaves it, and a
table of its boxes and gids built once per version: the only whole-level
arrays of the runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .box import Box
from .boxarray import BoxArray
from .grid import Grid, GridIdAllocator

__all__ = ["GridHierarchy"]


class GridHierarchy:
    """Tree of grids across refinement levels.

    Parameters
    ----------
    domain:
        The computational domain in level-0 coordinates.
    refinement_ratio:
        Mesh refinement factor between consecutive levels (paper uses 2).
    max_levels:
        Maximum number of levels (level indices ``0 .. max_levels-1``).
    """

    def __init__(self, domain: Box, refinement_ratio: int = 2, max_levels: int = 4) -> None:
        if refinement_ratio < 2:
            raise ValueError(f"refinement ratio must be >= 2, got {refinement_ratio}")
        if max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {max_levels}")
        if domain.is_empty:
            raise ValueError("domain must be non-empty")
        self.domain = domain
        self.refinement_ratio = int(refinement_ratio)
        self.max_levels = int(max_levels)
        self._grids: Dict[int, Grid] = {}
        self._levels: List[List[int]] = [[] for _ in range(max_levels)]
        self._ids = GridIdAllocator()
        self._versions: List[int] = [0] * max_levels
        #: level -> (the version it was built at, boxes, gids)
        self._tables: Dict[int, Tuple[int, BoxArray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def create_root_grids(self, boxes: Sequence[Box], work_per_cell: float = 1.0) -> List[Grid]:
        """Create the level-0 grids; ``boxes`` must tile the domain exactly.

        Returns the created grids in the order given.
        """
        if self._levels[0]:
            raise ValueError("root grids already exist")
        boxes = list(boxes)
        total = 0
        if boxes:
            arr = BoxArray.from_boxes(boxes, ndim=self.domain.ndim)
            inside = BoxArray.from_box(self.domain).contains_pairwise(arr)[0]
            if not inside.all():
                box = boxes[int(np.argmin(inside))]
                raise ValueError(f"root box {box} is not inside domain {self.domain}")
            ia, ib = arr.overlap_pairs()
            if len(ia):
                raise ValueError(
                    f"root boxes overlap: {boxes[ib[0]]} and {boxes[ia[0]]}"
                )
            total = int(arr.ncells().sum())
        if total != self.domain.ncells:
            raise ValueError(
                f"root boxes cover {total} cells but the domain has {self.domain.ncells}"
            )
        return [self._insert(0, box, None, work_per_cell) for box in boxes]

    def add_grid(
        self,
        level: int,
        box: Box,
        parent_gid: Optional[int] = None,
        work_per_cell: float = 1.0,
    ) -> Grid:
        """Add one grid; validates nesting and disjointness."""
        if not 0 <= level < self.max_levels:
            raise ValueError(f"level {level} out of range [0, {self.max_levels})")
        if level == 0:
            raise ValueError("use create_root_grids for level 0")
        if parent_gid is None:
            raise ValueError("finer grids need a parent_gid")
        parent = self.grid(parent_gid)
        if parent.level != level - 1:
            raise ValueError(
                f"parent {parent_gid} is at level {parent.level}, expected {level - 1}"
            )
        if not parent.box.refine(self.refinement_ratio).contains(box):
            raise ValueError(
                f"child box {box} not nested in parent {parent_gid}'s refined box "
                f"{parent.box.refine(self.refinement_ratio)}"
            )
        for gid in self._levels[level]:
            if self._grids[gid].box.intersects(box):
                raise ValueError(f"box {box} overlaps existing grid {gid} on level {level}")
        return self._insert(level, box, parent_gid, work_per_cell)

    def _insert(
        self, level: int, box: Box, parent_gid: Optional[int], work_per_cell: float
    ) -> Grid:
        gid = self._ids.allocate()
        grid = Grid(gid=gid, level=level, box=box, work_per_cell=work_per_cell,
                    parent_gid=parent_gid)
        self._grids[gid] = grid
        self._levels[level].append(gid)
        self._versions[level] += 1
        if parent_gid is not None:
            self._grids[parent_gid]._add_child(gid)
        return grid

    def remove_grid(self, gid: int) -> None:
        """Remove a grid and its entire subtree of descendants."""
        grid = self.grid(gid)
        for child in list(grid.children):
            self.remove_grid(child)
        if grid.parent_gid is not None:
            self._grids[grid.parent_gid]._remove_child(gid)
        self._levels[grid.level].remove(gid)
        del self._grids[gid]
        self._versions[grid.level] += 1

    def clear_level(self, level: int) -> None:
        """Remove every grid at ``level`` and below (finer).  Level 0 is kept.

        Batch equivalent of calling :meth:`remove_grid` on each grid of
        ``level``: every level >= ``level`` is dropped wholesale, parents one
        level coarser forget their children, and the version of every level
        that held a grid moves.
        """
        if level == 0:
            raise ValueError("cannot clear level 0")
        cleared = [lvl for lvl in range(level, self.max_levels) if self._levels[lvl]]
        for lvl in cleared:
            for gid in self._levels[lvl]:
                del self._grids[gid]
            self._levels[lvl] = []
            self._versions[lvl] += 1
        if cleared:
            # every surviving child link points into the cleared subtree
            for gid in self._levels[level - 1]:
                self._grids[gid]._clear_children()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def grid(self, gid: int) -> Grid:
        """Grid by id (KeyError if unknown)."""
        return self._grids[gid]

    def has_grid(self, gid: int) -> bool:
        return gid in self._grids

    def level_grids(self, level: int) -> List[Grid]:
        """Grids at ``level`` in creation order."""
        return [self._grids[g] for g in self._levels[level]]

    def all_grids(self) -> List[Grid]:
        """Every grid, coarsest level first."""
        return [g for level in self._levels for g in (self._grids[i] for i in level)]

    @property
    def ngrids(self) -> int:
        return len(self._grids)

    @property
    def nlevels(self) -> int:
        """Number of levels that currently hold at least one grid."""
        n = 0
        for i, level in enumerate(self._levels):
            if level:
                n = i + 1
        return n

    def level_domain(self, level: int) -> Box:
        """The whole domain expressed in level-``level`` coordinates."""
        return self.domain.refine(self.refinement_ratio**level)

    def total_cells(self) -> int:
        return sum(g.ncells for g in self._grids.values())

    def subtree(self, gid: int) -> List[Grid]:
        """The grid and all its descendants (pre-order)."""
        grid = self.grid(gid)
        out = [grid]
        for child in grid.children:
            out.extend(self.subtree(child))
        return out

    # ------------------------------------------------------------------ #
    # level tables
    # ------------------------------------------------------------------ #

    def level_version(self, level: int) -> int:
        """Moves whenever a grid joins or leaves ``level``, and only then:
        key a cache of anything built from one level on it."""
        return self._versions[level]

    def level_boxes(self, level: int) -> BoxArray:
        """``level``'s boxes in :meth:`level_grids` order, read-only."""
        return self._table(level)[1]

    def level_gids(self, level: int) -> np.ndarray:
        """``level``'s gids in :meth:`level_grids` order (ascending: ids
        are allocated increasingly and appended), read-only ``int64``."""
        return self._table(level)[2]

    def _table(self, level: int) -> Tuple[int, BoxArray, np.ndarray]:
        table = self._tables.get(level)
        if table is None or table[0] != self._versions[level]:
            boxes, gids = self._pack(level)
            boxes.corners.flags.writeable = gids.flags.writeable = False
            table = self._tables[level] = (self._versions[level], boxes, gids)
        return table

    def _pack(self, level: int) -> Tuple[BoxArray, np.ndarray]:
        """``level``'s boxes and gids, built afresh from its grids."""
        gids = self._levels[level]
        boxes = BoxArray.from_boxes([self._grids[g].box for g in gids],
                                    ndim=self.domain.ndim)
        return boxes, np.array(gids, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # adjacency (sibling ghost-zone exchange volumes)
    # ------------------------------------------------------------------ #

    def sibling_pairs(self, level: int, ghost: int = 1) -> np.ndarray:
        """Adjacent grid pairs at ``level`` and their ghost-exchange volume.

        Returns an ``(npairs, 3)`` ``int64`` array of rows
        ``(gid_a, gid_b, cells)``, ``gid_a < gid_b``, sorted by
        ``(gid_a, gid_b)``, for each pair of grids within ``ghost`` cells of
        each other.  The volume is the ghost-cell count from
        :meth:`repro.amr.box.Box.shared_face_area`; a pair further apart
        than ``2 * ghost`` on any axis exchanges nothing, so only the
        kernel's ``reach=2*ghost`` pairs are evaluated.
        """
        boxes = self.level_boxes(level)
        ia, ib = boxes.overlap_pairs(reach=2 * ghost)
        area = boxes.shared_face_area_pairs(ia, ib, ghost)
        keep = area > 0
        # the gids ascend, so index order (i < j, sorted) is gid order
        gids = self.level_gids(level)
        return np.stack([gids[ia[keep]], gids[ib[keep]], area[keep]], axis=1)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check every structural invariant; raises :exc:`ValueError` on a
        breach (under ``python -O`` too), naming the first offending grid.

        Intended for tests and debugging -- not called on hot paths.
        """
        for level_idx, level in enumerate(self._levels):
            grids = [self._grids[g] for g in level]
            for g in grids:
                if g.level != level_idx:
                    raise ValueError(f"grid {g.gid} level mismatch")
            boxes, gids = self._pack(level_idx)
            ia, ib = boxes.overlap_pairs()
            if len(ia):
                raise ValueError(
                    f"grids {grids[ia[0]].gid} and {grids[ib[0]].gid} overlap "
                    f"on level {level_idx}"
                )
            # a table is rebuilt only when its version moved
            if not (np.array_equal(self.level_boxes(level_idx).corners, boxes.corners)
                    and np.array_equal(self.level_gids(level_idx), gids)):
                raise ValueError(f"level {level_idx}'s table is stale")
        for g in self._grids.values():
            if g.level > 0:
                parent = self._grids[g.parent_gid]
                if g.gid not in parent.children:
                    raise ValueError(f"grid {g.gid} missing from parent's children")
                if not parent.box.refine(self.refinement_ratio).contains(g.box):
                    raise ValueError(f"grid {g.gid} not nested in parent {parent.gid}")
                if not self.level_domain(g.level).contains(g.box):
                    raise ValueError(f"grid {g.gid} escapes the domain")
            for child in g.children:
                if self._grids[child].parent_gid != g.gid:
                    raise ValueError(f"grid {child} does not name its parent {g.gid}")
        root_cells = sum(g.ncells for g in self.level_grids(0))
        if root_cells != self.domain.ncells:
            raise ValueError("level 0 does not tile the domain")
