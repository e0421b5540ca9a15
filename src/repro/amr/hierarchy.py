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

Every grid enters through :meth:`GridHierarchy.insert_grids`, which checks a
batch of boxes as arrays.  Each level has a version, moved only when a grid
joins or leaves it, and a table that every change keeps current: the
level's boxes and gids, and per grid its ``work_per_cell``, its workload
(``ncells * work_per_cell``) and its parent's gid.  An insertion appends its
rows (a level built whole keeps the inserted arrays as its table), a
removal drops its row and a cleared level gets an empty table.
``work_per_cell`` changes only through :meth:`GridHierarchy.set_work_per_cell`,
which moves the level's workload version.  No table is ever packed from the
grids.  The tables are the only whole-level arrays of the runtime.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .box import Box
from .boxarray import BoxArray
from .grid import Grid, GridIdAllocator, check_work_per_cell

__all__ = ["GridHierarchy"]


class _LevelTable(NamedTuple):
    """One level's rows, in :meth:`GridHierarchy.level_grids` order; every
    column is read-only and replaced, never written, when the level
    changes."""

    boxes: BoxArray
    gids: np.ndarray
    work_per_cell: np.ndarray
    workload: np.ndarray
    #: parent gid per row, -1 on level 0
    parents: np.ndarray

    @staticmethod
    def of(boxes: BoxArray, *columns: np.ndarray) -> "_LevelTable":
        """The table of ``boxes`` and ``columns``, made read-only."""
        for column in (boxes.corners, *columns):
            column.flags.writeable = False
        return _LevelTable(boxes, *columns)

    def append(self, rows: "_LevelTable") -> "_LevelTable":
        return _LevelTable.of(
            BoxArray(np.concatenate([self.boxes.corners, rows.boxes.corners])),
            *(np.concatenate([a, b]) for a, b in zip(self[1:], rows[1:])))

    def take(self, keep: np.ndarray) -> "_LevelTable":
        return _LevelTable.of(BoxArray(self.boxes.corners[keep]),
                              *(column[keep] for column in self[1:]))


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
        #: per level: its grids in creation order, the order of its table
        self._levels: List[List[Grid]] = [[] for _ in range(max_levels)]
        self._ids = GridIdAllocator()
        self._versions: List[int] = [0] * max_levels
        self._workload_versions: List[int] = [0] * max_levels
        self._tables = [self._empty_table() for _ in range(max_levels)]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def create_root_grids(self, boxes: BoxArray, work_per_cell: float = 1.0) -> List[Grid]:
        """Create the level-0 grids; ``boxes`` must tile the domain exactly.

        :meth:`insert_grids` checks that they lie inside the domain and are
        disjoint, so covering the domain's cell count means tiling it.
        Returns the created grids in row order.
        """
        if self._levels[0]:
            raise ValueError("root grids already exist")
        total = int(boxes.ncells().sum())
        if total != self.domain.ncells:
            raise ValueError(
                f"root boxes cover {total} cells but the domain has {self.domain.ncells}"
            )
        return self.insert_grids(0, boxes, None, work_per_cell)

    def add_grid(
        self,
        level: int,
        box: Box,
        parent_gid: Optional[int] = None,
        work_per_cell: float = 1.0,
    ) -> Grid:
        """Add one finer grid: a one-row :meth:`insert_grids`."""
        if level == 0:
            raise ValueError("use create_root_grids for level 0")
        parents = None if parent_gid is None else np.array([parent_gid], dtype=np.int64)
        return self.insert_grids(level, BoxArray.from_box(box), parents, work_per_cell)[0]

    def insert_grids(
        self,
        level: int,
        boxes: BoxArray,
        parent_gids: Optional[np.ndarray],
        work_per_cell: float,
    ) -> List[Grid]:
        """Insert one grid per row of ``boxes`` into ``level``: the only way
        a grid enters the hierarchy.  Returns the new grids in row order.

        The batch is checked as arrays before anything changes:
        ``work_per_cell`` is finite and >= 0; every box is non-empty; on
        level 0 it lies inside the domain and ``parent_gids`` is ``None``;
        above it, ``parent_gids[i]`` is a grid of ``level - 1`` whose
        refined box holds box ``i``; and the boxes are disjoint from each
        other and from the level's grids.  A breach raises
        :exc:`ValueError` and leaves the hierarchy as it was.

        Gids are allocated in row order, the level's version moves once
        and the rows (boxes, gids, ``work_per_cell``, workloads and parent
        gids) are appended to the level's table, so an empty level keeps
        the inserted batch as its table.
        """
        if not 0 <= level < self.max_levels:
            raise ValueError(f"level {level} out of range [0, {self.max_levels})")
        n = len(boxes)
        if not n:
            return []
        if boxes.ndim != self.domain.ndim:
            raise ValueError(f"rank mismatch: {self.domain.ndim}-d domain vs "
                             f"{boxes.ndim}-d boxes")
        check_work_per_cell(work_per_cell)
        empty = boxes.is_empty()
        if empty.any():
            raise ValueError(f"empty box {boxes.box(int(np.argmax(empty)))} "
                             f"on level {level}")
        if level == 0:
            if parent_gids is not None:
                raise ValueError("level-0 grids cannot have a parent")
            bounds = BoxArray.from_box(self.domain).corners
        else:
            if parent_gids is None:
                raise ValueError(f"grids at level {level} need parents")
            parent_gids = np.asarray(parent_gids, dtype=np.int64)
            if parent_gids.shape != (n,):
                raise ValueError(f"{n} boxes but parent gids of shape {parent_gids.shape}")
            known = self.level_gids(level - 1)
            rows = np.searchsorted(known, parent_gids)
            found = rows < len(known)
            found[found] = known[rows[found]] == parent_gids[found]
            if not found.all():
                gid = int(parent_gids[np.argmin(found)])
                raise ValueError(f"parent {gid} is at level {self.grid(gid).level}, "
                                 f"expected {level - 1}")
            bounds = self.level_boxes(level - 1).corners[rows] * self.refinement_ratio
        inside = ((bounds[:, 0] <= boxes.lo) & (bounds[:, 1] >= boxes.hi)).all(axis=1)
        if not inside.all():
            k = int(np.argmin(inside))
            if level == 0:
                raise ValueError(f"root box {boxes.box(k)} is not inside domain {self.domain}")
            raise ValueError(
                f"child box {boxes.box(k)} not nested in parent "
                f"{parent_gids[k]}'s refined box {BoxArray(bounds).box(k)}"
            )
        ia, ib = boxes.overlap_pairs()
        if len(ia):
            raise ValueError(f"box {boxes.box(ib[0])} overlaps box {boxes.box(ia[0])} "
                             f"on level {level}")
        old = self._tables[level]
        if len(old.gids):
            ia, ib = boxes.overlap_pairs(old.boxes)
            if len(ia):
                raise ValueError(f"box {boxes.box(ia[0])} overlaps existing grid "
                                 f"{old.gids[ib[0]]} on level {level}")
        # every check passed: allocate in row order, build the grids unchecked
        wpc = float(work_per_cell)
        ncells = boxes.ncells()
        batch = _LevelTable(
            boxes,
            np.arange(n, dtype=np.int64) + self._ids.allocate(n),
            np.full(n, wpc), ncells * wpc,
            np.full(n, -1, dtype=np.int64) if parent_gids is None else parent_gids)
        parents = [None] * n if parent_gids is None else parent_gids.tolist()
        created = [
            Grid._unchecked(gid, level, Box._unchecked(tuple(lo), tuple(hi)),
                            wpc, parent, cells, work)
            for gid, lo, hi, parent, cells, work in zip(
                batch.gids.tolist(), boxes.lo.tolist(), boxes.hi.tolist(),
                parents, ncells.tolist(), batch.workload.tolist())
        ]
        for grid in created:
            self._grids[grid.gid] = grid
            if grid.parent_gid is not None:
                self._grids[grid.parent_gid]._add_child(grid.gid)
        self._levels[level].extend(created)
        self._versions[level] += 1
        self._tables[level] = old.append(batch)
        return created

    def remove_grid(self, gid: int) -> None:
        """Remove a grid and its entire subtree of descendants, dropping
        each one's row from its level's table."""
        grid = self.grid(gid)
        for child in list(grid.children):
            self.remove_grid(child)
        if grid.parent_gid is not None:
            self._grids[grid.parent_gid]._remove_child(gid)
        table = self._tables[grid.level]
        keep = table.gids != gid
        del self._levels[grid.level][int(np.argmin(keep))]
        del self._grids[gid]
        self._versions[grid.level] += 1
        self._tables[grid.level] = table.take(keep)

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
        if cleared:
            # every surviving child link points into the cleared subtree
            for gid in np.unique(self.level_parents(level)).tolist():
                self._grids[gid]._clear_children()
        for lvl in cleared:
            for grid in self._levels[lvl]:
                del self._grids[grid.gid]
            self._levels[lvl] = []
            self._versions[lvl] += 1
            self._tables[lvl] = self._empty_table()

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
        return list(self._levels[level])

    def all_grids(self) -> List[Grid]:
        """Every grid, coarsest level first."""
        return [g for level in self._levels for g in level]

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
        return sum(int(t.boxes.ncells().sum()) for t in self._tables)

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
        key a cache of anything built from one level's rows on it."""
        return self._versions[level]

    def workload_version(self, level: int) -> int:
        """Moves whenever :meth:`set_work_per_cell` rewrites ``level``'s
        ``work_per_cell``, and only then; a cache of the level's workloads
        keys on it and on :meth:`level_version`."""
        return self._workload_versions[level]

    def level_boxes(self, level: int) -> BoxArray:
        """``level``'s boxes in :meth:`level_grids` order, read-only."""
        return self._tables[level].boxes

    def level_gids(self, level: int) -> np.ndarray:
        """``level``'s gids in :meth:`level_grids` order (ascending: ids
        are allocated increasingly and appended), read-only ``int64``."""
        return self._tables[level].gids

    def level_work_per_cell(self, level: int) -> np.ndarray:
        """``level``'s ``work_per_cell`` per row, read-only ``float64``."""
        return self._tables[level].work_per_cell

    def level_workloads(self, level: int) -> np.ndarray:
        """``level``'s workload (``ncells * work_per_cell``) per row,
        read-only ``float64``: each grid's :attr:`Grid.workload`."""
        return self._tables[level].workload

    def level_parents(self, level: int) -> np.ndarray:
        """``level``'s parent gid per row (-1 on level 0), read-only
        ``int64``."""
        return self._tables[level].parents

    def parent_rows(self, level: int) -> np.ndarray:
        """Each row's parent as a row of ``level - 1``'s table."""
        return np.searchsorted(self.level_gids(level - 1), self.level_parents(level))

    def set_work_per_cell(self, level: int, values: np.ndarray) -> None:
        """Set ``level``'s ``work_per_cell``, one value per row: the only
        way a grid's cost changes after it is inserted.

        Every value must be finite and >= 0; otherwise :exc:`ValueError`
        and nothing changes.  The level's workload column, its grids'
        ``work_per_cell`` and ``workload`` and its workload version move
        together.
        """
        table = self._tables[level]
        values = np.array(values, dtype=np.float64)
        if values.shape != table.gids.shape:
            raise ValueError(f"{values.size} values for the {len(table.gids)} "
                             f"grids of level {level}")
        bad = ~(np.isfinite(values) & (values >= 0))
        if bad.any():
            check_work_per_cell(float(values[np.argmax(bad)]))
        workload = table.boxes.ncells() * values
        self._tables[level] = _LevelTable.of(table.boxes, table.gids, values,
                                             workload, table.parents)
        for grid, wpc, work in zip(self._levels[level], values.tolist(),
                                   workload.tolist()):
            grid.work_per_cell = wpc
            grid.workload = work
        self._workload_versions[level] += 1

    def _empty_table(self) -> _LevelTable:
        return _LevelTable.of(BoxArray.from_boxes([], ndim=self.domain.ndim),
                              np.empty(0, dtype=np.int64), np.empty(0),
                              np.empty(0), np.empty(0, dtype=np.int64))

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
        for level_idx, grids in enumerate(self._levels):
            for g in grids:
                if g.level != level_idx:
                    raise ValueError(f"grid {g.gid} level mismatch")
            boxes = BoxArray.from_boxes([g.box for g in grids], ndim=self.domain.ndim)
            ia, ib = boxes.overlap_pairs()
            if len(ia):
                raise ValueError(
                    f"grids {grids[ia[0]].gid} and {grids[ib[0]].gid} overlap "
                    f"on level {level_idx}"
                )
            for g in grids:
                if g.ncells != g.box.ncells or g.workload != g.ncells * g.work_per_cell:
                    raise ValueError(f"grid {g.gid}'s ncells or workload is stale")
            # every change to the level keeps its table current
            fresh = _LevelTable(
                boxes, np.array([g.gid for g in grids], dtype=np.int64),
                np.array([g.work_per_cell for g in grids], dtype=np.float64),
                np.array([g.workload for g in grids], dtype=np.float64),
                np.array([-1 if g.parent_gid is None else g.parent_gid
                          for g in grids], dtype=np.int64))
            table = self._tables[level_idx]
            if not (np.array_equal(table.boxes.corners, fresh.boxes.corners)
                    and all(np.array_equal(a, b) for a, b in zip(table[1:], fresh[1:]))):
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
