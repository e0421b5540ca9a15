"""Grid-to-processor assignment.

The :class:`GridAssignment` is the mutable state every DLB scheme operates
on: which processor owns which grid.  Per level it keeps one ``int64``
owner column aligned with the level's table
(:meth:`~repro.amr.hierarchy.GridHierarchy.level_gids`, -1 where a grid is
unassigned), and an owner version that moves with every :meth:`assign` on
that level.  Its one load view, :meth:`GridAssignment.level_loads`, is the
pid-indexed work of one level that the bulk-synchronous compute phase
charges; the per-group sums of the paper's Eqs. 2-3 are taken from the
recorded history (:meth:`~repro.core.gain.CoarseStepRecord.group_totals`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List

import numpy as np

from ..amr.hierarchy import GridHierarchy
from ..distsys.system import DistributedSystem

__all__ = ["GridAssignment"]


class GridAssignment:
    """Mapping from grid id to owning processor id.

    Parameters
    ----------
    hierarchy:
        The grid hierarchy whose grids are being assigned.  An owner column
        realigns itself with its level's rows when the level's version
        has moved, and forgets the owners of the grids that left.
    system:
        The distributed system providing processor/group structure.
    """

    def __init__(self, hierarchy: GridHierarchy, system: DistributedSystem) -> None:
        self.hierarchy = hierarchy
        self.system = system
        #: gid -> pid, for the O(1) per-grid lookup
        self._owner: Dict[int, int] = {}
        levels = range(hierarchy.max_levels)
        #: per level: the gids its owner column is aligned with, at which
        #: level version, each gid's row, and the column
        self._gids: List[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in levels]
        self._aligned: List[int] = [-1 for _ in levels]
        self._rows: List[Dict[int, int]] = [{} for _ in levels]
        self._columns: List[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in levels]
        self._versions: List[int] = [0 for _ in levels]

    # ------------------------------------------------------------------ #
    # basic operations
    # ------------------------------------------------------------------ #

    def assign(self, gid: int, pid: int) -> None:
        """Set (or change) the owner of a grid: the only writer of the
        owner columns."""
        try:
            level = self.hierarchy.grid(gid).level
        except KeyError:
            raise KeyError(f"unknown grid {gid}") from None
        if not 0 <= pid < self.system.nprocs:
            raise ValueError(f"unknown processor {pid}")
        column = self._columns[level]
        if self._aligned[level] != self.hierarchy.level_version(level):
            column = self._column(level)
        elif not column.flags.writeable:  # handed out by owners(): copy on write
            column = self._columns[level] = column.copy()
        column[self._rows[level][gid]] = pid
        self._owner[gid] = pid
        self._versions[level] += 1

    def pid_of(self, gid: int) -> int:
        """Owner of grid ``gid`` (KeyError if unassigned)."""
        pid = self._owner.get(gid)
        if pid is None:
            raise KeyError(f"grid {gid} is not assigned")
        return pid

    def group_of(self, gid: int) -> int:
        """Group id owning grid ``gid``."""
        return self.system.processor(self.pid_of(gid)).group_id

    def owners(self, level: int) -> np.ndarray:
        """``level``'s owner per row of its table, -1 where unassigned: a
        read-only ``int64`` snapshot (a later :meth:`assign` writes a
        copy)."""
        column = self._column(level)
        column.flags.writeable = False
        return column

    def owner_version(self, level: int) -> int:
        """Moves with every :meth:`assign` to a grid of ``level``; with the
        level's version it keys a cache of the level's owners."""
        return self._versions[level]

    def prune(self) -> None:
        """Realign every level's owner column now, dropping the owners of
        grids no longer in the hierarchy (every read does this for its
        own level)."""
        for level in range(self.hierarchy.max_levels):
            self._column(level)

    def _column(self, level: int) -> np.ndarray:
        """``level``'s owner column, first realigned with the level's rows
        if they changed: surviving grids keep their owners, new ones are
        unassigned and the owners of removed ones are forgotten."""
        version = self.hierarchy.level_version(level)
        if self._aligned[level] == version:
            return self._columns[level]
        gids, old = self.hierarchy.level_gids(level), self._gids[level]
        rows = old.searchsorted(gids)
        kept = rows < len(old)
        kept[kept] = old[rows[kept]] == gids[kept]
        column = np.full(len(gids), -1, dtype=np.int64)
        column[kept] = self._columns[level][rows[kept]]
        gone = np.ones(len(old), dtype=bool)
        gone[rows[kept]] = False
        for gid in old[gone].tolist():
            self._owner.pop(gid, None)
        self._gids[level], self._aligned[level] = gids, version
        self._rows[level] = dict(zip(gids.tolist(), range(len(gids))))
        self._columns[level] = column
        return column

    # ------------------------------------------------------------------ #
    # load view
    # ------------------------------------------------------------------ #

    def level_loads(self, level: int) -> np.ndarray:
        """Per-processor workload of one level: a ``float64`` array of
        work units indexed by pid (idle processors hold 0.0).

        One ``bincount`` over the owner and workload columns, so each
        processor's grids are added in table order; unassigned grids are
        skipped.
        """
        owners = self._column(level)
        assigned = owners >= 0
        return np.bincount(owners[assigned],
                           weights=self.hierarchy.level_workloads(level)[assigned],
                           minlength=self.system.nprocs)

    # ------------------------------------------------------------------ #
    # consistency
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Every hierarchy grid assigned to exactly one live processor, and
        every owner column equal to the per-grid owners.

        Raises :exc:`ValueError` (under ``python -O`` too) naming the first
        grid that is unassigned or on a pid outside the system.
        """
        for level in range(self.hierarchy.max_levels):
            gids = self.hierarchy.level_gids(level)
            owners = np.fromiter(map(self._owner.get, gids.tolist(), repeat(-1)),
                                 dtype=np.int64, count=len(gids))
            bad = (owners < 0) | (owners >= self.system.nprocs)
            if bad.any():
                gid, pid = int(gids[np.argmax(bad)]), int(owners[np.argmax(bad)])
                if pid < 0:
                    raise ValueError(f"grid {gid} is unassigned")
                raise ValueError(f"grid {gid} on bad pid {pid}")
            if not np.array_equal(owners, self._column(level)):
                raise ValueError(f"level {level}'s owner column is stale")

    def copy(self) -> "GridAssignment":
        """Shallow copy (same hierarchy/system, independent owners)."""
        out = GridAssignment(self.hierarchy, self.system)
        out._owner = dict(self._owner)
        out._gids = list(self._gids)
        out._aligned = list(self._aligned)
        out._rows = list(self._rows)
        out._columns = [column.copy() for column in self._columns]
        out._versions = list(self._versions)
        return out

    def __len__(self) -> int:
        return len(self._owner)

    def items(self) -> Iterable:
        return self._owner.items()
