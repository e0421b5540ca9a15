"""Grid-to-processor assignment and load ledgers.

The :class:`GridAssignment` is the mutable state every DLB scheme operates
on: which processor owns which grid.  It provides the per-processor and
per-group load views the paper's models consume -- ``w^i_proc(t)`` (Eq. 2)
and ``W_group(t)`` (Eq. 3 without the iteration weighting, which the gain
model applies itself).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..distsys.system import DistributedSystem

__all__ = ["GridAssignment"]


class GridAssignment:
    """Mapping from grid id to owning processor id.

    Parameters
    ----------
    hierarchy:
        The grid hierarchy whose grids are being assigned (used for workload
        lookups; the assignment tolerates grids being removed from the
        hierarchy and prunes them lazily).
    system:
        The distributed system providing processor/group structure.
    """

    def __init__(self, hierarchy: GridHierarchy, system: DistributedSystem) -> None:
        self.hierarchy = hierarchy
        self.system = system
        self._owner: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # basic operations
    # ------------------------------------------------------------------ #

    def assign(self, gid: int, pid: int) -> None:
        """Set (or change) the owner of a grid."""
        if not self.hierarchy.has_grid(gid):
            raise KeyError(f"unknown grid {gid}")
        if not 0 <= pid < self.system.nprocs:
            raise ValueError(f"unknown processor {pid}")
        self._owner[gid] = pid

    def unassign(self, gid: int) -> None:
        self._owner.pop(gid, None)

    def pid_of(self, gid: int) -> int:
        """Owner of grid ``gid`` (KeyError if unassigned)."""
        pid = self._owner.get(gid)
        if pid is None:
            raise KeyError(f"grid {gid} is not assigned")
        return pid

    def group_of(self, gid: int) -> int:
        """Group id owning grid ``gid``."""
        return self.system.processor(self.pid_of(gid)).group_id

    def pids_of(self, gids: Sequence[int]) -> np.ndarray:
        """Owners of many grids as one int64 array (message batching).

        KeyError if any grid is unassigned, like :meth:`pid_of`.
        """
        n = len(gids)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        try:
            return np.fromiter(map(self._owner.__getitem__, gids),
                               dtype=np.int64, count=n)
        except KeyError as exc:
            raise KeyError(f"grid {exc.args[0]} is not assigned") from None

    def is_assigned(self, gid: int) -> bool:
        return gid in self._owner

    def prune(self) -> None:
        """Drop assignments of grids no longer in the hierarchy."""
        stale = [gid for gid in self._owner if not self.hierarchy.has_grid(gid)]
        for gid in stale:
            del self._owner[gid]

    # ------------------------------------------------------------------ #
    # load views
    # ------------------------------------------------------------------ #

    def grids_on(self, pid: int, level: Optional[int] = None) -> List[Grid]:
        """Grids owned by ``pid`` (optionally restricted to one level)."""
        out = []
        for gid, owner in self._owner.items():
            if owner != pid or not self.hierarchy.has_grid(gid):
                continue
            g = self.hierarchy.grid(gid)
            if level is None or g.level == level:
                out.append(g)
        out.sort(key=lambda g: g.gid)
        return out

    def proc_load(self, pid: int, level: Optional[int] = None) -> float:
        """Workload (one step at each grid's own level) owned by ``pid``.

        This is the paper's ``w^i_proc`` when ``level`` is given.
        """
        return sum(g.workload for g in self.grids_on(pid, level))

    def level_loads(self, level: int) -> Dict[int, float]:
        """Per-processor workload of one level: pid -> work units.

        Every processor of the system appears (idle processors map to 0.0),
        which is what the bulk-synchronous compute phase needs.
        """
        loads = {pid: 0.0 for pid in range(self.system.nprocs)}
        for g in self.hierarchy.level_grids(level):
            if g.gid in self._owner:
                loads[self._owner[g.gid]] += g.workload
        return loads

    def group_load(self, group_id: int, level: Optional[int] = None) -> float:
        """Total workload owned by the processors of one group."""
        return sum(
            self.proc_load(pid, level) for pid in self.system.groups[group_id].pids
        )

    def group_level_loads(self, level: int) -> Dict[int, float]:
        """Per-group workload of one level: group_id -> work units."""
        loads = {g.group_id: 0.0 for g in self.system.groups}
        for grid in self.hierarchy.level_grids(level):
            if grid.gid in self._owner:
                gid_ = self.system.processor(self._owner[grid.gid]).group_id
                loads[gid_] += grid.workload
        return loads

    # ------------------------------------------------------------------ #
    # consistency
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Every hierarchy grid assigned to exactly one live processor.

        Raises :exc:`ValueError` (under ``python -O`` too) naming the first
        grid that is unassigned or on a pid outside the system.
        """
        for g in self.hierarchy.all_grids():
            pid = self._owner.get(g.gid)
            if pid is None:
                raise ValueError(f"grid {g.gid} is unassigned")
            if not 0 <= pid < self.system.nprocs:
                raise ValueError(f"grid {g.gid} on bad pid {pid}")

    def copy(self) -> "GridAssignment":
        """Shallow copy (same hierarchy/system, independent owner map)."""
        out = GridAssignment(self.hierarchy, self.system)
        out._owner = dict(self._owner)
        return out

    def __len__(self) -> int:
        return len(self._owner)

    def items(self) -> Iterable:
        return self._owner.items()
