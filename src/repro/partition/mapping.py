"""Grid-to-processor assignment.

The :class:`GridAssignment` is the mutable state every DLB scheme operates
on: which processor owns which grid.  Its one load view,
:meth:`GridAssignment.level_loads`, is the pid-indexed work of one level
that the bulk-synchronous compute phase charges; the per-group sums of the
paper's Eqs. 2-3 are taken from the recorded history
(:meth:`~repro.core.gain.CoarseStepRecord.group_totals`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

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

    def prune(self) -> None:
        """Drop assignments of grids no longer in the hierarchy."""
        stale = [gid for gid in self._owner if not self.hierarchy.has_grid(gid)]
        for gid in stale:
            del self._owner[gid]

    # ------------------------------------------------------------------ #
    # load view
    # ------------------------------------------------------------------ #

    def level_loads(self, level: int) -> np.ndarray:
        """Per-processor workload of one level: a ``float64`` array of
        work units indexed by pid (idle processors hold 0.0).

        Each processor's grids are added in hierarchy order (``bincount``
        adds in input order); unassigned grids are skipped.
        """
        owner = self._owner
        pids: List[int] = []
        works: List[float] = []
        for g in self.hierarchy.level_grids(level):
            pid = owner.get(g.gid)
            if pid is not None:
                pids.append(pid)
                works.append(g.workload)
        return np.bincount(np.array(pids, dtype=np.int64),
                           weights=np.array(works, dtype=np.float64),
                           minlength=self.system.nprocs)

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
