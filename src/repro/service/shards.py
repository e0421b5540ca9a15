"""Shards as level-0 grids: the bridge that lets every DLB scheme route.

The central trick of :mod:`repro.service`: a *shard* -- a contiguous key
range with replicated state -- is represented as a genuine level-0
:class:`~repro.amr.grid.Grid` over a 2-d key-space lattice, tracked by a
genuine :class:`~repro.partition.mapping.GridAssignment`.  Nothing about
the paper's machinery changes:

* a shard's ``ncells`` is its *state size* -- migration cost is
  ``migration_cells() * bytes_per_cell`` shipped over topology routes,
  exactly as for an AMR grid;
* its ``work_per_cell`` is updated each balance interval to the observed
  request load per key (:meth:`~repro.amr.hierarchy.GridHierarchy.set_work_per_cell`),
  so its workload is the shard's measured load and every registered
  weight/decision/partition/local policy reads it through the interfaces
  it already has;
* the global phase's *carve* step becomes a **shard split**: a hot shard's
  key range is cut and the halves are re-owned, with the Zipf popularity
  field re-summed over the new boxes.

Replicas are a pure function of the assignment: replica ``k`` of a shard
is the ``k``-th next processor (cyclically) *within the primary's group*,
so replica fan-out stays intra-group and a migration of the primary
re-derives the whole replica set.  When a group is smaller than the
replication factor the shard simply runs fewer replicas.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..amr.box import Box
from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..distsys.system import DistributedSystem
from ..partition.mapping import GridAssignment
from ..runtime.runner import root_blocks

__all__ = ["ShardMap", "build_shard_hierarchy"]


def build_shard_hierarchy(nshards: int, shard_side: int) -> GridHierarchy:
    """A one-level hierarchy whose level-0 grids are the shard key ranges.

    The key space is the 2-d lattice ``[0, nshards * side) x [0, side)``
    tiled into ``nshards`` equal strips along axis 0 -- every strip is
    splittable (the carve primitive needs >= 2 cells on some axis), strip
    centroids are monotone along axis 0 (the paper's contiguous split sees
    the same geometry it sees in an AMR run), and 2-d centroids give the
    SFC curve keys a genuine two-dimensional locality structure.
    """
    if nshards < 1:
        raise ValueError(f"nshards must be >= 1, got {nshards}")
    if shard_side < 2:
        raise ValueError(f"shard_side must be >= 2, got {shard_side}")
    domain = Box((0, 0), (nshards * shard_side, shard_side))
    hierarchy = GridHierarchy(domain, refinement_ratio=2, max_levels=1)
    hierarchy.create_root_grids(root_blocks(domain, (nshards, 1)), work_per_cell=1.0)
    return hierarchy


class ShardMap:
    """The shard set, its placement and its replica endpoints.

    Wraps the hierarchy + assignment pair.  The shard order is level 0's
    gid table, which the hierarchy rebuilds whenever splits during global
    redistribution create new gids mid-run.
    """

    def __init__(self, hierarchy: GridHierarchy, system: DistributedSystem,
                 replication: int) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.hierarchy = hierarchy
        self.system = system
        self.assignment = GridAssignment(hierarchy, system)
        self.replication = int(replication)

    # ------------------------------------------------------------------ #
    # shard-order views
    # ------------------------------------------------------------------ #

    @property
    def gids(self) -> np.ndarray:
        """Shard gids in ascending order -- the canonical shard order."""
        return self.hierarchy.level_gids(0)

    @property
    def nshards(self) -> int:
        return len(self.gids)

    def grids(self) -> List[Grid]:
        return self.hierarchy.level_grids(0)

    def boxes(self) -> List[Box]:
        return [g.box for g in self.grids()]

    def state_cells(self) -> np.ndarray:
        """State size (cells) per shard, shard order."""
        return self.hierarchy.level_boxes(0).ncells()

    # ------------------------------------------------------------------ #
    # replicas
    # ------------------------------------------------------------------ #

    def replica_matrix(self):
        """``(pids, mask)``: replica endpoints per shard, shard order.

        ``pids`` is ``(S, R)`` int64 -- replica ``k`` of shard ``s`` is
        ``pids[s, k]`` where valid; ``mask`` is ``(S, R)`` bool.  Replica 0
        is always the primary (the assignment's owner).  A group with
        ``n < R`` members yields ``n`` valid replicas.
        """
        S, R = self.nshards, self.replication
        pids = np.zeros((S, R), dtype=np.int64)
        mask = np.zeros((S, R), dtype=bool)
        primary = self.placement()
        primary_group = self.system.pid_groups[primary]
        for g, members in enumerate(self.system.group_pids):
            rows = np.flatnonzero(primary_group == g)
            start = np.searchsorted(members, primary[rows])
            n = min(R, len(members))
            idx = (start[:, None] + np.arange(n)) % len(members)
            pids[rows, :n] = members[idx]
            mask[rows, :n] = True
        return pids, mask

    # ------------------------------------------------------------------ #
    # observed load -> the paper's weight inputs
    # ------------------------------------------------------------------ #

    def update_loads(self, work_by_shard: np.ndarray) -> None:
        """Write observed per-shard work into the shards (shard order).

        Sets each shard's ``work_per_cell`` so its workload equals the
        shard's observed work -- the per-shard load estimate every weight
        policy and the gain/cost gate consume.  A tiny floor keeps
        completely idle shards movable (zero-workload grids would make
        proportional targets degenerate).
        """
        cells = self.state_cells()
        if len(work_by_shard) != len(cells):
            raise ValueError(
                f"{len(work_by_shard)} work entries for {len(cells)} shards"
            )
        work = np.asarray(work_by_shard, dtype=np.float64)
        self.hierarchy.set_work_per_cell(0, np.maximum(work, 1e-9 * cells) / cells)

    def placement(self) -> np.ndarray:
        """Primary pid per shard, shard order: the level-0 owner column,
        a read-only snapshot (for migration diffing)."""
        return self.assignment.owners(0)
