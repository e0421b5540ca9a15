"""Splitting level-0 grids: the 'move the boundary slightly' primitive.

The paper's global redistribution (Section 4.4, Fig. 6) shaves a slice of
level-0 workload off the overloaded group: "this step entails moving the
groups' boundaries slightly from underloaded groups to overloaded groups".
When the slice is smaller than a whole level-0 grid, the grid straddling the
boundary must be *split* so a sub-box can migrate.

Splitting is restricted to level 0 on purpose: "only the grids at level 0
are involved in this process and the finer grids do not need to be
redistributed" -- any children the split grid has are dropped and rebuilt by
the next regrid, exactly as the paper describes ("the finer grids would be
reconstructed completely from the grids at level 0").
"""

from __future__ import annotations

from typing import Tuple

from ..amr.boxarray import BoxArray
from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from .mapping import GridAssignment

__all__ = ["split_level0_grid", "carve_workload"]


def split_level0_grid(
    hierarchy: GridHierarchy,
    assignment: GridAssignment,
    gid: int,
    axis: int,
    at: int,
) -> Tuple[Grid, Grid]:
    """Split a level-0 grid in two along ``axis`` at plane ``at``.

    Both halves inherit the original owner (the caller migrates one of them
    afterwards).  Any finer grids nested in the original are removed -- they
    are reconstructed from level 0 by the next regrid.

    Returns the two new grids (low side, high side).
    """
    grid = hierarchy.grid(gid)
    if grid.level != 0:
        raise ValueError(f"only level-0 grids may be split, got level {grid.level}")
    owner = assignment.pid_of(gid)
    halves = BoxArray.from_boxes(grid.box.split(axis, at))
    hierarchy.remove_grid(gid)  # removes the whole subtree
    assignment.prune()
    low, high = hierarchy.insert_grids(0, halves, None, grid.work_per_cell)
    assignment.assign(low.gid, owner)
    assignment.assign(high.gid, owner)
    return low, high


def carve_workload(
    hierarchy: GridHierarchy,
    assignment: GridAssignment,
    gid: int,
    workload: float,
) -> Tuple[Grid, Grid]:
    """Split a level-0 grid so the *low* half carries ~``workload`` units.

    Chooses the longest axis and the lattice plane whose low side comes
    closest to the requested workload.  ``workload`` must be positive and
    less than the grid's total; the split plane is clamped so both halves
    are non-empty.
    """
    grid = hierarchy.grid(gid)
    if not 0 < workload < grid.workload:
        raise ValueError(
            f"workload {workload} must be inside (0, {grid.workload}) for grid {gid}"
        )
    axis = grid.box.longest_axis()
    length = grid.box.shape[axis]
    if length < 2:
        # cannot split a 1-cell-wide axis; try any splittable axis
        for cand in range(grid.box.ndim):
            if grid.box.shape[cand] >= 2:
                axis = cand
                length = grid.box.shape[cand]
                break
        else:
            raise ValueError(f"grid {gid} is too small to split: {grid.box}")
    frac = workload / grid.workload
    offset = round(frac * length)
    offset = min(length - 1, max(1, offset))
    return split_level0_grid(hierarchy, assignment, gid, axis, grid.box.lo[axis] + offset)
