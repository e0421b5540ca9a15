"""Grid objects: a rectangular patch of cells at one refinement level.

A :class:`Grid` is the unit of work and of migration in every DLB scheme in
this package: schemes assign whole grids to processors and move whole grids
between processors (level-0 grids may additionally be *split* by the global
redistribution phase, producing new grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .box import Box

__all__ = ["Grid", "GridIdAllocator", "check_work_per_cell"]


def check_work_per_cell(value: float) -> None:
    """Raise :exc:`ValueError` unless ``value`` is finite and >= 0: a NaN
    or infinite cost would flow into every load sum."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"work_per_cell must be finite and >= 0, got {value}")


class GridIdAllocator:
    """Monotonically increasing grid-id source.

    Each :class:`~repro.amr.hierarchy.GridHierarchy` owns one allocator so
    grid ids are unique within a run and deterministic across runs.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = int(start)

    def allocate(self, count: int = 1) -> int:
        """The first of ``count`` consecutive fresh ids."""
        gid = self._next
        self._next += count
        return gid


@dataclass
class Grid:
    """A structured grid patch.

    Parameters
    ----------
    gid:
        Unique id within the owning hierarchy.
    level:
        Refinement level, 0 = coarsest.
    box:
        Index-space region *in level-``level`` coordinates*.
    work_per_cell:
        Work units needed to advance one cell by one time step at this
        grid's level.  Uniform within a grid (SAMR solvers apply the same
        stencil everywhere in a patch); may differ between grids, which is
        how applications express spatially varying solver cost.
    parent_gid:
        Id of the parent grid one level coarser (``None`` for level 0).

    ``ncells`` and ``workload`` are values fixed when the grid is built.  In
    a hierarchy, ``work_per_cell`` and ``workload`` change only through
    :meth:`~repro.amr.hierarchy.GridHierarchy.set_work_per_cell`, which
    keeps them equal to the level's columns.
    """

    gid: int
    level: int
    box: Box
    work_per_cell: float = 1.0
    parent_gid: Optional[int] = None
    _children: list = field(default_factory=list, repr=False)
    #: number of cells in the grid
    ncells: int = field(init=False, repr=False, compare=False)
    #: work units to advance the grid one time step at its own level: the
    #: :math:`w^i_{proc}(t)` building block of the paper's gain model (Eq. 2)
    workload: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        check_work_per_cell(self.work_per_cell)
        if self.box.is_empty:
            raise ValueError(f"grid {self.gid} has an empty box {self.box}")
        if self.level == 0 and self.parent_gid is not None:
            raise ValueError("level-0 grids cannot have a parent")
        if self.level > 0 and self.parent_gid is None:
            raise ValueError(f"grid {self.gid} at level {self.level} needs a parent")
        self.ncells = self.box.ncells
        self.workload = self.ncells * self.work_per_cell

    @classmethod
    def _unchecked(cls, gid: int, level: int, box: Box, work_per_cell: float,
                   parent_gid: Optional[int], ncells: int, workload: float) -> "Grid":
        """Construct without validation, as :meth:`Box._unchecked` does:
        :meth:`~repro.amr.hierarchy.GridHierarchy.insert_grids` checks a
        whole batch as arrays first and computes ``ncells`` and
        ``workload`` as columns."""
        grid = object.__new__(cls)
        grid.__dict__.update(gid=gid, level=level, box=box,
                             work_per_cell=work_per_cell,
                             parent_gid=parent_gid, _children=[],
                             ncells=ncells, workload=workload)
        return grid

    # ------------------------------------------------------------------ #

    @property
    def children(self) -> tuple:
        """Ids of the grids one level finer nested in this grid."""
        return tuple(self._children)

    def _add_child(self, child_gid: int) -> None:
        if child_gid in self._children:
            raise ValueError(f"grid {child_gid} is already a child of {self.gid}")
        self._children.append(child_gid)

    def _remove_child(self, child_gid: int) -> None:
        self._children.remove(child_gid)

    def _clear_children(self) -> None:
        self._children.clear()

    # ------------------------------------------------------------------ #
    # communication-volume proxy
    # ------------------------------------------------------------------ #

    def migration_cells(self) -> int:
        """Cells that must move over the network when the grid migrates."""
        return self.ncells

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grid(gid={self.gid}, level={self.level}, box={self.box}, "
            f"work/cell={self.work_per_cell})"
        )
