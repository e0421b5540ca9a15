"""Grid records: a rectangular patch of cells at one refinement level.

A :class:`Grid` is the unit of work and of migration in every DLB scheme in
this package: schemes assign whole grids to processors and move whole grids
between processors (level-0 grids may additionally be *split* by the global
redistribution phase, producing new grids).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

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


class Grid(NamedTuple):
    """A structured grid patch: an immutable record, fixed when
    :meth:`~repro.amr.hierarchy.GridHierarchy.insert_grids` builds it.

    Its cost, owner and children are not part of it: the grid's row in its
    level's table holds its ``work_per_cell`` and workload, the assignment's
    owner column its processor, and
    :meth:`~repro.amr.hierarchy.GridHierarchy.children` reads its children
    from the next level's parent column.
    """

    #: unique id within the owning hierarchy
    gid: int
    #: refinement level, 0 = coarsest
    level: int
    #: index-space region in level-``level`` coordinates
    box: Box
    #: id of the parent grid one level coarser (``None`` on level 0)
    parent_gid: Optional[int] = None
