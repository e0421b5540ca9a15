"""Regridding: rebuild a finer level from flags on the level below it.

After each time step at level ``l`` the SAMR algorithm re-examines where
resolution is needed and rebuilds level ``l+1`` (Section 2.1: "The number of
levels, the number of grids, and the locations of the grids change with each
adaptation").  The pipeline implemented here:

1. ask the application to flag cells over every level-``l`` grid;
2. buffer the flags so moving features stay covered between regrids;
3. cluster the flags into efficient boxes (Berger--Rigoutsos);
4. clip each cluster box against the level-``l`` grids so every resulting
   child has exactly one parent (proper nesting by construction);
5. refine the clipped pieces by the refinement ratio and insert them as the
   new level ``l+1`` in one batch (the old level ``l+1`` subtree is
   discarded -- the paper relies on exactly this property in §4.4: after a
   global move of level-0 grids "the finer grids would be reconstructed
   completely from the grids at level 0").

Steps 4--5 (:func:`apply_cluster_boxes`) run on every regrid, live or
replayed from a trace, and always validate: the clip is one
:meth:`~repro.amr.boxarray.BoxArray.overlap_pairs` query, and
:meth:`~repro.amr.hierarchy.GridHierarchy.insert_grids` checks the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .box import Box
from .boxarray import BoxArray
from .clustering import ClusterParams, cluster_flags
from .flagging import FlagField, buffer_flags
from .grid import Grid
from .hierarchy import GridHierarchy

__all__ = ["RegridParams", "regrid_level", "plan_regrid", "apply_cluster_boxes",
           "assemble_flags"]


@dataclass(frozen=True)
class RegridParams:
    """Knobs of the regridding pipeline."""

    cluster: ClusterParams = field(default_factory=ClusterParams)
    buffer_width: int = 1
    #: discard child pieces smaller than this many cells (in coarse cells);
    #: tiny slivers produced by clipping are merged into nothing -- physically
    #: they hold no feature (flags were buffered) and they would flood the
    #: balancer with negligible work units.
    min_piece_cells: int = 1


def assemble_flags(hierarchy: GridHierarchy, app, level: int, time: float) -> FlagField:
    """Collect application flags over every grid at ``level`` into one field.

    The field covers the bounding union of the level's grid boxes; cells not
    covered by any grid stay unflagged (refinement cannot appear where there
    is no parent -- proper nesting).
    """
    grids = hierarchy.level_grids(level)
    if not grids:
        return FlagField.empty(Box(hierarchy.domain.lo, hierarchy.domain.lo))
    boxes = hierarchy.level_boxes(level)
    bound = Box(tuple(boxes.lo.min(axis=0).tolist()), tuple(boxes.hi.max(axis=0).tolist()))
    flags = np.zeros(bound.shape, dtype=bool)
    for g in grids:
        sub = np.asarray(app.flags(level, g.box, time), dtype=bool)
        if sub.shape != g.box.shape:
            raise ValueError(
                f"application returned flags of shape {sub.shape} for box {g.box} "
                f"(expected {g.box.shape})"
            )
        flags[g.box.slices(origin=bound.lo)] = sub
    return FlagField(bound, flags)


def plan_regrid(
    hierarchy: GridHierarchy,
    app,
    coarse_level: int,
    time: float,
    params: Optional[RegridParams] = None,
) -> List[Box]:
    """Steps 1--3 of the pipeline: flags -> buffer -> cluster boxes.

    Returns the cluster boxes in ``coarse_level`` coordinates, *before*
    clipping against the coarse grids.  This is the solver-derived workload
    signal: it depends only on the application's flags, not on how the DLB
    scheme has partitioned the level-0 grids, which is what makes it the
    right unit to record in a workload trace (see ``repro.traces``).
    """
    params = params or RegridParams()
    if coarse_level + 1 >= hierarchy.max_levels:
        return []
    field_ = assemble_flags(hierarchy, app, coarse_level, time)
    if not field_.any:
        return []
    field_ = buffer_flags(field_, params.buffer_width)
    # Mask the buffered flags back inside the existing coarse grids.
    masked = np.zeros_like(field_.flags)
    for g in hierarchy.level_grids(coarse_level):
        sl = g.box.slices(origin=field_.box.lo)
        masked[sl] = field_.flags[sl]
    field_ = FlagField(field_.box, masked)
    if not field_.any:
        return []
    return cluster_flags(field_, params.cluster)


def apply_cluster_boxes(
    hierarchy: GridHierarchy,
    coarse_level: int,
    cluster_boxes: List[Box],
    work_per_cell: float,
    min_piece_cells: int = 1,
) -> List[Grid]:
    """Steps 4--5 of the pipeline: clip, refine and install the fine level.

    Discards the old level ``coarse_level + 1`` subtree, clips every cluster
    box against the level-``coarse_level`` grids, refines the surviving
    pieces and installs them.

    The clip is one :meth:`~repro.amr.boxarray.BoxArray.overlap_pairs`
    query: only the ``(cluster, parent)`` pairs that overlap are
    intersected, and they come sorted cluster-major, parent-minor, which
    is the order new grid ids are allocated in.

    The pieces enter the fine level as one
    :meth:`~repro.amr.hierarchy.GridHierarchy.insert_grids` batch, which
    checks that each nests in its parent's refined box and that they are
    pairwise disjoint, and keeps them as the level's table.  Clipping makes
    nesting hold by construction, but disjointness holds only when the
    cluster boxes are disjoint, which a workload trace cannot promise;
    overlapping cluster boxes raise :exc:`ValueError` naming both pieces
    and the level, and leave the fine level empty.
    """
    fine_level = coarse_level + 1
    if fine_level >= hierarchy.max_levels:
        return []
    # Discard the old fine level (and, transitively, everything finer).
    hierarchy.clear_level(fine_level)
    ratio = hierarchy.refinement_ratio
    pba = hierarchy.level_boxes(coarse_level)
    if not cluster_boxes or not len(pba):
        return []
    cba = BoxArray.from_boxes(cluster_boxes, ndim=hierarchy.domain.ndim)
    ci, pi = cba.overlap_pairs(pba)
    lo = np.maximum(cba.lo[ci], pba.lo[pi])
    hi = np.minimum(cba.hi[ci], pba.hi[pi])
    keep = (hi - lo).prod(axis=1) >= max(1, min_piece_cells)
    pieces = BoxArray(np.stack([lo[keep], hi[keep]], axis=1) * ratio)
    return hierarchy.insert_grids(fine_level, pieces,
                                  hierarchy.level_gids(coarse_level)[pi[keep]],
                                  work_per_cell)


def regrid_level(
    hierarchy: GridHierarchy,
    app,
    coarse_level: int,
    time: float,
    params: Optional[RegridParams] = None,
) -> List[Grid]:
    """Rebuild level ``coarse_level + 1`` from flags on ``coarse_level``.

    Composition of :func:`plan_regrid` (flags -> cluster boxes) and
    :func:`apply_cluster_boxes` (clip -> refine -> install).  Returns the
    newly created grids (empty list if nothing needs refinement or the
    hierarchy is already at its finest allowed level).
    """
    params = params or RegridParams()
    fine_level = coarse_level + 1
    if fine_level >= hierarchy.max_levels:
        return []
    boxes = plan_regrid(hierarchy, app, coarse_level, time, params)
    return apply_cluster_boxes(hierarchy, coarse_level, boxes,
                               app.work_per_cell(fine_level),
                               min_piece_cells=params.min_piece_cells)
