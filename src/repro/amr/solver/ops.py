"""Inter-grid data operations: prolongation, restriction, ghost filling.

These are the three data motions of any Berger--Colella code:

* **prolongation** -- interpolate coarse data onto a finer grid (new grids
  after a regrid, and parent-sourced ghost cells);
* **restriction** -- conservatively average fine data back onto the parent
  when a sub-cycle completes;
* **ghost filling** -- before each step, populate a grid's ghost shell from
  overlapping siblings, else from its parent, else from the domain boundary
  condition (outflow/clamp here).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..box import Box
from ..boxarray import BoxArray
from ..hierarchy import GridHierarchy
from .state import GridData

__all__ = ["prolong_piecewise_constant", "restrict_conservative", "fill_ghosts"]


def prolong_piecewise_constant(coarse: np.ndarray, ratio: int) -> np.ndarray:
    """Refine an array by ``ratio`` per axis with piecewise-constant copy.

    Conservative by construction for cell-averaged quantities: every fine
    cell inherits its coarse parent's value, so means are preserved.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    out = coarse
    for axis in range(coarse.ndim):
        out = np.repeat(out, ratio, axis=axis)
    return out


def restrict_conservative(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Coarsen an array by ``ratio`` per axis by block averaging.

    Every axis length must be divisible by ``ratio``.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    for n in fine.shape:
        if n % ratio:
            raise ValueError(f"shape {fine.shape} not divisible by ratio {ratio}")
    out = fine
    for axis in range(fine.ndim):
        n = out.shape[axis]
        new_shape = out.shape[:axis] + (n // ratio, ratio) + out.shape[axis + 1 :]
        out = out.reshape(new_shape).mean(axis=axis + 1)
    return out


def fill_ghosts(
    hierarchy: GridHierarchy,
    level: int,
    data: Mapping[int, GridData],
    parent_data: Mapping[int, GridData],
) -> None:
    """Fill the ghost shells of every grid at ``level``.

    Priority, matching production codes:

    1. copy from overlapping *sibling* interiors (same resolution, exact);
    2. interpolate from the *parent* grid (piecewise-constant prolongation);
    3. domain boundary: clamp to the nearest interior cell (outflow).

    ``data`` maps gid -> GridData for the level being filled; ``parent_data``
    the same for ``level - 1`` (may be empty for level 0, where step 2 is
    skipped and the domain boundary handles everything outside).
    """
    ratio = hierarchy.refinement_ratio
    grids = hierarchy.level_grids(level)
    level_dom = hierarchy.level_domain(level)
    # Sibling-overlap discovery for the whole level in one pair query:
    # ghosted outer box of every grid (its table row grown by its nghost)
    # against every interior.  The pairs come sorted by (grid, other), so
    # each grid's copies below run in level order.
    inner_ba = hierarchy.level_boxes(level)
    nghost = np.array([data[g.gid].nghost for g in grids], dtype=np.int64)
    outer_ba = BoxArray(inner_ba.corners + np.stack([-nghost, nghost], axis=1)[:, :, None])
    rows, cols = outer_ba.overlap_pairs(inner_ba)
    sibling = rows != cols
    rows, cols = rows[sibling], cols[sibling]
    olo = np.maximum(outer_ba.lo[rows], inner_ba.lo[cols])
    ohi = np.minimum(outer_ba.hi[rows], inner_ba.hi[cols])
    for i, grid in enumerate(grids):
        gd = data[grid.gid]
        gd.invalidate_ghosts()
        # --- 1. siblings ------------------------------------------------ #
        start, stop = np.searchsorted(rows, (i, i + 1))
        for k in range(start, stop):
            overlap = Box._unchecked(
                tuple(int(x) for x in olo[k]), tuple(int(x) for x in ohi[k])
            )
            gd.view(overlap)[...] = data[grids[cols[k]].gid].view(overlap)
            gd.mark_valid(overlap)
        # --- 2. parent -------------------------------------------------- #
        if level > 0 and grid.parent_gid in parent_data:
            pd = parent_data[grid.parent_gid]
            for ghost_box in gd.ghost_boxes():
                target = ghost_box.intersection(level_dom)
                if target.is_empty:
                    continue
                # the coarse footprint needed to cover the target
                coarse_box = target.coarsen(ratio).intersection(pd.outer)
                if coarse_box.is_empty:
                    continue
                fine_from_coarse = prolong_piecewise_constant(
                    pd.view(coarse_box), ratio
                )
                fine_box = coarse_box.refine(ratio)
                sub = target.intersection(fine_box)
                if sub.is_empty:
                    continue
                src = fine_from_coarse[sub.slices(origin=fine_box.lo)]
                dst = gd.view(sub)
                mask = ~gd.valid[sub.slices(origin=gd.outer.lo)]
                dst[mask] = src[mask]
                gd.mark_valid(sub)
        # --- 3. domain boundary / leftovers: clamp ----------------------- #
        _clamp_remaining(gd)


def _clamp_remaining(gd: GridData) -> None:
    """Fill still-invalid ghost cells with the nearest valid interior cell.

    This is an outflow (zero-gradient) boundary condition at the domain
    edges and a safe fallback for interior ghost cells no sibling or parent
    covered (possible at coarse-fine corners).
    """
    if gd.valid.all():
        return
    ndim = gd.u.ndim
    ng = gd.nghost
    # iteratively copy inward-neighbour values outward; nghost passes suffice
    for _ in range(ng):
        if gd.valid.all():
            break
        for axis in range(ndim):
            for direction in (1, -1):
                src = [slice(None)] * ndim
                dst = [slice(None)] * ndim
                if direction == 1:
                    src[axis] = slice(0, -1)
                    dst[axis] = slice(1, None)
                else:
                    src[axis] = slice(1, None)
                    dst[axis] = slice(0, -1)
                src_t, dst_t = tuple(src), tuple(dst)
                fillable = ~gd.valid[dst_t] & gd.valid[src_t]
                gd.u[dst_t][fillable] = gd.u[src_t][fillable]
                gd.valid[dst_t] |= fillable
