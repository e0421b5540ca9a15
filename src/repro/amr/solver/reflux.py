"""Flux registers: conservative coarse-fine coupling (refluxing).

The last ingredient of a conservative Berger--Colella scheme.  When a fine
grid covers part of a coarse grid, the coarse cells *outside* the fine
patch were updated with the coarse flux through the interface, while the
covered region is later overwritten by restriction of fine data that was
updated with the (time-resolved) fine fluxes.  The mismatch breaks
conservation unless the outside cells are corrected:

    delta(face) = dt_c * F_coarse(face) - sum_substeps dt_f * <F_fine>(face)

    u(outside cell on the LOW  side) += delta / dx_c
    u(outside cell on the HIGH side) -= delta / dx_c

where ``<F_fine>`` is the area-average of the ``r^(ndim-1)`` fine-face
fluxes under one coarse face.  Corrections are skipped where the outside
cell is itself covered by another fine grid (a fine-fine interface -- both
sides are advanced at fine resolution) and at domain boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

from ..box import Box
from ..boxarray import BoxArray
from ..hierarchy import GridHierarchy
from .state import GridData

__all__ = ["FluxRegister"]


@dataclass
class _Side:
    """One interface slab of one child grid: accumulated flux mismatch."""

    axis: int
    high: bool
    #: coarse cells just outside the child footprint on this side (level-l
    #: cell coordinates); empty when the child touches the domain boundary
    outside: Box
    #: accumulated ``dt*flux`` mismatch per coarse face, shaped like
    #: ``outside`` (one face per outside cell)
    delta: np.ndarray


class FluxRegister:
    """Flux mismatch accumulator for one child grid over one coarse step.

    Lifecycle (driven by :class:`~repro.amr.solver.driver.AdvectionDriver`):

    1. ``__init__`` right after the coarse advance, seeding every interface
       face with ``+dt_c * F_coarse``;
    2. :meth:`add_fine` after each fine sub-step, subtracting
       ``dt_f * <F_fine>``;
    3. :meth:`apply` at the synchronization point, correcting the coarse
       cells outside the child.
    """

    def __init__(
        self,
        hierarchy: GridHierarchy,
        child_gid: int,
        parent_fluxes: Mapping[int, List[np.ndarray]],
        dt_coarse: float,
    ) -> None:
        self.hierarchy = hierarchy
        self.child_gid = child_gid
        child = hierarchy.grid(child_gid)
        self.ratio = hierarchy.refinement_ratio
        self.coarse_level = child.level - 1
        self.footprint = child.box.coarsen(self.ratio)
        level_dom = hierarchy.level_domain(self.coarse_level)
        self.sides: List[_Side] = []
        parent = hierarchy.grid(child.parent_gid)
        fluxes = parent_fluxes[parent.gid]
        ndim = self.footprint.ndim
        for axis in range(ndim):
            for high in (False, True):
                outside = self._outside_box(axis, high)
                if outside.is_empty or not level_dom.contains(outside):
                    continue
                delta = dt_coarse * self._coarse_face_fluxes(
                    parent, fluxes, axis, high
                )
                self.sides.append(
                    _Side(axis=axis, high=high, outside=outside, delta=delta)
                )

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #

    def _outside_box(self, axis: int, high: bool) -> Box:
        """Coarse cells hugging the footprint on one side (may leave the
        domain; caller filters)."""
        k = self.footprint
        lo = list(k.lo)
        hi = list(k.hi)
        if high:
            lo[axis] = k.hi[axis]
            hi[axis] = k.hi[axis] + 1
        else:
            lo[axis] = k.lo[axis] - 1
            hi[axis] = k.lo[axis]
        return Box(tuple(lo), tuple(hi))

    def _coarse_face_fluxes(
        self, parent, fluxes: List[np.ndarray], axis: int, high: bool
    ) -> np.ndarray:
        """Parent's flux values on this side's interface faces.

        The axis-``d`` flux array spans faces ``parent.box.lo[d] ..
        parent.box.hi[d]`` (inclusive); the interface face index is the
        footprint's lo (low side) or hi (high side) along ``axis``.
        """
        k = self.footprint
        face_index = (k.hi[axis] if high else k.lo[axis]) - parent.box.lo[axis]
        sel: List[slice] = []
        for d in range(k.ndim):
            if d == axis:
                sel.append(slice(face_index, face_index + 1))
            else:
                sel.append(
                    slice(k.lo[d] - parent.box.lo[d], k.hi[d] - parent.box.lo[d])
                )
        return fluxes[axis][tuple(sel)].copy()

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #

    def add_fine(self, child_fluxes: List[np.ndarray], dt_fine: float) -> None:
        """Subtract one fine sub-step's area-averaged interface fluxes."""
        r = self.ratio
        child = self.hierarchy.grid(self.child_gid)
        nfine = [s for s in child.box.shape]
        for side in self.sides:
            axis = side.axis
            flux = child_fluxes[axis]
            # interface fine faces: index 0 (low) or n (high) along `axis`
            sel: List[slice] = []
            for d in range(child.box.ndim):
                if d == axis:
                    sel.append(slice(nfine[d], nfine[d] + 1) if side.high
                               else slice(0, 1))
                else:
                    sel.append(slice(None))
            fine_faces = flux[tuple(sel)]
            # average r^(ndim-1) fine faces per coarse face
            avg = fine_faces
            for d in range(child.box.ndim):
                if d == axis:
                    continue
                shape = list(avg.shape)
                n = shape[d] // r
                new_shape = shape[:d] + [n, r] + shape[d + 1 :]
                avg = avg.reshape(new_shape).mean(axis=d + 1)
            side.delta -= dt_fine * avg

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #

    def apply(
        self,
        coarse_data: Mapping[int, GridData],
        dx_coarse: float,
    ) -> None:
        """Correct the coarse cells outside the child's footprint.

        Cells covered by *any* grid of the child's level are skipped
        (fine-fine interfaces are already consistent), as are cells not
        owned by any coarse grid (cannot happen in a well-formed hierarchy,
        but guarded).
        """
        if not self.sides:
            return
        h = self.hierarchy
        child = h.grid(self.child_gid)
        # Overlap discovery in two pair queries sorted by (side, grid): every
        # side slab against every coarsened fine footprint (covered mask) and
        # every coarse grid (ownership).
        outside_ba = BoxArray.from_boxes([s.outside for s in self.sides])
        fine_ba = h.level_boxes(child.level).coarsen(self.ratio)
        coarse_ba = h.level_boxes(self.coarse_level)
        coarse_gids = h.level_gids(self.coarse_level).tolist()
        cov_side, cov_j = outside_ba.overlap_pairs(fine_ba)
        cov_lo = np.maximum(outside_ba.lo[cov_side], fine_ba.lo[cov_j])
        cov_hi = np.minimum(outside_ba.hi[cov_side], fine_ba.hi[cov_j])
        own_side, own_j = outside_ba.overlap_pairs(coarse_ba)
        own_lo = np.maximum(outside_ba.lo[own_side], coarse_ba.lo[own_j])
        own_hi = np.minimum(outside_ba.hi[own_side], coarse_ba.hi[own_j])
        for si, side in enumerate(self.sides):
            sign = -1.0 if side.high else 1.0
            # mask out outside-cells covered by other fine grids
            covered = np.zeros(side.outside.shape, dtype=bool)
            for k in range(*np.searchsorted(cov_side, (si, si + 1))):
                overlap = Box._unchecked(
                    tuple(int(x) for x in cov_lo[k]),
                    tuple(int(x) for x in cov_hi[k]),
                )
                covered[overlap.slices(origin=side.outside.lo)] = True
            correction = sign * side.delta / dx_coarse
            # distribute the correction to whichever coarse grids own the cells
            for k in range(*np.searchsorted(own_side, (si, si + 1))):
                coarse_gid = coarse_gids[own_j[k]]
                if coarse_gid not in coarse_data:
                    continue
                overlap = Box._unchecked(
                    tuple(int(x) for x in own_lo[k]),
                    tuple(int(x) for x in own_hi[k]),
                )
                local = overlap.slices(origin=side.outside.lo)
                mask = ~covered[local]
                if not mask.any():
                    continue
                view = coarse_data[coarse_gid].view(overlap)
                view[mask] += correction[local][mask]
