"""The hierarchy-level solver driver: Berger--Colella with live data.

:class:`AdvectionDriver` owns a :class:`~repro.amr.hierarchy.GridHierarchy`
and per-grid field data, and implements the integrator hooks so that
:class:`~repro.amr.integrator.SAMRIntegrator` runs the full algorithm with
*real numerics*:

* ``solve``        -- fill ghosts, donor-cell advect every grid of the level;
* ``regrid``       -- re-flag from the live solution (gradient criterion),
  rebuild the finer level, initialize new grids by prolongation from their
  parents and copy over data from the old fine grids where they overlapped;
* ``synchronize``  -- restrict fine data onto parents when a sub-cycle
  completes (conservative averaging) and apply the flux-register
  corrections (:mod:`repro.amr.solver.reflux`), making the composite update
  exactly conservative up to domain-boundary outflow.

This is the ENZO-shaped substrate in miniature: the DLB layer only observes
costs, but this module demonstrates the costs stand for a real adaptive
computation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..box import Box
from ..boxarray import BoxArray
from ..hierarchy import GridHierarchy
from ..integrator import IntegratorHooks, SAMRIntegrator, SubStep
from ..regrid import RegridParams, regrid_level
from .advect import advect_donor_cell_unsplit, cfl_number_unsplit
from .ops import fill_ghosts, prolong_piecewise_constant, restrict_conservative
from .reflux import FluxRegister
from .state import GridData

__all__ = ["AdvectionDriver", "GradientCriterion"]


class GradientCriterion:
    """Refinement criterion: flag cells where the local jump exceeds a
    threshold.

    ``threshold`` is an absolute difference between a cell and any of its
    axis neighbours; it is evaluated on the *live* solution, which is how
    production SAMR codes decide where resolution is needed.
    """

    def __init__(self, threshold: float = 0.1) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = float(threshold)

    def flag(self, u: np.ndarray) -> np.ndarray:
        """Boolean flags over an interior array (no ghosts needed)."""
        flags = np.zeros(u.shape, dtype=bool)
        for axis in range(u.ndim):
            d = np.abs(np.diff(u, axis=axis))
            big = d > self.threshold
            lo = [slice(None)] * u.ndim
            hi = [slice(None)] * u.ndim
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            flags[tuple(lo)] |= big
            flags[tuple(hi)] |= big
        return flags


class _SolutionApplication:
    """Adapter: exposes the driver's live solution through the
    ``AMRApplication`` flags protocol, so the stock regridder works."""

    name = "live-solution"

    def __init__(self, driver: "AdvectionDriver") -> None:
        self.driver = driver

    def flags(self, level: int, box: Box, time: float) -> np.ndarray:
        d = self.driver
        for grid in d.hierarchy.level_grids(level):
            if grid.box == box:
                return d.criterion.flag(d.data[grid.gid].interior)
        # regridder only queries exact grid boxes; anything else is unflagged
        return np.zeros(box.shape, dtype=bool)

    def work_per_cell(self, level: int) -> float:
        return 1.0


class AdvectionDriver(IntegratorHooks):
    """Run linear advection on a self-adapting hierarchy.

    Parameters
    ----------
    domain_cells:
        Level-0 domain size per axis (unit physical cube).
    velocity:
        Constant advection velocity (physical units / time unit).
    initial:
        ``fn(*coords) -> array`` giving u at t=0 (physical cell centres).
    max_levels / refinement_ratio:
        Hierarchy shape.
    dt0:
        Level-0 time step; must satisfy CFL at every level (the per-level
        Courant number is level-independent because dt and dx shrink by the
        same ratio).
    threshold:
        Gradient-jump refinement threshold.
    """

    def __init__(
        self,
        domain_cells: int,
        velocity: Sequence[float],
        initial: Callable[..., np.ndarray],
        ndim: int = 2,
        max_levels: int = 3,
        refinement_ratio: int = 2,
        dt0: Optional[float] = None,
        threshold: float = 0.1,
        regrid_params: Optional[RegridParams] = None,
    ) -> None:
        self.ndim = int(ndim)
        self.velocity = [float(v) for v in velocity]
        if len(self.velocity) != self.ndim:
            raise ValueError("velocity rank mismatch")
        self.domain_cells = int(domain_cells)
        domain = Box((0,) * ndim, (domain_cells,) * ndim)
        self.hierarchy = GridHierarchy(domain, refinement_ratio, max_levels)
        self.hierarchy.create_root_grids(BoxArray.from_box(domain))
        self.criterion = GradientCriterion(threshold)
        self.regrid_params = regrid_params or RegridParams()
        self.initial = initial

        vsum = sum(abs(v) for v in self.velocity) or 1.0
        dx0 = 1.0 / domain_cells
        # default: unsplit CFL 0.8 at every level (dt and dx scale together,
        # so the Courant number is level-independent)
        self.dt0 = float(dt0) if dt0 is not None else 0.8 * dx0 / vsum
        if cfl_number_unsplit(self.velocity, self.dt0, dx0) > 1.0 + 1e-12:
            raise ValueError("dt0 violates the (unsplit) CFL condition on level 0")

        #: gid -> GridData for every live grid
        self.data: Dict[int, GridData] = {}
        #: gid -> face fluxes from the grid's most recent advance
        self._last_fluxes: Dict[int, List[np.ndarray]] = {}
        #: gid -> (box, interior array) snapshot taken just before the
        #: grid's most recent advance; regridding initializes new children
        #: from these time-t values, not the already-advanced parent (the
        #: children advance the same interval themselves)
        self._pre_advance: Dict[int, np.ndarray] = {}
        #: fine level -> flux registers active for the current coarse cycle
        self._registers: Dict[int, List[FluxRegister]] = {}
        self._app = _SolutionApplication(self)
        self.integrator = SAMRIntegrator(self.hierarchy, self, dt0=self.dt0)
        self._initialize()

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def cell_width(self, level: int) -> float:
        return 1.0 / (self.domain_cells * self.hierarchy.refinement_ratio**level)

    def _initialize(self) -> None:
        root = self.hierarchy.level_grids(0)[0]
        gd = GridData(root, nghost=1)
        gd.set_from_function(self.initial, self.cell_width(0))
        self.data[root.gid] = gd
        # adapt the initial condition: regrid every level from live data,
        # initializing fine data from the analytic initial condition so the
        # hierarchy starts sharp
        for level in range(self.hierarchy.max_levels - 1):
            created = regrid_level(
                self.hierarchy, self._app, level, 0.0, self.regrid_params
            )
            for grid in created:
                child = GridData(grid, nghost=1)
                child.set_from_function(self.initial, self.cell_width(grid.level))
                self.data[grid.gid] = child
            self._prune_data()
        # make the composite state consistent: coarse cells covered by fine
        # grids hold the restriction of the fine data (finest level last)
        from .ops import restrict_conservative as _restrict

        ratio = self.hierarchy.refinement_ratio
        for level in range(self.hierarchy.max_levels - 1, 0, -1):
            for grid in self.hierarchy.level_grids(level):
                parent = self.data[grid.parent_gid]
                parent.view(grid.box.coarsen(ratio))[...] = _restrict(
                    self.data[grid.gid].interior, ratio
                )

    def _prune_data(self) -> None:
        stale = [gid for gid in self.data if not self.hierarchy.has_grid(gid)]
        for gid in stale:
            del self.data[gid]
            self._last_fluxes.pop(gid, None)
            self._pre_advance.pop(gid, None)

    # ------------------------------------------------------------------ #
    # IntegratorHooks
    # ------------------------------------------------------------------ #

    def solve(self, step: SubStep) -> None:
        level = step.level
        parent_data = self.data if level > 0 else {}
        fill_ghosts(self.hierarchy, level, self.data, parent_data)
        dx = self.cell_width(level)
        registers = {
            reg.child_gid: reg for reg in self._registers.get(level, [])
        }
        for grid in self.hierarchy.level_grids(level):
            self._pre_advance[grid.gid] = self.data[grid.gid].interior.copy()
            fluxes = advect_donor_cell_unsplit(
                self.data[grid.gid], self.velocity, step.dt, dx
            )
            self._last_fluxes[grid.gid] = fluxes
            reg = registers.get(grid.gid)
            if reg is not None:
                reg.add_fine(fluxes, step.dt)

    def regrid(self, level: int, time: float) -> None:
        # snapshot the old fine level's data before it is destroyed
        fine = level + 1
        old: List[GridData] = [
            self.data[g.gid]
            for g in self.hierarchy.level_grids(fine)
            if g.gid in self.data
        ]
        created = regrid_level(
            self.hierarchy, self._app, level, time, self.regrid_params
        )
        ratio = self.hierarchy.refinement_ratio
        for grid in created:
            gd = GridData(grid, nghost=1)
            # base fill: prolong from the parent's *pre-advance* (time-t)
            # state -- the child will advance the same interval itself
            parent_grid = self.hierarchy.grid(grid.parent_gid)
            pre = self._pre_advance.get(grid.parent_gid)
            if pre is None:
                pre = self.data[grid.parent_gid].interior
            coarse_box = grid.box.coarsen(ratio)
            sel = coarse_box.slices(origin=parent_grid.box.lo)
            gd.interior = prolong_piecewise_constant(
                pre[sel], ratio
            )[grid.box.slices(origin=coarse_box.refine(ratio).lo)]
            # better fill: copy same-resolution data from old fine grids
            for old_gd in old:
                overlap = grid.box.intersection(old_gd.grid.box)
                if not overlap.is_empty:
                    gd.view(overlap)[...] = old_gd.view(overlap)
            self.data[grid.gid] = gd
        self._prune_data()
        # arm flux registers for the new fine level: the just-finished
        # coarse advance left its face fluxes in _last_fluxes
        self._registers[fine] = [
            FluxRegister(
                self.hierarchy, grid.gid, self._last_fluxes,
                dt_coarse=self.integrator.dt(level),
            )
            for grid in created
        ]

    def synchronize(self, level: int, time: float) -> None:
        """Restrict level+1 data onto its parents and reflux.

        Restriction replaces the covered coarse cells with the fine truth;
        the flux registers then correct the *uncovered* coarse cells next to
        the interface, which makes the composite update exactly conservative
        (away from the domain boundary).
        """
        ratio = self.hierarchy.refinement_ratio
        for grid in self.hierarchy.level_grids(level + 1):
            gd = self.data[grid.gid]
            parent = self.data[grid.parent_gid]
            coarse = restrict_conservative(gd.interior, ratio)
            parent.view(grid.box.coarsen(ratio))[...] = coarse
        for reg in self._registers.pop(level + 1, []):
            reg.apply(self.data, self.cell_width(level))

    # ------------------------------------------------------------------ #
    # driving & diagnostics
    # ------------------------------------------------------------------ #

    def run(self, ncoarse_steps: int) -> None:
        self.integrator.run(ncoarse_steps)

    @property
    def time(self) -> float:
        return self.integrator.time

    def total_mass(self) -> float:
        """Integral of u over the domain, counting each region once at its
        finest available resolution (composite-grid mass)."""
        ratio = self.hierarchy.refinement_ratio
        total = 0.0
        for level in range(self.hierarchy.max_levels):
            grids = self.hierarchy.level_grids(level)
            if not grids:
                break
            cell_vol = self.cell_width(level) ** self.ndim
            for grid in grids:
                u = self.data[grid.gid].interior
                mass = u.sum()
                # subtract regions covered by finer grids (counted there)
                for child_gid in grid.children:
                    child = self.hierarchy.grid(child_gid)
                    cover = child.box.coarsen(ratio).intersection(grid.box)
                    mass -= self.data[grid.gid].view(cover).sum()
                total += mass * cell_vol
        return float(total)

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Solution values at physical points, from the finest covering grid.

        ``points`` has shape ``(npoints, ndim)``; returns ``(npoints,)``.
        """
        pts = np.asarray(points, dtype=np.float64)
        out = np.empty(len(pts))
        for i, p in enumerate(pts):
            value = np.nan
            for level in range(self.hierarchy.max_levels):
                h = self.cell_width(level)
                idx = tuple(int(x // h) for x in p)
                for grid in self.hierarchy.level_grids(level):
                    if grid.box.contains_point(idx):
                        gd = self.data[grid.gid]
                        value = gd.view(Box(idx, tuple(i_ + 1 for i_ in idx)))[
                            (0,) * self.ndim
                        ]
                        break
            out[i] = value
        return out
