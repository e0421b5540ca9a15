"""Application protocol: the physics driving refinement.

The DLB scheme never inspects the solver's numerics -- only *where* work
appears.  An :class:`AMRApplication` therefore reduces to a time-dependent
refinement-criterion: given a level, a box at that level's resolution and a
simulation time, return the boolean flag field (True = this cell needs a
finer grid).

The two datasets the paper evaluates (Section 5) are characterized purely by
their adaptive behaviour:

* **ShockPool3D** -- "simulate the movement of a shock wave (i.e., a plane)
  that is slightly tilted with respect to the edges of the computational
  domain, so more and more grids are created along the moving shock wave
  plane";
* **AMR64** -- "simulate the formation of a cluster of galaxies, so many
  grids are randomly distributed across the whole computational domain".

Concrete implementations in this package generate those behaviours
analytically, which preserves exactly what the load balancer observes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..box import Box

__all__ = ["AMRApplication"]


class AMRApplication:
    """Base class for synthetic SAMR applications.

    Parameters
    ----------
    domain_cells:
        Level-0 domain size per axis (the domain is a cube
        ``[0, domain_cells)^ndim`` in level-0 index space and the unit cube
        in physical space).
    refinement_ratio:
        Mesh refinement factor between levels.
    max_levels:
        Number of levels the hierarchy may use.
    ndim:
        Spatial dimensionality (the paper's datasets are 3-D).
    """

    #: human-readable dataset name (subclasses override)
    name: str = "application"

    def __init__(
        self,
        domain_cells: int = 32,
        refinement_ratio: int = 2,
        max_levels: int = 4,
        ndim: int = 3,
    ) -> None:
        if domain_cells < 2:
            raise ValueError(f"domain_cells must be >= 2, got {domain_cells}")
        if ndim < 1:
            raise ValueError(f"ndim must be >= 1, got {ndim}")
        self.domain_cells = int(domain_cells)
        self.refinement_ratio = int(refinement_ratio)
        self.max_levels = int(max_levels)
        self.ndim = int(ndim)
        self.domain = Box((0,) * ndim, (domain_cells,) * ndim)

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #

    def cells_per_axis(self, level: int) -> int:
        """Domain resolution (cells per axis) at ``level``."""
        return self.domain_cells * self.refinement_ratio**level

    def cell_width(self, level: int) -> float:
        """Physical width of one cell at ``level`` (domain = unit cube)."""
        return 1.0 / self.cells_per_axis(level)

    def cell_centers(self, level: int, box: Box) -> Tuple[np.ndarray, ...]:
        """Per-axis physical cell-centre coordinates, broadcastable.

        Returns ``ndim`` arrays; array ``d`` has shape ``(1,..,n_d,..,1)`` so
        that NumPy broadcasting evaluates any separable/arithmetic criterion
        over the whole box without materializing a dense meshgrid.
        """
        h = self.cell_width(level)
        out = []
        for d in range(self.ndim):
            coords = (np.arange(box.lo[d], box.hi[d], dtype=np.float64) + 0.5) * h
            shape = [1] * self.ndim
            shape[d] = len(coords)
            out.append(coords.reshape(shape))
        return tuple(out)

    # ------------------------------------------------------------------ #
    # protocol to implement
    # ------------------------------------------------------------------ #

    def flags(self, level: int, box: Box, time: float) -> np.ndarray:
        """Boolean flag field of shape ``box.shape`` for cells of ``box``.

        ``box`` is expressed in level-``level`` index coordinates.  True
        means "this cell needs refinement to level ``level + 1``".
        """
        raise NotImplementedError

    def work_per_cell(self, level: int) -> float:
        """Solver work units per cell per step at ``level``.

        Default: uniform cost.  Subclasses model heavier physics (e.g.
        AMR64's elliptic solve + particles) with larger values.
        """
        return 1.0

    def describe(self) -> str:
        """One-line description for reports."""
        return (
            f"{self.name}: {self.domain_cells}^{self.ndim} root cells, "
            f"ratio {self.refinement_ratio}, up to {self.max_levels} levels"
        )
