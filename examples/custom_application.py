#!/usr/bin/env python
"""Writing your own SAMR application: a colliding-fronts workload.

The DLB layer only needs to know *where* your physics wants resolution.
Subclass :class:`repro.amr.applications.AMRApplication`, implement
``flags(level, box, time)`` (and optionally ``work_per_cell``), and every
part of this package -- runner, schemes, harness -- works with it.

This example defines two shock fronts that start at opposite ends of the
domain and run toward each other: the workload is balanced between the
groups at first, collides in the middle (brief symmetric peak), and the
fronts then separate again.  Watch the gain/cost gate react.

    python examples/custom_application.py
"""

from __future__ import annotations

import numpy as np

from repro.amr.applications import AMRApplication
from repro.amr.box import Box
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.distsys.events import GlobalDecisionEvent
from repro.harness.report import format_table
from repro.runtime import SAMRRunner


class CollidingFronts(AMRApplication):
    """Two plane fronts approaching each other along x."""

    name = "CollidingFronts"

    def __init__(self, domain_cells=16, max_levels=3, speed=0.05,
                 thickness_cells=1.5, **kw):
        super().__init__(domain_cells=domain_cells, max_levels=max_levels, **kw)
        self.speed = float(speed)
        self.thickness_cells = float(thickness_cells)

    def front_positions(self, time: float):
        left = 0.15 + self.speed * time    # moving right
        right = 0.85 - self.speed * time   # moving left
        return left, right

    def flags(self, level: int, box: Box, time: float) -> np.ndarray:
        (x,) = self.cell_centers(level, box)[:1]
        left, right = self.front_positions(time)
        half = self.thickness_cells * self.cell_width(level)
        near = (np.abs(x - left) <= half) | (np.abs(x - right) <= half)
        return np.broadcast_to(near, box.shape).copy()

    def work_per_cell(self, level: int) -> float:
        return 1.0


def main() -> None:
    results = {}
    for scheme in map(make_scheme, ("parallel", "distributed")):
        app = CollidingFronts(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.4))
        results[scheme.name] = SAMRRunner(app, system, scheme).run(6)

    print(
        format_table(
            ["scheme", "total [s]", "compute [s]", "comm [s]", "redistributions"],
            [
                (name, r.total_time, r.compute_time, r.comm_time,
                 r.redistributions)
                for name, r in results.items()
            ],
            title="CollidingFronts on the WAN system (2+2)",
        )
    )
    dist = results["distributed DLB"]
    par = results["parallel DLB"]
    print(f"\nimprovement: {dist.improvement_over(par):.1%}")
    print("\ngate decisions over the run (symmetric workload -> small gain):")
    for d in dist.events.of_type(GlobalDecisionEvent):
        verdict = "INVOKE" if d.invoked else "skip"
        print(f"  t={d.time:7.2f}s gain={d.gain:.3f} cost={d.cost:.3f} -> {verdict}")


if __name__ == "__main__":
    main()
