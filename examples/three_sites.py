#!/usr/bin/env python
"""Three sites: the scheme beyond the paper's two-machine testbed.

The paper's future work: "including more heterogeneous machines [...] into
our experiments."  The scheme's math is group-count agnostic, so here a
tilted shock sweeps a domain partitioned across *three* WAN-connected sites
and the global phase shuffles level-0 grids between all of them.

    python examples/three_sites.py
"""

from __future__ import annotations

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, multi_site_spec
from repro.distsys.events import RedistributionEvent
from repro.harness.report import format_table
from repro.runtime import SAMRRunner


def main() -> None:
    results = {}
    for scheme in map(make_scheme, ("parallel", "distributed")):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(multi_site_spec([2, 2, 2], base_speed=2e4),
                              traffic=ConstantTraffic(0.35))
        if scheme.name == "distributed DLB":
            print(system.describe())
            print()
        results[scheme.name] = SAMRRunner(app, system, scheme).run(5)

    print(
        format_table(
            ["scheme", "total [s]", "compute [s]", "comm [s]", "redistributions"],
            [
                (name, r.total_time, r.compute_time, r.comm_time,
                 r.redistributions)
                for name, r in results.items()
            ],
            title="ShockPool3D across three WAN-connected sites (2+2+2)",
        )
    )
    dist = results["distributed DLB"]
    par = results["parallel DLB"]
    print(f"\nimprovement: {dist.improvement_over(par):.1%}")
    for e in dist.events.of_type(RedistributionEvent):
        print(
            f"  t={e.time:7.2f}s global redistribution: {e.moved_grids} level-0 "
            f"grids ({e.moved_cells} cells) in {e.elapsed:.3f}s"
        )


if __name__ == "__main__":
    main()
