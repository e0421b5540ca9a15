"""Extension -- three WAN-connected sites (paper Section 6 future work).

"Our future work will focus on including more heterogeneous machines and
larger real datasets into our experiments."  The scheme's math is
group-count agnostic; this bench runs the paired comparison on a 2+2+2
federation where every site pair has its own shared OC-3 link.
"""

from __future__ import annotations

from conftest import run_once

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, multi_site_spec
from repro.harness.report import format_table
from repro.runtime import SAMRRunner


def run_pair():
    out = {}
    for scheme in map(make_scheme, ("parallel", "distributed")):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(multi_site_spec([2, 2, 2], base_speed=2e4),
                              traffic=ConstantTraffic(0.35))
        out[scheme.name] = SAMRRunner(app, system, scheme).run(5)
    return out


def test_extension_three_sites(benchmark):
    results = run_once(benchmark, run_pair)
    par, dist = results["parallel DLB"], results["distributed DLB"]
    print()
    print(
        format_table(
            ["scheme", "total [s]", "remote busy [s]", "redistributions"],
            [
                (name, r.total_time, r.remote_comm_busy, r.redistributions)
                for name, r in results.items()
            ],
            title="Extension: three WAN sites (2+2+2), ShockPool3D",
        )
    )
    imp = dist.improvement_over(par)
    print(f"improvement with three sites: {imp:.1%}")
    assert imp > 0
    assert dist.redistributions >= 1
    assert dist.remote_bytes_by_kind.get("parent_child", 0.0) == 0.0
