"""Ablation -- processor heterogeneity (paper Sections 4 and 6).

The scheme "addresses the heterogeneity of processors by generating a
relative performance weight for each processor", but the paper's testbed was
homogeneous ("the compute nodes used in the experiments [...] have the same
performance").  This bench runs the experiment the paper could not: one
group has processors twice as fast as the other.

Two runs on *physically identical* federations:

* weight-aware: the speed difference is expressed as weights the scheme can
  see (capacity-proportional shares apply);
* weight-blind: the same speed difference is hidden in the processors'
  base speed, weights all 1.0 -- the scheme balances as if homogeneous.
"""

from __future__ import annotations

from conftest import run_once

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, GroupSpec, SystemSpec, build_system
from repro.harness.report import format_table
from repro.runtime import SAMRRunner

SPEED = 2.0e4


def run_heterogeneous(aware: bool):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    traffic = ConstantTraffic(0.3)
    if aware:
        groups = (GroupSpec(nprocs=2, name="slow", weight=1.0),
                  GroupSpec(nprocs=2, name="fast", weight=2.0))
    else:
        groups = (GroupSpec(nprocs=2, name="slow", base_speed=SPEED),
                  GroupSpec(nprocs=2, name="fast", base_speed=2.0 * SPEED))
    spec = SystemSpec(groups=groups, inter_link="mren-wan", base_speed=SPEED)
    system = build_system(spec, traffic=traffic)
    return SAMRRunner(app, system, make_scheme("distributed")).run(4)


def sweep():
    return {"aware": run_heterogeneous(True), "blind": run_heterogeneous(False)}


def test_ablation_heterogeneous(benchmark):
    results = run_once(benchmark, sweep)
    aware, blind = results["aware"], results["blind"]
    print()
    print(
        format_table(
            ["variant", "exec time [s]", "compute [s]", "comm [s]", "redis"],
            [
                ("weight-aware", aware.total_time, aware.compute_time,
                 aware.comm_time, aware.redistributions),
                ("weight-blind", blind.total_time, blind.compute_time,
                 blind.comm_time, blind.redistributions),
            ],
            title="Ablation: heterogeneous processors (group B 2x faster)",
        )
    )
    imp = (blind.total_time - aware.total_time) / blind.total_time
    print(f"weight-aware improvement over weight-blind: {imp * 100:.1f}%")
    # knowing the weights must pay: proportional shares keep the fast group
    # busy instead of waiting on the slow one
    assert aware.total_time < blind.total_time
