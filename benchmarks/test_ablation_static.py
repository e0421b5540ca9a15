"""Ablation -- the value of dynamic balancing at all.

The paper compares two *dynamic* schemes.  This ablation adds the implied
lower bound: a static distribution that is never corrected.  As the shock
sweeps the domain, refinement piles onto the processors that own its path
and the bulk-synchronous steps serialize on them.
"""

from __future__ import annotations

from conftest import run_once

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.harness.report import format_table
from repro.runtime import SAMRRunner


def run_all():
    out = {}
    for name, scheme in (
        ("static (no DLB)", make_scheme("static")),
        ("parallel DLB", make_scheme("parallel")),
        ("distributed DLB", make_scheme("distributed")),
    ):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4),
                              traffic=ConstantTraffic(0.45))
        out[name] = SAMRRunner(app, system, scheme).run(6)
    return out


def test_ablation_static(benchmark):
    results = run_once(benchmark, run_all)
    print()
    print(
        format_table(
            ["scheme", "total [s]", "compute [s]", "comm [s]"],
            [
                (name, r.total_time, r.compute_time, r.comm_time)
                for name, r in results.items()
            ],
            title="Ablation: value of DLB (ShockPool3D, WAN, 2+2, 6 steps)",
        )
    )
    static = results["static (no DLB)"]
    par = results["parallel DLB"]
    dist = results["distributed DLB"]
    # any dynamic balancing beats none on a moving workload ...
    assert dist.total_time < static.total_time
    # ... and the network-aware scheme beats the network-oblivious one
    assert dist.total_time < par.total_time
    # static compute is the worst: imbalance accumulates unchecked
    assert static.compute_time > dist.compute_time
