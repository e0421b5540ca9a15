"""Extension -- four-way scheme comparison across the paper's related work.

The paper compares only against its own parallel DLB.  Its related-work
section names the alternatives; this bench runs them head to head on the
WAN system at three scales:

* ``static``      -- distribute once, never correct (lower bound);
* ``diffusion``   -- Cybenko-style neighbourhood averaging [7]/[9],
  group-oblivious, with parent-local placement of new grids;
* ``parallel``    -- the paper's baseline (ICPP'01), group-oblivious even
  balancing including placement;
* ``distributed`` -- the paper's contribution.

Expected shape: the distributed scheme beats the paper's parallel baseline
everywhere.  Two findings worth reporting honestly: (a) diffusion with
parent-local placement -- which accidentally shares the paper's key insight
that children should start local -- is competitive at moderate scale; (b) a
*scattered* static decomposition is strong at large scale on this workload,
because LPT sprinkles every processor's level-0 blocks across the whole
domain and a front that sweeps the whole domain then loads everyone evenly
(the classic cyclic-distribution effect).  Neither alternative controls
remote parent-child traffic (diffusion) or can react to persistent
imbalance (static, see the heterogeneous ablation) -- but they sharpen
where the paper's scheme actually earns its win: against the *parallel DLB*
deployed on federations, which is precisely the paper's claim.
"""

from __future__ import annotations

from conftest import run_once

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.harness.report import format_table
from repro.runtime import SAMRRunner

SCHEMES = ("static", "diffusion", "parallel", "distributed")
CONFIGS = (2, 4, 8)


def run_matrix():
    rows = {}
    for n in CONFIGS:
        for name in SCHEMES:
            app = ShockPool3D(domain_cells=16, max_levels=3)
            system = build_system(wan_spec(n, base_speed=2e4),
                                  traffic=ConstantTraffic(0.45))
            rows[(n, name)] = SAMRRunner(app, system, make_scheme(name)).run(5)
    return rows


def test_extension_scheme_comparison(benchmark):
    results = run_once(benchmark, run_matrix)
    print()
    table = []
    for n in CONFIGS:
        for name in SCHEMES:
            r = results[(n, name)]
            table.append(
                (
                    f"{n}+{n}",
                    name,
                    r.total_time,
                    r.compute_time,
                    r.comm_time,
                    f"{r.remote_bytes_by_kind.get('parent_child', 0.0) / 1e6:.1f}",
                )
            )
    print(
        format_table(
            ["config", "scheme", "total [s]", "compute [s]", "comm [s]",
             "remote parent-child [MB]"],
            table,
            title="Extension: four DLB schemes on the WAN system (ShockPool3D)",
        )
    )
    for n in CONFIGS:
        dist = results[(n, "distributed")]
        # beats the paper's baseline (the paper's actual claim) at every scale
        assert dist.total_time < results[(n, "parallel")].total_time
        # never emits parent-child bytes over the WAN
        assert dist.remote_bytes_by_kind.get("parent_child", 0.0) == 0.0
        # dynamic balancing keeps compute tighter than no balancing at all
        assert dist.compute_time <= results[(n, "static")].compute_time * 1.02
    # group-oblivious schemes leak parent-child over the WAN somewhere
    leaked = sum(
        results[(n, s)].remote_bytes_by_kind.get("parent_child", 0.0)
        for n in CONFIGS
        for s in SCHEMES
        if s != "distributed"
    )
    assert leaked > 0
