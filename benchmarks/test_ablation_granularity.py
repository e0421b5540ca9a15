"""Ablation -- balancing granularity: how many level-0 grids per processor.

The schemes move whole grids (splitting only at the global boundary), so
the root tiling sets the balancing resolution.  Too few blocks per
processor and neither phase can equalize load; too many and per-grid
overheads (ghost perimeter, bookkeeping) grow.  The paper does not study
this knob; production SAMR codes tune it carefully.
"""

from __future__ import annotations

from conftest import run_once

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.harness.report import format_table
from repro.runtime import SAMRRunner

#: blocks along x for the 16^3 domain with 2+2 processors
BLOCK_COUNTS = ((2, 1, 1), (4, 1, 1), (8, 1, 1), (8, 2, 1), (8, 2, 2))


def sweep():
    rows = []
    for blocks in BLOCK_COUNTS:
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4),
                              traffic=ConstantTraffic(0.45))
        runner = SAMRRunner(app, system, make_scheme("distributed"),
                            blocks_per_axis=blocks)
        r = runner.run(6)
        n = blocks[0] * blocks[1] * blocks[2]
        rows.append((n, r.total_time, r.compute_time, r.redistributions))
    return rows


def test_ablation_granularity(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["level-0 grids", "total [s]", "compute [s]", "redistributions"],
            rows,
            title="Ablation: root-grid granularity (ShockPool3D, WAN, 2+2)",
        )
    )
    by_n = {n: t for n, t, _c, _r in rows}
    # 2 blocks over 4 processors cannot balance: it must be the worst
    worst_allowed = max(t for n, t in by_n.items() if n >= 8)
    assert by_n[2] > worst_allowed
    # the default regime (>= 4 blocks/processor) is stable within 20%
    fine = [t for n, t in by_n.items() if n >= 16]
    assert max(fine) / min(fine) < 1.2
