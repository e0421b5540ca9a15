#!/usr/bin/env python
"""A heterogeneous federation: the experiment the paper's testbed couldn't run.

Section 4: "Our DLB scheme addresses the heterogeneity of processors by
generating a relative performance weight for each processor" -- but the
paper's machines were identical Origin2000s, so the weights were never
exercised.  Here one group's processors are twice as fast, and we compare:

* weight-aware distributed DLB (the scheme as designed): workload split
  proportional to n_g * p_g;
* weight-blind distributed DLB: physically identical machines, but the
  speed difference is invisible to the scheme (weights all 1.0).

    python examples/heterogeneous_federation.py
"""

from __future__ import annotations

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, mren_wan
from repro.harness.report import format_table
from repro.runtime import SAMRRunner

BASE_SPEED = 2.0e4


def run(aware: bool):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    traffic = ConstantTraffic(0.3)
    if aware:
        # the scheme *sees* the difference as relative performance weights
        system = build_system(
            [2, 2], inter_link=mren_wan(traffic),
            group_weights=[1.0, 2.0], base_speed=BASE_SPEED,
            group_names=["slow-site", "fast-site"],
        )
    else:
        # same hardware, but the scheme believes the groups are equal
        system = build_system(
            [2, 2], inter_link=mren_wan(traffic),
            group_base_speeds=[BASE_SPEED, 2.0 * BASE_SPEED],
            group_names=["slow-site", "fast-site"],
        )
    print(system.describe())
    return SAMRRunner(app, system, make_scheme("distributed")).run(4)


def main() -> None:
    aware = run(aware=True)
    print()
    blind = run(aware=False)
    print()
    print(
        format_table(
            ["variant", "total [s]", "compute [s]", "comm [s]"],
            [
                ("weight-aware", aware.total_time, aware.compute_time, aware.comm_time),
                ("weight-blind", blind.total_time, blind.compute_time, blind.comm_time),
            ],
            title="Distributed DLB on a 1x/2x heterogeneous federation",
        )
    )
    gain = (blind.total_time - aware.total_time) / blind.total_time
    print(
        f"\nknowing the weights buys {gain:.1%}: the proportional split "
        "gives the fast site twice the workload instead of letting it idle "
        "at every bulk-synchronous step."
    )


if __name__ == "__main__":
    main()
