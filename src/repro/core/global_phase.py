"""Global redistribution: shift level-0 workload between groups (Section 4.4).

"During the global redistribution step, the scheme redistributes the
workload by considering the heterogeneity of processors [proportional to
``n_g * p_g``]. [...] Basically, this step entails moving the groups'
boundaries slightly from underloaded groups to overloaded groups so as to
balance the system.  Further, only the grids at level 0 are involved in this
process and the finer grids do not need to be redistributed.  The reason is
that the finer grids would be reconstructed completely from the grids at
level 0 during the following smaller time-steps."

Fig. 6 sizes the moved slice by the *total* (all-levels) workload imbalance:
the shaded amount is ``(WA - WB) / (2 * WA) * W0_A`` -- a fraction of A's
level-0 grids chosen so the refinement they anchor follows them to B.  We
implement that by weighting each level-0 grid with the *effective load* of
its whole subtree (per-level workload times the level's sub-iteration count,
Eq. 3's weighting), planning boundary-nearest whole-grid moves against
capacity-proportional targets, and splitting the final grid when a whole one
would overshoot.  What migrates over the wire is only the level-0 grid data;
the finer grids are dropped and reconstructed by the next regrid, exactly
the paper's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..amr.grid import Grid
from ..distsys.events import RedistributionEvent
from ..partition.proportional import group_targets
from ..partition.splitter import carve_workload
from .base import BalanceContext, Move, execute_moves

__all__ = [
    "GlobalPlan",
    "effective_level0_loads",
    "plan_global_redistribution",
    "execute_global_redistribution",
]

#: a whole-grid move is preferred over a split when it overshoots the
#: remaining need by no more than this fraction of the grid
WHOLE_GRID_SLACK = 0.25
#: never split off a sliver smaller than this fraction of the grid
MIN_CARVE_FRACTION = 0.10


@dataclass(frozen=True)
class CarvePlan:
    """Split ``gid`` so a slice carrying ``fraction`` of its effective load
    migrates from ``src`` to ``dst``."""

    gid: int
    fraction: float
    src: int
    dst: int


@dataclass
class GlobalPlan:
    """Planned global redistribution.

    ``moves`` are whole level-0 grids changing owner; ``carves`` are splits
    resolved at execution time.  ``migrate_cells`` counts the level-0 cells
    that will cross the network -- the ``W`` of Eq. 1.
    """

    moves: List[Move] = field(default_factory=list)
    carves: List[CarvePlan] = field(default_factory=list)
    effective_moved: float = 0.0
    migrate_cells: int = 0

    @property
    def empty(self) -> bool:
        return not self.moves and not self.carves


def effective_level0_loads(ctx: BalanceContext) -> Dict[int, float]:
    """Effective (all-levels, iteration-weighted) load of each level-0 grid.

    A level-0 grid "anchors" its subtree: when it changes group, the next
    regrid rebuilds its descendants on the new side.  Its effective load is
    therefore ``sum_i W_i(subtree) * N_iter(i)`` with the sub-iteration
    counts of the last completed coarse step (falling back to the nominal
    ``ratio**level`` before any history exists).
    """
    rec = ctx.history.last_complete
    ratio = ctx.hierarchy.refinement_ratio
    iters = (
        rec.level_iterations
        if rec is not None and rec.level_iterations
        else {l: ratio**l for l in range(ctx.hierarchy.max_levels)}
    )
    out: Dict[int, float] = {}
    for grid in ctx.hierarchy.level_grids(0):
        total = 0.0
        for g in ctx.hierarchy.subtree(grid.gid):
            total += g.workload * iters.get(g.level, ratio**g.level)
        out[grid.gid] = total
    return out


def plan_global_redistribution(
    ctx: BalanceContext, weights: Mapping[int, float]
) -> GlobalPlan:
    """Match donor surpluses to receiver deficits with boundary-near grids.

    Pure planning: no hierarchy or assignment mutation, no time charged.
    Group targets are proportional to the group capacities under
    ``weights`` (pid -> weight) -- the distributed scheme passes the
    weights it re-measured at the balance point, so they steer the plan.
    """
    eff = effective_level0_loads(ctx)
    plan = GlobalPlan()
    total = sum(eff.values())
    if total <= 0:
        return plan
    group_of = {gid: ctx.assignment.group_of(gid) for gid in eff}
    loads: Dict[int, float] = {g.group_id: 0.0 for g in ctx.system.groups}
    for gid, load in eff.items():
        loads[group_of[gid]] += load
    targets = group_targets(ctx.system, total, weights)
    surplus = {g: loads[g] - targets[g] for g in loads}
    donors = sorted((g for g in surplus if surplus[g] > 0), key=lambda g: -surplus[g])
    receivers = sorted((g for g in surplus if surplus[g] < 0), key=lambda g: surplus[g])
    if not donors or not receivers:
        return plan

    centroids = _group_centroids(ctx)
    # planning never mutates the assignment, so the level-0 loads -- and
    # with them each receiver group's least-loaded pid -- are the same for
    # every query in this plan: compute loads once, memoize pids per group,
    # and bucket the donor grids in a single pass
    level0_loads = ctx.assignment.level_loads(0)
    dst_memo: Dict[int, int] = {}
    grids_by_group: Dict[int, List[Grid]] = {}
    for grid in ctx.hierarchy.level_grids(0):
        grids_by_group.setdefault(group_of[grid.gid], []).append(grid)
    planned: set = set()  # gids already claimed by a move or carve
    recv_idx = 0
    deficit = -surplus[receivers[0]]
    for donor in donors:
        need_out = surplus[donor]
        if recv_idx >= len(receivers):
            break
        recv = receivers[recv_idx]
        donor_grids = _donor_grids_sorted(
            grids_by_group.get(donor, []), centroids.get(recv))
        gi = 0
        while need_out > 1e-12 and gi < len(donor_grids):
            if deficit <= 1e-12:
                recv_idx += 1
                if recv_idx >= len(receivers):
                    break
                recv = receivers[recv_idx]
                deficit = -surplus[recv]
                donor_grids = _donor_grids_sorted(
                    grids_by_group.get(donor, []), centroids.get(recv))
                gi = 0
                continue
            grid = donor_grids[gi]
            if grid.gid in planned:
                gi += 1
                continue
            load = eff[grid.gid]
            if load <= 0:
                gi += 1
                continue
            amount = min(need_out, deficit)
            src = ctx.assignment.pid_of(grid.gid)
            dst = dst_memo.get(recv)
            if dst is None:
                dst = _least_loaded_pid(ctx, recv, weights, level0_loads)
                dst_memo[recv] = dst
            if load <= amount * (1.0 + WHOLE_GRID_SLACK):
                plan.moves.append((grid.gid, src, dst))
                plan.migrate_cells += grid.ncells
                planned.add(grid.gid)
                moved = load
            elif (
                amount >= MIN_CARVE_FRACTION * load
                and max(grid.box.shape) >= 2
            ):
                frac = amount / load
                plan.carves.append(CarvePlan(grid.gid, frac, src, dst))
                plan.migrate_cells += int(round(frac * grid.ncells))
                planned.add(grid.gid)
                moved = amount
            else:
                gi += 1
                continue
            plan.effective_moved += moved
            need_out -= moved
            deficit -= moved
            gi += 1
    return plan


def execute_global_redistribution(
    ctx: BalanceContext, plan: GlobalPlan, predicted_cost: float
) -> Tuple[int, int, float]:
    """Carve, migrate, charge the repartitioning overhead, log the event.

    Returns ``(moved_grids, moved_cells, measured_delta_seconds)`` -- the
    delta is the computational overhead the cost model records for Eq. 1.
    """
    if plan.empty:
        return 0, 0, 0.0
    moves: List[Move] = list(plan.moves)
    for carve in plan.carves:
        grid = ctx.hierarchy.grid(carve.gid)
        workload = carve.fraction * grid.workload
        low, high = carve_workload(ctx.hierarchy, ctx.assignment, carve.gid, workload)
        # carve_workload puts ~`workload` in the low half; that slice crosses
        # the boundary.
        moves.append((low.gid, carve.src, carve.dst))
    t0 = ctx.sim.clock
    nmoved, cells = execute_moves(ctx, moves, level=0, purpose="global-redistribution")
    # Computational overhead delta: partition level-0 grids, rebuild internal
    # data structures, update boundary conditions (Section 4.2).
    ngrids_level0 = len(ctx.hierarchy.level_grids(0))
    delta = (
        ctx.sim_params.repartition_fixed_seconds
        + ctx.sim_params.repartition_seconds_per_grid * ngrids_level0
    )
    ctx.sim.charge_overhead(delta, as_balance=True)
    elapsed = ctx.sim.clock - t0
    ctx.sim.log.record(
        RedistributionEvent(
            time=ctx.sim.clock,
            moved_cells=cells,
            moved_grids=nmoved,
            elapsed=elapsed,
            predicted_cost=predicted_cost,
        )
    )
    return nmoved, cells, delta


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #


def _group_centroids(ctx: BalanceContext) -> Dict[int, Tuple[float, ...]]:
    """Cell-weighted centroid of each group's level-0 grids."""
    sums: Dict[int, List[float]] = {}
    weights: Dict[int, float] = {}
    ndim = ctx.hierarchy.domain.ndim
    for grid in ctx.hierarchy.level_grids(0):
        g = ctx.assignment.group_of(grid.gid)
        c = grid.box.center()
        w = float(grid.ncells)
        if g not in sums:
            sums[g] = [0.0] * ndim
            weights[g] = 0.0
        for d in range(ndim):
            sums[g][d] += c[d] * w
        weights[g] += w
    return {g: tuple(x / weights[g] for x in sums[g]) for g in sums}


def _donor_grids_sorted(
    grids: List[Grid], toward: Optional[Tuple[float, ...]]
) -> List[Grid]:
    """Donor's level-0 grids, nearest-to-receiver first (boundary shift).

    ``grids`` is the donor group's pre-bucketed level-0 grid list (in
    hierarchy order, as the planner collects it once per plan).
    """
    if toward is None:
        return sorted(grids, key=lambda g: g.gid)

    def dist(g: Grid) -> float:
        c = g.box.center()
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(c, toward)))

    return sorted(grids, key=lambda g: (dist(g), g.gid))


def _least_loaded_pid(
    ctx: BalanceContext,
    group_id: int,
    weights: Mapping[int, float],
    loads: Mapping[int, float],
) -> int:
    """Receiver processor: least weight-normalised level-0 load in group.

    Under re-measured ``weights`` this steers migrated grids toward the
    group's healthiest processors.  ``loads`` are the level-0 loads the
    planner already holds.
    """
    return min(
        ctx.system.groups[group_id].pids,
        key=lambda pid: (loads[pid] / weights[pid], pid),
    )
