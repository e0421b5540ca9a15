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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

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


def effective_level0_loads(ctx: BalanceContext) -> np.ndarray:
    """Effective (all-levels, iteration-weighted) load of each level-0 grid.

    A level-0 grid "anchors" its subtree: when it changes group, the next
    regrid rebuilds its descendants on the new side.  Its effective load is
    therefore ``sum_i W_i(subtree) * N_iter(i)`` with the sub-iteration
    counts of the last completed coarse step (falling back to the nominal
    ``ratio**level`` before any history exists).

    Returns a ``float64`` array aligned with ``hierarchy.level_gids(0)``.
    Each subtree is summed in pre-order: every grid's ancestor rows, one
    per level down to its own (-1 below it), sorted with one ``lexsort``,
    then one ``bincount`` by root over the contributions in that order.
    """
    rec = ctx.history.last_complete
    hierarchy = ctx.hierarchy
    ratio = hierarchy.refinement_ratio
    iters = (
        rec.level_iterations
        if rec is not None and rec.level_iterations
        else {l: ratio**l for l in range(hierarchy.max_levels)}
    )
    nlevels = max(hierarchy.nlevels, 1)
    nroots = len(hierarchy.level_gids(0))
    #: per level: its ancestor rows, level 0 first, ending with its own
    chains = [[np.arange(nroots)]]
    for level in range(1, nlevels):
        parents = hierarchy.parent_rows(level)
        chains.append([rows[parents] for rows in chains[-1]]
                      + [np.arange(len(parents))])
    keys = np.concatenate([
        np.stack(chain + [np.full(len(chain[0]), -1)] * (nlevels - len(chain)))
        for chain in chains], axis=1)
    contrib = np.concatenate([
        hierarchy.level_workloads(level) * iters.get(level, ratio**level)
        for level in range(nlevels)])
    order = np.lexsort(keys[::-1])
    return np.bincount(keys[0, order], weights=contrib[order], minlength=nroots)


def plan_global_redistribution(
    ctx: BalanceContext, weights: np.ndarray
) -> GlobalPlan:
    """Match donor surpluses to receiver deficits with boundary-near grids.

    Pure planning: no hierarchy or assignment mutation, no time charged.
    Group targets are proportional to the group capacities under the
    pid-indexed ``weights`` -- the distributed scheme passes the weights it
    re-measured at the balance point, so they steer the plan.
    """
    eff = effective_level0_loads(ctx)
    plan = GlobalPlan()
    total = sum(eff.tolist())
    if total <= 0:
        return plan
    system = ctx.system
    ngroups = system.ngroups
    gids = ctx.hierarchy.level_gids(0)
    owners = ctx.assignment.owners(0)
    group_of = system.pid_groups[owners]
    loads = np.bincount(group_of, weights=eff, minlength=ngroups)
    surplus = (loads - group_targets(system, total, weights)).tolist()
    donors = sorted((g for g in range(ngroups) if surplus[g] > 0),
                    key=lambda g: -surplus[g])
    receivers = sorted((g for g in range(ngroups) if surplus[g] < 0),
                       key=lambda g: surplus[g])
    if not donors or not receivers:
        return plan

    boxes = ctx.hierarchy.level_boxes(0)
    lo, hi = boxes.lo, boxes.hi
    centers = (lo + hi) / 2.0
    ncells = boxes.ncells()
    centroids = _group_centroids(group_of, centers, ngroups,
                                 ncells.astype(np.float64))
    splittable = ((hi - lo).max(axis=1) >= 2).tolist()
    # planning never mutates the assignment, so the level-0 loads -- and
    # with them each receiver group's least-loaded pid -- are the same for
    # every query in this plan: compute them once, memoize pids per group
    level0_loads = ctx.assignment.level_loads(0)
    dst_memo: Dict[int, int] = {}
    eff_of, gid_of, owner_of = eff.tolist(), gids.tolist(), owners.tolist()
    cells_of = ncells.tolist()
    planned: set = set()  # gids already claimed by a move or carve
    recv_idx = 0
    deficit = -surplus[receivers[0]]
    for donor in donors:
        need_out = surplus[donor]
        if recv_idx >= len(receivers):
            break
        recv = receivers[recv_idx]
        members = np.flatnonzero(group_of == donor)
        donor_grids = _donor_order(members, gids, centers, centroids[recv])
        gi = 0
        while need_out > 1e-12 and gi < len(donor_grids):
            if deficit <= 1e-12:
                recv_idx += 1
                if recv_idx >= len(receivers):
                    break
                recv = receivers[recv_idx]
                deficit = -surplus[recv]
                donor_grids = _donor_order(members, gids, centers,
                                           centroids[recv])
                gi = 0
                continue
            i = donor_grids[gi]
            gid = gid_of[i]
            if gid in planned:
                gi += 1
                continue
            load = eff_of[i]
            if load <= 0:
                gi += 1
                continue
            amount = min(need_out, deficit)
            src = owner_of[i]
            dst = dst_memo.get(recv)
            if dst is None:
                dst = _least_loaded_pid(system.group_pids[recv], weights,
                                        level0_loads)
                dst_memo[recv] = dst
            if load <= amount * (1.0 + WHOLE_GRID_SLACK):
                plan.moves.append((gid, src, dst))
                plan.migrate_cells += cells_of[i]
                planned.add(gid)
                moved = load
            elif amount >= MIN_CARVE_FRACTION * load and splittable[i]:
                frac = amount / load
                plan.carves.append(CarvePlan(gid, frac, src, dst))
                plan.migrate_cells += int(round(frac * cells_of[i]))
                planned.add(gid)
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
    ngrids_level0 = len(ctx.hierarchy.level_gids(0))
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


def _group_centroids(
    group_of: np.ndarray, centers: np.ndarray, ngroups: int, ncells: np.ndarray
) -> List[Optional[np.ndarray]]:
    """Cell-weighted centroid of each group's level-0 grids (``None`` for a
    group holding none).  ``group_of``, ``centers`` and ``ncells`` are
    aligned with the level-0 grids; ``bincount`` adds them in that order.
    """
    cells = np.bincount(group_of, weights=ncells, minlength=ngroups)
    sums = np.stack([
        np.bincount(group_of, weights=centers[:, d] * ncells,
                    minlength=ngroups)
        for d in range(centers.shape[1])
    ], axis=1)
    held = np.bincount(group_of, minlength=ngroups) > 0
    return [sums[g] / cells[g] if held[g] else None for g in range(ngroups)]


def _donor_order(
    members: np.ndarray,
    gids: np.ndarray,
    centers: np.ndarray,
    toward: Optional[np.ndarray],
) -> List[int]:
    """Donor's level-0 grids (indices ``members`` into the level), nearest
    to the receiver's centroid ``toward`` first, ties by gid (boundary
    shift); by gid alone when the receiver holds no level-0 grid.

    """
    if toward is None:
        return members[np.argsort(gids[members], kind="stable")].tolist()
    dist = _distances(centers[members], toward)
    return members[np.lexsort((gids[members], dist))].tolist()


def _distances(points: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``points`` to ``toward``.

    Bit for bit ``math.sqrt(sum((a - b) ** 2 for a, b in zip(p, toward)))``:
    the per-axis squares add left to right, and ``float_power`` squares
    with libm's ``pow`` as Python's ``**`` does (``x * x`` rounds
    differently for about one value in a thousand).
    """
    sq = np.float_power(points - toward, 2.0)
    acc = sq[:, 0]
    for d in range(1, sq.shape[1]):
        acc = acc + sq[:, d]
    return np.sqrt(acc)


def _least_loaded_pid(
    pids: np.ndarray, weights: np.ndarray, loads: np.ndarray
) -> int:
    """Receiver processor: least weight-normalised level-0 load among the
    group's sorted ``pids``; the first minimum is the lowest pid.

    Under re-measured ``weights`` this steers migrated grids toward the
    group's healthiest processors.  ``loads`` are the level-0 loads the
    planner already holds.
    """
    return int(pids[np.argmin(loads[pids] / weights[pids])])
