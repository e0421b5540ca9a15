"""The balancing state of ``core/`` and ``partition/`` as pid-indexed arrays.

Weights, loads, Eqs. 2-3, the global plan, new-grid placement and the
group-local pass used to be Python loops over per-pid dicts.  The
reference functions below keep that code as it was; the hypothesis tests
show that the array paths reproduce it bit for bit (floats by ``==``,
plans and moves by equality) on random federations of 1-32 groups of
1-160 processors, so that most sums cover more than the 8 floats below
which numpy's pairwise sums still equal a left-to-right sum.  The pinned
cases hold one tie per exactness rule: the probe pair, a receiver's
lowest pid and a placement-heap tie.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.grid import Grid
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams, SimParams
from repro.core.base import BalanceContext, Move, execute_moves
from repro.core.gain import WorkloadHistory
from repro.core.global_phase import (
    MIN_CARVE_FRACTION,
    WHOLE_GRID_SLACK,
    CarvePlan,
    GlobalPlan,
    _distances,
    effective_level0_loads,
    plan_global_redistribution,
)
from repro.core.local_phase import lpt_assign, plan_rebalance
from repro.core.policies import (
    ContiguousGroupPartition,
    DiffusionLocal,
    GainCostDecision,
    GlobalGreedyLocal,
    GroupLocal,
    MeasuredWeights,
    NominalWeights,
)
from repro.distsys import (
    BurstyTraffic,
    ClusterSimulator,
    GroupSpec,
    SystemSpec,
    build_system,
)
from repro.distsys.comm import MessageBatch, MessageKind
from repro.faults import CpuLoadFault, FaultSchedule, SlowdownFault
from repro.partition import (
    GridAssignment,
    group_capacities,
    group_targets,
    processor_targets,
    proportional_shares,
)
from repro.runtime import root_blocks

# --------------------------------------------------------------------- #
# per-grid reads of the level tables and owner columns
# --------------------------------------------------------------------- #


def _workloads(h) -> Dict[int, float]:
    """gid -> workload of every grid, level by level in row order."""
    return {gid: w for level in range(h.max_levels)
            for gid, w in zip(h.level_gids(level).tolist(),
                              h.level_workloads(level).tolist())}


def _owner_of(assignment, level) -> Dict[int, int]:
    """gid -> pid of ``level``'s assigned grids, in row order."""
    gids = assignment.hierarchy.level_gids(level).tolist()
    return {gid: pid for gid, pid in zip(gids, assignment.owners(level).tolist())
            if pid >= 0}


def _subtree(h, gid) -> List[Grid]:
    """The grid and all its descendants in pre-order, children ascending."""
    out = [h.grid(gid)]
    for child in h.children(gid).tolist():
        out.extend(_subtree(h, child))
    return out


# --------------------------------------------------------------------- #
# references: the per-pid dict code the arrays replaced
# --------------------------------------------------------------------- #


def _processor_weights_reference(system, time, measured):
    """Former ``NominalWeights`` / ``MeasuredWeights.processor_weights``."""
    if measured:
        return {p.pid: p.weight * p.availability(time) for p in system.processors}
    return {p.pid: p.weight for p in system.processors}


def _proportional_shares_reference(total, capacities):
    """Former ``proportional_shares`` (validation elided)."""
    caps = [float(c) for c in capacities]
    s = sum(caps)
    return [total * c / s for c in caps]


def _group_capacities_reference(system, weights):
    return {g.group_id: sum(weights[pid] for pid in g.pids) for g in system.groups}


def _group_targets_reference(system, total, weights):
    caps = _group_capacities_reference(system, weights)
    shares = _proportional_shares_reference(total, list(caps.values()))
    return dict(zip(caps, shares))


def _processor_targets_reference(system, total, weights):
    procs = system.processors
    shares = _proportional_shares_reference(total, [weights[p.pid] for p in procs])
    return {p.pid: share for p, share in zip(procs, shares)}


def _level_loads_reference(assignment, level):
    """Former ``GridAssignment.level_loads``: pid -> work units."""
    loads = {pid: 0.0 for pid in range(assignment.system.nprocs)}
    owner = _owner_of(assignment, level)
    work = _workloads(assignment.hierarchy)
    for g in assignment.hierarchy.level_grids(level):
        if g.gid in owner:
            loads[owner[g.gid]] += work[g.gid]
    return loads


def _group_totals_reference(system, proc_level_loads, level_iterations):
    """Former ``CoarseStepRecord.group_level_load`` (Eq. 2),
    ``group_total_load`` (Eq. 3) and ``group_totals`` over dict loads."""

    def group_level_load(group_id, level):
        loads = proc_level_loads.get(level, {})
        pids = set(system.groups[group_id].pids)
        return sum(v for pid, v in loads.items() if pid in pids)

    def group_total_load(group_id):
        total = 0.0
        for level, iters in level_iterations.items():
            total += group_level_load(group_id, level) * iters
        return total

    return {g.group_id: group_total_load(g.group_id) for g in system.groups}


def _effective_level0_loads_reference(ctx):
    """Former ``effective_level0_loads``: gid -> effective load."""
    rec = ctx.history.last_complete
    ratio = ctx.hierarchy.refinement_ratio
    iters = (
        rec.level_iterations
        if rec is not None and rec.level_iterations
        else {l: ratio**l for l in range(ctx.hierarchy.max_levels)}
    )
    work = _workloads(ctx.hierarchy)
    out: Dict[int, float] = {}
    for grid in ctx.hierarchy.level_grids(0):
        total = 0.0
        for g in _subtree(ctx.hierarchy, grid.gid):
            total += work[g.gid] * iters.get(g.level, ratio**g.level)
        out[grid.gid] = total
    return out


def _group_centroids_reference(ctx):
    sums: Dict[int, List[float]] = {}
    weights: Dict[int, float] = {}
    ndim = ctx.hierarchy.domain.ndim
    for grid in ctx.hierarchy.level_grids(0):
        g = ctx.assignment.group_of(grid.gid)
        c = grid.box.center()
        w = float(grid.box.ncells)
        if g not in sums:
            sums[g] = [0.0] * ndim
            weights[g] = 0.0
        for d in range(ndim):
            sums[g][d] += c[d] * w
        weights[g] += w
    return {g: tuple(x / weights[g] for x in sums[g]) for g in sums}


def _donor_grids_sorted(grids: List[Grid], toward: Optional[Tuple[float, ...]]):
    if toward is None:
        return sorted(grids, key=lambda g: g.gid)

    def dist(g: Grid) -> float:
        c = g.box.center()
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(c, toward)))

    return sorted(grids, key=lambda g: (dist(g), g.gid))


def _least_loaded_pid(ctx, group_id, weights, loads):
    return min(
        ctx.system.groups[group_id].pids,
        key=lambda pid: (loads[pid] / weights[pid], pid),
    )


def _plan_global_redistribution_reference(ctx, weights):
    """Former ``plan_global_redistribution`` over pid -> weight dicts."""
    eff = _effective_level0_loads_reference(ctx)
    plan = GlobalPlan()
    total = sum(eff.values())
    if total <= 0:
        return plan
    group_of = {gid: ctx.assignment.group_of(gid) for gid in eff}
    loads: Dict[int, float] = {g.group_id: 0.0 for g in ctx.system.groups}
    for gid, load in eff.items():
        loads[group_of[gid]] += load
    targets = _group_targets_reference(ctx.system, total, weights)
    surplus = {g: loads[g] - targets[g] for g in loads}
    donors = sorted((g for g in surplus if surplus[g] > 0), key=lambda g: -surplus[g])
    receivers = sorted((g for g in surplus if surplus[g] < 0), key=lambda g: surplus[g])
    if not donors or not receivers:
        return plan

    centroids = _group_centroids_reference(ctx)
    level0_loads = _level_loads_reference(ctx.assignment, 0)
    dst_memo: Dict[int, int] = {}
    grids_by_group: Dict[int, List[Grid]] = {}
    for grid in ctx.hierarchy.level_grids(0):
        grids_by_group.setdefault(group_of[grid.gid], []).append(grid)
    planned: set = set()
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
                plan.migrate_cells += grid.box.ncells
                planned.add(grid.gid)
                moved = load
            elif amount >= MIN_CARVE_FRACTION * load and max(grid.box.shape) >= 2:
                frac = amount / load
                plan.carves.append(CarvePlan(grid.gid, frac, src, dst))
                plan.migrate_cells += int(round(frac * grid.box.ncells))
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


def _group_place_new_grids_reference(ctx, new_gids, weights):
    """Former ``GroupLocal.place_new_grids`` (``weights`` at the clock)."""
    if not new_gids:
        return
    level = ctx.hierarchy.grid(new_gids[0]).level
    loads = _level_loads_reference(ctx.assignment, level)
    work = _workloads(ctx.hierarchy)
    for gid in sorted(new_gids, key=lambda g: -work[g]):
        grid = ctx.hierarchy.grid(gid)
        parent_group = ctx.system.groups[
            ctx.system.processor(ctx.assignment.pid_of(grid.parent_gid)).group_id
        ]
        pid = min(parent_group.pids, key=lambda p: (loads[p] / weights[p], p))
        ctx.assignment.assign(level, [gid], [pid])
        loads[pid] += work[gid]


def _greedy_place_new_grids_reference(ctx, new_gids, weights):
    """Former ``GlobalGreedyLocal.place_new_grids`` (``weights`` at the
    clock)."""
    if not new_gids:
        return
    level = ctx.hierarchy.grid(new_gids[0]).level
    loads = _level_loads_reference(ctx.assignment, level)
    srcs: List[int] = []
    dsts: List[int] = []
    nbytes: List[float] = []
    work = _workloads(ctx.hierarchy)
    for gid in sorted(new_gids, key=lambda g: -work[g]):
        grid = ctx.hierarchy.grid(gid)
        pid = min(loads, key=lambda p: (loads[p] / weights[p], p))
        ctx.assignment.assign(level, [gid], [pid])
        loads[pid] += work[gid]
        parent_pid = ctx.assignment.pid_of(grid.parent_gid)
        if parent_pid != pid:
            srcs.append(parent_pid)
            dsts.append(pid)
            nbytes.append(grid.box.ncells * ctx.sim_params.bytes_per_cell)
    if srcs:
        ctx.sim.run_comm(
            MessageBatch.of_kind(srcs, dsts, nbytes, MessageKind.MIGRATION),
            level=level, purpose="placement", count_as_balance=True)


def _rebalance_reference(ctx, grids, targets, level):
    work = _workloads(ctx.hierarchy)
    owner_of = {g.gid: ctx.assignment.pid_of(g.gid) for g in grids}
    moves: List[Move] = plan_rebalance(
        {g.gid: work[g.gid] for g in grids}, owner_of, targets,
        tolerance=ctx.scheme_params.local_tolerance,
        max_moves=ctx.scheme_params.max_local_moves,
    )
    execute_moves(ctx, moves, level=level, purpose="local-balance")


def _group_local_balance_reference(ctx, level, weights):
    """Former ``GroupLocal.local_balance``: filter the level once per
    group (``weights`` at the balance time)."""
    grids = ctx.hierarchy.level_grids(level)
    if not grids:
        return
    work = _workloads(ctx.hierarchy)
    for group in ctx.system.groups:
        ggrids = [g for g in grids if ctx.assignment.group_of(g.gid) == group.group_id]
        if not ggrids:
            continue
        gtotal = sum(work[g.gid] for g in ggrids)
        shares = _proportional_shares_reference(
            gtotal, [weights[p.pid] for p in group.processors])
        targets = {p.pid: s for p, s in zip(group.processors, shares)}
        _rebalance_reference(ctx, ggrids, targets, level)


def _contiguous_initial_distribution_reference(ctx, w0):
    """Former ``ContiguousGroupPartition.initial_distribution``."""
    from repro.partition.sfc import contiguous_segments

    grids = ctx.hierarchy.level_grids(0)
    work = _workloads(ctx.hierarchy)
    eff = _effective_level0_loads_reference(ctx)
    total = sum(eff.values())
    if total <= 0:
        total = sum(work[g.gid] for g in grids)
        eff = {g.gid: work[g.gid] for g in grids}
    targets = _group_targets_reference(ctx.system, total, w0)
    gorder = sorted(targets)
    ordered = sorted(grids, key=lambda g: (g.box.lo, g.gid))
    seg = contiguous_segments([eff[g.gid] for g in ordered], [targets[g] for g in gorder])
    grid_group: Dict[int, int] = {}
    for root, si in zip(ordered, seg):
        for g in _subtree(ctx.hierarchy, root.gid):
            grid_group[g.gid] = gorder[si]
    for level in range(ctx.hierarchy.max_levels):
        level_grids = ctx.hierarchy.level_grids(level)
        for group in ctx.system.groups:
            ggrids = [g for g in level_grids if grid_group[g.gid] == group.group_id]
            if not ggrids:
                continue
            gtotal = sum(work[g.gid] for g in ggrids)
            shares = _proportional_shares_reference(
                gtotal, [w0[p.pid] for p in group.processors])
            ptargets = {p.pid: s for p, s in zip(group.processors, shares)}
            placed = lpt_assign({g.gid: work[g.gid] for g in ggrids}, ptargets)
            for gid, pid in placed.items():
                ctx.assignment.assign(level, [gid], [pid])


def _diffusion_targets_reference(loads, weights, sweeps):
    """Former ``DiffusionLocal._targets`` over pid -> value dicts."""
    n = len(loads)
    if n <= 1:
        return dict(loads)
    alpha = 1.0 / n
    norm = {pid: loads[pid] / weights[pid] for pid in loads}
    for _ in range(sweeps):
        total = sum(norm.values())
        norm = {pid: v + alpha * (total - n * v) for pid, v in norm.items()}
    return {pid: norm[pid] * weights[pid] for pid in loads}


# --------------------------------------------------------------------- #
# random federations and hierarchies
# --------------------------------------------------------------------- #

#: work per cell: small integers tie loads and ratios, the rest do not
WORK = st.sampled_from([1.0, 1.0, 2.0, 3.0, 0.1, 0.7, 1.3])


@st.composite
def systems(draw, max_groups=32, max_procs=160):
    """1-32 groups of 1-160 processors with unequal weights, optionally
    under a ``cpu-load`` or ``mixed``-style schedule (a slowdown window on
    one group plus bursty load on single processors)."""
    shape = draw(st.lists(
        st.tuples(st.integers(1, max_procs),
                  st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0, 3.0, 0.7])),
        min_size=1, max_size=max_groups))
    system = build_system(SystemSpec(
        groups=tuple(GroupSpec(nprocs=n, weight=w) for n, w in shape)))
    kind = draw(st.sampled_from([None, "cpu-load", "mixed"]))
    if kind is None:
        return system
    seed = draw(st.integers(0, 99))
    weather = BurstyTraffic(seed=seed, base=0.2, burst=0.75,
                            burst_probability=0.25, bucket_seconds=5.0)
    if kind == "cpu-load":
        faults = [CpuLoadFault(group=draw(st.integers(0, len(shape) - 1)),
                               model=weather)]
    else:
        start = draw(st.floats(0.0, 10.0))
        pids = draw(st.lists(st.integers(0, system.nprocs - 1),
                             min_size=1, max_size=6, unique=True))
        faults = [
            SlowdownFault(group=draw(st.integers(0, len(shape) - 1)),
                          start=start, end=start + 5.0, factor=4.0),
            CpuLoadFault(pids=tuple(pids), model=weather),
        ]
    return FaultSchedule(faults, seed=seed).apply(system)


@st.composite
def cases(draw, max_groups=32, max_procs=160):
    """A system, a three-level hierarchy and the draws that assign it."""
    system = draw(systems(max_groups, max_procs))
    blocks = (draw(st.sampled_from([1, 2, 4, 8])),
              draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([1, 2])))
    nroots = blocks[0] * blocks[1] * blocks[2]
    work = draw(st.lists(WORK, min_size=nroots, max_size=nroots))
    # per root: 0, 1 or 2 children, each with 0, 1 or 2 children
    shape = draw(st.lists(
        st.lists(st.integers(0, 2), max_size=2), min_size=nroots, max_size=nroots))
    nprocs = system.nprocs
    # owners concentrate on a few "hot" processors so that whole groups and
    # many processors sit idle
    hot = draw(st.lists(st.integers(0, nprocs - 1), min_size=1, max_size=12))
    owner_seed = draw(st.integers(0, 2**31 - 1))
    child_work = draw(WORK)
    return system, blocks, work, shape, hot, owner_seed, child_work


def _add(h, level, box, parent_gid, work_per_cell):
    (grid,) = h.insert_grids(level, BoxArray.from_box(box),
                             np.array([parent_gid]), work_per_cell)
    return grid


def build_ctx(case, skip_level: Optional[int] = None, keep_fraction=0.5):
    """Build the drawn context afresh (deterministic, so two calls give
    identical contexts).  Grids of ``skip_level`` are assigned with
    probability ``keep_fraction`` only; the rest stay new."""
    system, blocks, work, shape, hot, owner_seed, child_work = case
    rng = np.random.default_rng(owner_seed)
    domain = Box.cube(0, 16, 3)
    h = GridHierarchy(domain, 2, 3)
    roots = h.create_root_grids(root_blocks(domain, blocks))
    h.set_work_per_cell(0, work)
    for root, kids in zip(roots, shape):
        fine = root.box.refine(2)
        lo, hi = fine.lo, fine.hi
        mid = (lo[0] + hi[0]) // 2
        halves = [Box(lo, (mid,) + hi[1:]), Box((mid,) + lo[1:], hi)]
        for box, grandkids in zip(halves, kids):
            child = _add(h, 1, box, root.gid, child_work)
            gfine = box.refine(2)
            glo, ghi = gfine.lo, gfine.hi
            gmid = (glo[1] + ghi[1]) // 2
            gboxes = [Box(glo, (ghi[0], gmid, ghi[2])),
                      Box((glo[0], gmid, glo[2]), ghi)]
            for gbox in gboxes[:grandkids]:
                _add(h, 2, gbox, child.gid, float(rng.choice([1.0, 2.0, 0.3])))
    a = GridAssignment(h, system)
    for level in range(3):
        parents = _owner_of(a, level - 1) if level else {}
        gids, pids = [], []
        for g in h.level_grids(level):
            if level == skip_level and rng.random() >= keep_fraction:
                continue
            if level > 0 and rng.random() < 0.7:
                pid = parents.get(g.parent_gid, 0)
            else:
                pid = int(rng.choice(hot))
            gids.append(g.gid)
            pids.append(pid)
        a.assign(level, gids, pids)
    ctx = BalanceContext(
        hierarchy=h, assignment=a, system=system,
        sim=ClusterSimulator(system), sim_params=SimParams(),
        scheme_params=SchemeParams(), history=WorkloadHistory(),
    )
    return ctx


def record_history(ctx, rng, sparse=False):
    """One completed coarse step with per-level loads and iterations;
    returns the dict form the former recorder stored."""
    nprocs = ctx.system.nprocs
    as_dicts: Dict[int, Dict[int, float]] = {}
    for level in rng.permutation(3).tolist():
        for _ in range(int(rng.integers(1, 4))):
            loads = np.where(rng.random(nprocs) < 0.5, 0.0,
                             rng.choice([1.0, 2.0, 0.1, 3.7], size=nprocs))
            ctx.history.record_solve(level, loads)
            as_dicts[level] = {
                pid: v for pid, v in enumerate(loads.tolist())
                if not sparse or v != 0.0
            }
    ctx.history.end_coarse_step(float(rng.integers(1, 20)))
    return as_dicts


def owners(ctx):
    """gid -> pid of every assigned grid."""
    return {gid: pid for level in range(ctx.hierarchy.max_levels)
            for gid, pid in _owner_of(ctx.assignment, level).items()}


# --------------------------------------------------------------------- #
# hypothesis comparisons
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(system=systems(), time=st.floats(0.0, 20.0), total=st.floats(0.0, 1e5))
def test_weights_capacities_and_targets_match_reference(system, time, total):
    for measured, policy in ((False, NominalWeights()), (True, MeasuredWeights())):
        weights = policy.processor_weights(system, time)
        ref = _processor_weights_reference(system, time, measured)
        assert weights.dtype == np.float64
        assert weights.tolist() == [ref[p] for p in range(system.nprocs)]
        assert group_capacities(system, weights).tolist() == list(
            _group_capacities_reference(system, ref).values())
        assert group_targets(system, total, weights).tolist() == list(
            _group_targets_reference(system, total, ref).values())
        assert processor_targets(system, total, weights).tolist() == list(
            _processor_targets_reference(system, total, ref).values())


@settings(max_examples=80, deadline=None)
@given(total=st.floats(0.0, 1e6),
       caps=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=300))
def test_proportional_shares_add_left_to_right(total, caps):
    assert proportional_shares(total, caps).tolist() == \
        _proportional_shares_reference(total, caps)


@settings(max_examples=40, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**31 - 1), sparse=st.booleans())
def test_loads_and_group_totals_match_reference(case, seed, sparse):
    ctx = build_ctx(case)
    for level in range(3):
        ref = _level_loads_reference(ctx.assignment, level)
        assert ctx.assignment.level_loads(level).tolist() == list(ref.values())
    as_dicts = record_history(ctx, np.random.default_rng(seed), sparse)
    rec = ctx.history.last_complete
    # the service recorder keeps only non-zero pids: the extra + 0.0 terms
    # of the array sum are exact
    assert rec.group_totals(ctx.system).tolist() == list(
        _group_totals_reference(ctx.system, as_dicts, rec.level_iterations).values())


@settings(max_examples=40, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**31 - 1),
       time=st.floats(0.0, 20.0), history=st.booleans())
def test_effective_loads_and_plan_match_reference(case, seed, time, history):
    ctx = build_ctx(case)
    if history:
        record_history(ctx, np.random.default_rng(seed))
    roots = ctx.hierarchy.level_grids(0)
    ref = _effective_level0_loads_reference(ctx)
    assert effective_level0_loads(ctx).tolist() == [ref[g.gid] for g in roots]
    weights = MeasuredWeights().processor_weights(ctx.system, time)
    ref_weights = _processor_weights_reference(ctx.system, time, measured=True)
    assert plan_global_redistribution(ctx, weights) == \
        _plan_global_redistribution_reference(ctx, ref_weights)


@settings(max_examples=60, deadline=None)
@given(toward=st.tuples(*[st.floats(-1e3, 1e3)] * 3), seed=st.integers(0, 2**31 - 1))
def test_donor_distances_match_python_pow(toward, seed):
    """Donors are ordered by distance: the array path must reproduce the
    former ``math.sqrt(sum((a - b) ** 2 ...))`` values, not just their order."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(-64, 64, size=(500, 3))
    centers = (lo + (lo + rng.integers(1, 9, size=(500, 3)))) / 2.0
    got = _distances(centers, np.array(toward)).tolist()
    assert got == [math.sqrt(sum((a - b) ** 2 for a, b in zip(c, toward)))
                   for c in centers.tolist()]


@settings(max_examples=40, deadline=None)
@given(case=cases(), level=st.sampled_from([1, 2]), time=st.floats(0.0, 20.0),
       keep=st.sampled_from([0.0, 0.5, 0.9]))
def test_place_new_grids_matches_reference(case, level, time, keep):
    for policy, reference in ((GroupLocal(), _group_place_new_grids_reference),
                              (GlobalGreedyLocal(), _greedy_place_new_grids_reference)):
        ctx = build_ctx(case, skip_level=level, keep_fraction=keep)
        ref_ctx = build_ctx(case, skip_level=level, keep_fraction=keep)
        new = [g.gid for g in ctx.hierarchy.level_grids(level)
               if g.gid not in _owner_of(ctx.assignment, level)]
        ctx.sim.clock = ref_ctx.sim.clock = time
        policy.place_new_grids(ctx, new, MeasuredWeights())
        reference(ref_ctx, new, _processor_weights_reference(
            ref_ctx.system, time, measured=True))
        assert owners(ctx) == owners(ref_ctx)
        assert ctx.sim.clock == ref_ctx.sim.clock


@settings(max_examples=40, deadline=None)
@given(case=cases(), level=st.sampled_from([0, 1, 2]), time=st.floats(0.0, 20.0))
def test_group_local_balance_matches_reference(case, level, time):
    ctx, ref_ctx = build_ctx(case), build_ctx(case)
    GroupLocal().local_balance(ctx, level, time, MeasuredWeights())
    _group_local_balance_reference(
        ref_ctx, level, _processor_weights_reference(ref_ctx.system, time, True))
    assert owners(ctx) == owners(ref_ctx)
    assert ctx.sim.clock == ref_ctx.sim.clock
    assert len(ctx.sim.log) == len(ref_ctx.sim.log)


@settings(max_examples=30, deadline=None)
@given(case=cases(max_groups=8, max_procs=40), seed=st.integers(0, 2**31 - 1),
       history=st.booleans())
def test_contiguous_initial_distribution_matches_reference(case, seed, history):
    ctx, ref_ctx = build_ctx(case), build_ctx(case)
    if history:
        record_history(ctx, np.random.default_rng(seed))
        record_history(ref_ctx, np.random.default_rng(seed))
    ContiguousGroupPartition().initial_distribution(ctx, NominalWeights())
    _contiguous_initial_distribution_reference(
        ref_ctx, _processor_weights_reference(ref_ctx.system, 0.0, False))
    assert owners(ctx) == owners(ref_ctx)


@settings(max_examples=60, deadline=None)
@given(loads=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=300),
       sweeps=st.integers(1, 4), data=st.data())
def test_diffusion_targets_match_reference(loads, sweeps, data):
    weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 0.3]),
                                 min_size=len(loads), max_size=len(loads)))
    out = DiffusionLocal(sweeps=sweeps)._targets(
        None, np.array(loads), np.array(weights))
    ref = _diffusion_targets_reference(dict(enumerate(loads)),
                                       dict(enumerate(weights)), sweeps)
    assert out.tolist() == list(ref.values())


# --------------------------------------------------------------------- #
# pinned ties, one per exactness rule
# --------------------------------------------------------------------- #


def _tiny_ctx(groups: Sequence[int], assign: Mapping[int, int]):
    """A 1-D hierarchy of ``len(assign)`` unit-work roots on a system of
    ``groups`` processors per group; ``assign`` maps root index -> pid."""
    system = build_system(SystemSpec(groups=tuple(groups)))
    domain = Box((0,), (len(assign),))
    h = GridHierarchy(domain, 2, 2)
    roots = h.create_root_grids(
        BoxArray.from_boxes([Box((i,), (i + 1,)) for i in range(len(assign))]))
    a = GridAssignment(h, system)
    a.assign(0, [g.gid for g in roots], [assign[i] for i in range(len(roots))])
    return BalanceContext(
        hierarchy=h, assignment=a, system=system, sim=ClusterSimulator(system),
        history=WorkloadHistory(),
    )


def test_probe_pair_takes_highest_max_and_lowest_min():
    """Groups 0 and 2 tie for the largest total, groups 1 and 3 for the
    smallest: the probe runs between groups 2 and 1."""
    ctx = _tiny_ctx([1, 1, 1, 1], {0: 0, 1: 2})
    ctx.history.record_solve(0, np.array([5.0, 1.0, 5.0, 1.0]))
    ctx.history.end_coarse_step(1.0)
    probed: List[Tuple[int, int]] = []

    def probe(a, b):
        probed.append((a, b))
        return 0.0, 0.0

    ctx.sim.probe_inter_link = probe
    GainCostDecision().evaluate(ctx, GlobalPlan(), gain=1.0)
    assert probed == [(2, 1)]


def test_receiver_is_the_lowest_pid_among_tied_ratios():
    """Group 1's pids 2 and 3 tie, first at no load and then at one grid
    each: the moved grids go to pid 2 both times."""
    for assign in ({0: 0, 1: 0, 2: 1, 3: 1},
                   {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 2, 6: 3}):
        ctx = _tiny_ctx([2, 2], assign)
        plan = plan_global_redistribution(
            ctx, NominalWeights().processor_weights(ctx.system, 0.0))
        assert plan == _plan_global_redistribution_reference(
            ctx, _processor_weights_reference(ctx.system, 0.0, False))
        assert plan.moves
        assert {dst for _gid, _src, dst in plan.moves} == {2}


@pytest.mark.parametrize("policy, reference", [
    (GroupLocal(), _group_place_new_grids_reference),
    (GlobalGreedyLocal(), _greedy_place_new_grids_reference),
])
def test_placement_heap_breaks_ratio_ties_to_the_lowest_pid(policy, reference):
    """Pids 0 and 1 of one group each hold one unit of level-1 work: the
    first new grid goes to pid 0, the next to the now lighter pid 1."""
    system = build_system(SystemSpec(groups=(2,)))
    h = GridHierarchy(Box((0,), (4,)), 2, 2)
    roots = h.create_root_grids(BoxArray.from_boxes([Box((0,), (2,)), Box((2,), (4,))]))
    a = GridAssignment(h, system)
    a.assign(0, [roots[0].gid, roots[1].gid], [0, 1])
    a.assign(1, [_add(h, 1, Box((0,), (1,)), roots[0].gid, 1.0).gid,
                 _add(h, 1, Box((4,), (5,)), roots[1].gid, 1.0).gid], [0, 1])
    new = [_add(h, 1, Box((2,), (3,)), roots[0].gid, 1.0).gid,
           _add(h, 1, Box((6,), (7,)), roots[1].gid, 1.0).gid]

    def ctx_of(assignment):
        return BalanceContext(hierarchy=h, assignment=assignment, system=system,
                              sim=ClusterSimulator(system), history=WorkloadHistory())

    ctx, ref = ctx_of(a.copy()), ctx_of(a.copy())
    policy.place_new_grids(ctx, new, NominalWeights())
    reference(ref, new, _processor_weights_reference(system, 0.0, False))
    assert [ctx.assignment.pid_of(g) for g in new] == [0, 1]
    assert owners(ctx) == owners(ref)
