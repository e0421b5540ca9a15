"""Unit tests for the two DLB schemes' policy behaviour.

The paper's central invariants:

* parallel DLB ignores groups -- children can land anywhere;
* distributed DLB never lets a grid leave its group via the local phase
  ("An overloaded processor can migrate its workload to an underloaded
  processor of the same group only") and keeps children with parents
  ("children grids are always located at the same group as their parent
  grids");
* the distributed scheme's global phase is gated by Gain > gamma * Cost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams, SimParams
from repro.core import make_scheme
from repro.core.base import BalanceContext
from repro.core.gain import WorkloadHistory
from repro.distsys import ClusterSimulator, ConstantTraffic, build_system, wan_spec
from repro.distsys.events import GlobalDecisionEvent, RedistributionEvent
from repro.partition import GridAssignment
from repro.runtime import root_blocks


def make_ctx(blocks=(8, 1, 1), n=16, gamma=2.0):
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, 2, 3)
    h.create_root_grids(root_blocks(domain, blocks))
    system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.2))
    ctx = BalanceContext(
        hierarchy=h,
        assignment=GridAssignment(h, system),
        system=system,
        sim=ClusterSimulator(system),
        sim_params=SimParams(),
        scheme_params=SchemeParams(gamma=gamma),
        history=WorkloadHistory(),
    )
    return ctx


class TestParallelDLBPolicy:
    def test_initial_distribution_even(self):
        ctx = make_ctx()
        make_scheme("parallel").initial_distribution(ctx)
        loads = ctx.assignment.level_loads(0)
        assert loads.max() == pytest.approx(loads.min())

    def test_new_grids_scatter_across_groups(self):
        ctx = make_ctx()
        scheme = make_scheme("parallel")
        scheme.initial_distribution(ctx)
        # create 8 children under a single group-0 parent
        parent = next(
            g for g in ctx.hierarchy.level_grids(0)
            if ctx.assignment.group_of(g.gid) == 0
        )
        ref = parent.box.refine(2)
        boxes = [Box((ref.lo[0], ref.lo[1] + 2 * i, ref.lo[2]),
                     (ref.lo[0] + 2, ref.lo[1] + 2 * i + 2, ref.lo[2] + 2))
                 for i in range(8)]
        new = ctx.hierarchy.insert_grids(1, BoxArray.from_boxes(boxes),
                                         np.full(8, parent.gid), 1.0)
        scheme.place_new_grids(ctx, [g.gid for g in new])
        groups = {ctx.assignment.group_of(g.gid) for g in new}
        assert groups == {0, 1}  # group-oblivious placement

    def test_remote_placement_charged(self):
        ctx = make_ctx()
        scheme = make_scheme("parallel")
        scheme.initial_distribution(ctx)
        parent = next(
            g for g in ctx.hierarchy.level_grids(0)
            if ctx.assignment.group_of(g.gid) == 0
        )
        (child,) = ctx.hierarchy.insert_grids(1, BoxArray.from_box(parent.box.refine(2)),
                                              np.array([parent.gid]), 1.0)
        scheme.place_new_grids(ctx, [child.gid])
        # a single child lands on the globally least-loaded processor; the
        # interpolated data may cross the network -> time may be charged
        assert ctx.sim.clock >= 0.0  # placement ran without error
        ctx.assignment.validate()

    def test_local_balance_uses_all_processors(self):
        ctx = make_ctx()
        scheme = make_scheme("parallel")
        scheme.initial_distribution(ctx)
        # skew everything onto pid 0
        gids = ctx.hierarchy.level_gids(0)
        ctx.assignment.assign(0, gids, np.zeros(len(gids), dtype=np.int64))
        scheme.local_balance(ctx, 0, 0.0)
        loads = ctx.assignment.level_loads(0)
        assert loads.max() / (sum(loads.tolist()) / 4) < 1.3

    def test_global_balance_is_noop(self):
        ctx = make_ctx()
        scheme = make_scheme("parallel")
        scheme.initial_distribution(ctx)
        clock = ctx.sim.clock
        scheme.global_balance(ctx, 0.0)
        assert ctx.sim.clock == clock
        assert ctx.sim.log.of_type(GlobalDecisionEvent) == []


class TestDistributedDLBPolicy:
    def test_initial_distribution_contiguous_by_group(self):
        ctx = make_ctx()
        make_scheme("distributed").initial_distribution(ctx)
        # walking slabs along x, group id changes exactly once (contiguous)
        groups = [
            ctx.assignment.group_of(g.gid)
            for g in sorted(ctx.hierarchy.level_grids(0), key=lambda g: g.box.lo)
        ]
        changes = sum(1 for a, b in zip(groups, groups[1:]) if a != b)
        assert changes == 1

    def test_new_grids_stay_in_parent_group(self):
        ctx = make_ctx()
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        for parent in ctx.hierarchy.level_grids(0):
            (child,) = ctx.hierarchy.insert_grids(
                1, BoxArray.from_box(parent.box.refine(2)), np.array([parent.gid]), 1.0)
            scheme.place_new_grids(ctx, [child.gid])
            assert (
                ctx.assignment.group_of(child.gid)
                == ctx.assignment.group_of(parent.gid)
            )

    def test_local_balance_never_crosses_groups(self):
        ctx = make_ctx()
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        # skew group 0's grids onto its first processor
        g0_pids = ctx.system.groups[0].pids
        g0_gids = [g.gid for g in ctx.hierarchy.level_grids(0)
                   if ctx.assignment.group_of(g.gid) == 0]
        ctx.assignment.assign(0, g0_gids, [g0_pids[0]] * len(g0_gids))
        before_groups = {
            g.gid: ctx.assignment.group_of(g.gid)
            for g in ctx.hierarchy.level_grids(0)
        }
        scheme.local_balance(ctx, 0, 0.0)
        after_groups = {
            g.gid: ctx.assignment.group_of(g.gid)
            for g in ctx.hierarchy.level_grids(0)
        }
        assert before_groups == after_groups  # same group before and after
        # but within group 0 the load is now even
        loads = ctx.assignment.level_loads(0)
        g0_loads = [loads[p] for p in g0_pids]
        assert max(g0_loads) / (sum(g0_loads) / len(g0_loads)) < 1.3

    def test_global_balance_requires_history(self):
        ctx = make_ctx()
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        scheme.global_balance(ctx, 0.0)
        ev = ctx.sim.log.of_type(GlobalDecisionEvent)
        assert len(ev) == 1
        assert not ev[0].invoked  # no history yet -> no action

    def _imbalanced_ctx(self, gamma):
        ctx = make_ctx(gamma=gamma)
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        # skew the actual level-0 ownership: 6 of 8 slabs on group 0
        slabs = sorted(ctx.hierarchy.level_grids(0), key=lambda g: g.box.lo)
        ctx.assignment.assign(0, [g.gid for g in slabs],
                              [0 if i < 6 else 2 for i in range(len(slabs))])
        # matching history: group 0 worked 3x harder, steps are expensive
        loads = np.zeros(4)
        loads[0] = 300.0
        loads[2] = 100.0
        ctx.history.record_solve(0, loads)
        ctx.history.end_coarse_step(walltime=100.0)
        return ctx, scheme

    def test_gate_fires_with_cheap_cost(self):
        ctx, scheme = self._imbalanced_ctx(gamma=2.0)
        scheme.global_balance(ctx, 1.0)
        ev = ctx.sim.log.of_type(GlobalDecisionEvent)[-1]
        assert ev.imbalance_detected
        assert ev.invoked
        assert ctx.sim.log.of_type(RedistributionEvent)
        # the redistribution's measured overhead replaced the initial delta
        assert scheme.decision_policy.cost_model.delta != 0.05

    def test_gate_blocked_by_huge_gamma(self):
        ctx, scheme = self._imbalanced_ctx(gamma=1e9)
        scheme.global_balance(ctx, 1.0)
        ev = ctx.sim.log.of_type(GlobalDecisionEvent)[-1]
        assert ev.imbalance_detected
        assert not ev.invoked
        assert not ctx.sim.log.of_type(RedistributionEvent)

    def test_probe_runs_only_when_imbalanced(self):
        ctx = make_ctx()
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        # balanced history
        ctx.history.record_solve(0, np.full(4, 10.0))
        ctx.history.end_coarse_step(10.0)
        scheme.global_balance(ctx, 1.0)
        assert ctx.sim.probe_time == 0.0  # no probe when balanced

    def test_single_group_system_noop(self):
        from repro.distsys import parallel_spec

        system = build_system(parallel_spec(4, base_speed=2e4))
        domain = Box.cube(0, 16, 3)
        h = GridHierarchy(domain, 2, 3)
        h.create_root_grids(root_blocks(domain, (8, 1, 1)))
        ctx = BalanceContext(
            hierarchy=h, assignment=GridAssignment(h, system), system=system,
            sim=ClusterSimulator(system), history=WorkloadHistory(),
        )
        scheme = make_scheme("distributed")
        scheme.initial_distribution(ctx)
        scheme.global_balance(ctx, 0.0)
        assert len(ctx.sim.log) == 0
