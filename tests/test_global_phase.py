"""Unit tests for global-redistribution planning and execution (Section 4.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams, SimParams
from repro.core.base import BalanceContext
from repro.core.gain import WorkloadHistory
from repro.core.global_phase import (
    effective_level0_loads,
    execute_global_redistribution,
    plan_global_redistribution,
)
from repro.core.policies import NominalWeights
from repro.distsys import ClusterSimulator, ConstantTraffic, build_system, wan_spec
from repro.distsys.events import RedistributionEvent
from repro.partition import GridAssignment
from repro.runtime import root_blocks


def make_ctx(blocks=(8, 1, 1), n=16, assign_split=4):
    """A 2-group WAN context with the first `assign_split` root slabs on
    group 0 and the rest on group 1."""
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, 2, 3)
    roots = h.create_root_grids(root_blocks(domain, blocks))
    system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.0))
    a = GridAssignment(h, system)
    for i, g in enumerate(roots):
        a.assign(g.gid, 0 if i < assign_split else 2)
    ctx = BalanceContext(
        hierarchy=h, assignment=a, system=system,
        sim=ClusterSimulator(system),
        sim_params=SimParams(), scheme_params=SchemeParams(),
        history=WorkloadHistory(),
    )
    return ctx, roots


def nominal(ctx):
    """The context's processors at their nominal weights."""
    return NominalWeights().processor_weights(ctx.system, ctx.sim.clock)


class TestEffectiveLoads:
    def test_no_children_equals_level0_workload_times_iter(self):
        ctx, roots = make_ctx()
        eff = effective_level0_loads(ctx)
        # no history: N_iter(0) falls back to ratio^0 == 1; the array is
        # aligned with the level-0 grids
        assert eff.tolist() == pytest.approx([g.workload for g in roots])

    def test_subtree_weighted_by_nominal_iterations(self):
        ctx, roots = make_ctx()
        child = ctx.hierarchy.add_grid(1, Box((0, 0, 0), (4, 4, 4)), roots[0].gid)
        ctx.assignment.assign(child.gid, 0)
        eff = effective_level0_loads(ctx)
        # level 1 runs ratio^1 = 2 sub-iterations per coarse step
        assert eff[0] == pytest.approx(roots[0].workload + 2 * child.workload)

    def test_history_iterations_override_nominal(self):
        ctx, roots = make_ctx()
        child = ctx.hierarchy.add_grid(1, Box((0, 0, 0), (4, 4, 4)), roots[0].gid)
        ctx.assignment.assign(child.gid, 0)
        loads = np.zeros(ctx.system.nprocs)
        loads[0] = 1.0
        ctx.history.record_solve(0, loads)
        for _ in range(5):
            ctx.history.record_solve(1, loads)
        ctx.history.end_coarse_step(1.0)
        eff = effective_level0_loads(ctx)
        assert eff[0] == pytest.approx(roots[0].workload + 5 * child.workload)


class TestPlan:
    def test_balanced_plan_empty(self):
        ctx, _ = make_ctx(assign_split=4)  # 4/4 split, uniform loads
        assert plan_global_redistribution(ctx, nominal(ctx)).empty

    def test_imbalanced_plan_moves_from_donor(self):
        ctx, roots = make_ctx(assign_split=6)  # 6 slabs on group 0, 2 on group 1
        plan = plan_global_redistribution(ctx, nominal(ctx))
        assert not plan.empty
        for gid, src, dst in plan.moves:
            assert ctx.assignment.group_of(gid) == 0  # donor is group 0
            assert ctx.system.processor(dst).group_id == 1
        assert plan.migrate_cells > 0

    def test_plan_moves_boundary_grids_first(self):
        ctx, roots = make_ctx(assign_split=6)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        # group 1 holds the highest-x slabs; the donor grids closest to it
        # (largest lo[0] among group-0 slabs) must move first
        moved = {gid for gid, _, _ in plan.moves}
        donor_grids = sorted(
            (g for g in ctx.hierarchy.level_grids(0)
             if ctx.assignment.group_of(g.gid) == 0),
            key=lambda g: -g.box.lo[0],
        )
        expected_first = {g.gid for g in donor_grids[: len(moved)]}
        assert moved == expected_first

    def test_plan_is_pure(self):
        ctx, _ = make_ctx(assign_split=6)
        h = ctx.hierarchy
        versions_before = [h.level_version(level) for level in range(h.max_levels)]
        clock_before = ctx.sim.clock
        plan_global_redistribution(ctx, nominal(ctx))
        assert [h.level_version(level) for level in range(h.max_levels)] == versions_before
        assert ctx.sim.clock == clock_before

    def test_fine_workload_triggers_plan_even_if_level0_uniform(self):
        """The Fig. 6 scenario: level-0 is uniform but one group anchors
        all the refinement, so its effective load is larger."""
        ctx, roots = make_ctx(assign_split=4)  # even level-0 split
        # pile children under group 0's first slab
        child = ctx.hierarchy.add_grid(1, roots[0].box.refine(2), roots[0].gid)
        ctx.assignment.assign(child.gid, 0)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        assert not plan.empty


class TestExecute:
    def test_execute_moves_and_charges(self):
        ctx, _ = make_ctx(assign_split=6)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        nmoved, cells, delta = execute_global_redistribution(ctx, plan, 0.5)
        assert nmoved >= len(plan.moves)
        assert cells > 0
        assert delta > 0
        assert ctx.sim.clock > 0
        assert ctx.sim.balance_overhead > 0
        ev = ctx.sim.log.of_type(RedistributionEvent)
        assert len(ev) == 1
        assert ev[0].predicted_cost == 0.5

    def test_execute_results_in_balance(self):
        ctx, _ = make_ctx(assign_split=6)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        execute_global_redistribution(ctx, plan, 0.0)
        loads = ctx.assignment.level_loads(0)
        group_loads = [sum(loads[pid] for pid in g.pids)
                       for g in ctx.system.groups]
        ratio = max(group_loads) / min(group_loads)
        assert ratio < 1.4  # near balance at whole/carved-grid granularity

    def test_empty_plan_noop(self):
        ctx, _ = make_ctx(assign_split=4)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        assert execute_global_redistribution(ctx, plan, 0.0) == (0, 0, 0.0)
        assert ctx.sim.clock == 0.0

    def test_carve_used_for_fractional_moves(self):
        # one root grid holding everything: balancing needs half of it
        ctx, roots = make_ctx(blocks=(1, 1, 1), assign_split=1)
        plan = plan_global_redistribution(ctx, nominal(ctx))
        assert plan.carves, "expected a split for the fractional boundary shift"
        ngrids_before = len(ctx.hierarchy.level_grids(0))
        execute_global_redistribution(ctx, plan, 0.0)
        assert len(ctx.hierarchy.level_grids(0)) == ngrids_before + 1
        ctx.hierarchy.validate()
        ctx.assignment.validate()
