"""Unit/integration tests for the SAMR runtime (runner + hooks wiring)."""

from __future__ import annotations

import pytest

from repro.amr.box import Box
from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, parallel_spec, wan_spec
from repro.distsys.events import (
    CommEvent,
    ComputeEvent,
    GlobalDecisionEvent,
    LocalBalanceEvent,
    RegridEvent,
)
from repro.runtime import SAMRRunner, default_blocks_per_axis, root_blocks


class TestRootBlocks:
    def test_tiles_exactly(self):
        domain = Box.cube(0, 16, 3)
        blocks = root_blocks(domain, (4, 2, 1))
        assert len(blocks) == 8
        assert sum(b.ncells for b in blocks) == domain.ncells
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not a.intersects(b)

    def test_ordered_along_axis0_first(self):
        domain = Box.cube(0, 16, 2)
        blocks = root_blocks(domain, (2, 2))
        assert blocks[0].lo <= blocks[1].lo <= blocks[2].lo <= blocks[3].lo

    def test_nondividing_counts_raise(self):
        with pytest.raises(ValueError):
            root_blocks(Box.cube(0, 10, 2), (3, 1))

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            root_blocks(Box.cube(0, 8, 2), (2, 2, 2))

    def test_default_blocks_enough_granularity(self):
        domain = Box.cube(0, 16, 3)
        counts = default_blocks_per_axis(domain, nprocs=4, min_per_proc=4)
        total = counts[0] * counts[1] * counts[2]
        assert total >= 16
        for d in range(3):
            assert 16 % counts[d] == 0

    def test_default_blocks_non_power_of_two_domain(self):
        """12 halves only twice (12 -> 6 -> 3 cells); counts stop at 4."""
        domain = Box.cube(0, 12, 2)
        counts = default_blocks_per_axis(domain, nprocs=8, min_per_proc=4)
        for d in range(2):
            assert 12 % counts[d] == 0
            assert counts[d] <= 4
        # the tiling it chose must actually be constructible
        assert len(root_blocks(domain, counts)) == counts[0] * counts[1]

    def test_default_blocks_nprocs_exceeding_tiling(self):
        """A tiny domain cannot give 64 processors 4 blocks each; the
        doubling must stop at the divisibility/min-edge limit, not loop."""
        domain = Box.cube(0, 4, 1)
        counts = default_blocks_per_axis(domain, nprocs=64, min_per_proc=4)
        assert counts == (2,)  # 4 cells: one halving, then edges hit 1

    def test_default_blocks_one_cell_axis(self):
        """A 1-cell axis can never split; all granularity must come from
        the other axes."""
        domain = Box((0, 0), (16, 1))
        counts = default_blocks_per_axis(domain, nprocs=2, min_per_proc=4)
        assert counts[1] == 1
        assert counts[0] >= 2
        assert 16 % counts[0] == 0
        assert len(root_blocks(domain, counts)) == counts[0]


def small_runner(scheme, nprocs_per_group=2, steps=0, **kw):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    system = build_system(wan_spec(nprocs_per_group, base_speed=2e4),
                          traffic=ConstantTraffic(0.3))
    runner = SAMRRunner(app, system, scheme, **kw)
    if steps:
        runner.run(steps)
    return runner


class TestRunnerLifecycle:
    def test_initial_adaptation_builds_levels(self):
        runner = small_runner(make_scheme("distributed"))
        assert runner.hierarchy.nlevels == 3  # initial conditions adapted
        runner.assignment.validate()

    def test_run_produces_consistent_result(self):
        runner = small_runner(make_scheme("distributed"))
        result = runner.run(2)
        assert result.nsteps == 2
        assert result.total_time > 0
        assert result.compute_time > 0
        assert result.comm_time > 0
        # accounting closes: parts never exceed the wall clock
        assert result.compute_time + result.comm_time <= result.total_time + 1e-9

    def test_invalid_steps_raise(self):
        runner = small_runner(make_scheme("parallel"))
        with pytest.raises(ValueError):
            runner.run(0)

    def test_assignment_complete_after_run(self):
        runner = small_runner(make_scheme("distributed"), steps=2)
        runner.assignment.validate()
        runner.hierarchy.validate()

    def test_events_cover_all_phases(self):
        runner = small_runner(make_scheme("distributed"), steps=2)
        log = runner.sim.log
        assert log.of_type(ComputeEvent)
        assert log.of_type(CommEvent)
        assert log.of_type(RegridEvent)
        assert log.of_type(LocalBalanceEvent)
        assert log.of_type(GlobalDecisionEvent)

    def test_one_global_decision_per_coarse_step(self):
        runner = small_runner(make_scheme("distributed"), steps=3)
        decisions = runner.sim.log.of_type(GlobalDecisionEvent)
        assert len(decisions) == 3

    def test_solver_order_matches_fig2_shape(self):
        runner = small_runner(make_scheme("distributed"), steps=1)
        levels = [s.level for s in runner.integrator.trace]
        from repro.amr.integrator import integration_order

        assert levels == integration_order(3, 2)

    def test_history_records_every_coarse_step(self):
        runner = small_runner(make_scheme("distributed"), steps=3)
        assert runner.history.completed_steps == 3
        rec = runner.history.last_complete
        assert rec.walltime > 0
        assert rec.level_iterations[0] == 1
        assert rec.level_iterations[1] == 2
        assert rec.level_iterations[2] == 4

    def test_result_snapshot_midrun(self):
        runner = small_runner(make_scheme("distributed"))
        runner.integrator.step()
        r = runner.result()
        assert r.nsteps == 1


class TestRunnerCommAttribution:
    def test_parallel_scheme_creates_remote_parent_child_traffic(self):
        runner = small_runner(make_scheme("parallel"), steps=1)
        assert runner.sim.remote_comm_busy > 0

    def test_distributed_scheme_no_remote_parent_child(self):
        """Children stay in the parent's group, so any remote ghost bytes
        come from level-0 siblings only -- far less than the baseline."""
        par = small_runner(make_scheme("parallel"), steps=2)
        dist = small_runner(make_scheme("distributed"), steps=2)
        assert dist.sim.remote_comm_busy < par.sim.remote_comm_busy

    def test_sequential_system_has_zero_comm(self):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        runner = SAMRRunner(app, build_system(parallel_spec(1, base_speed=2e4)), make_scheme("parallel"))
        result = runner.run(2)
        assert result.comm_time == 0.0
        assert result.total_time == pytest.approx(
            result.compute_time + result.balance_overhead, rel=1e-6
        ) or result.total_time >= result.compute_time

    def test_system_label_reports_per_group_sizes(self):
        """Asymmetric federations must not be mislabelled with the first
        group's size (the old ``NxM`` format said "3x1procs" here)."""
        from repro.distsys import multi_site_spec

        app = ShockPool3D(domain_cells=16, max_levels=2)
        system = build_system(multi_site_spec([1, 2, 1], base_speed=2e4),
                              traffic=ConstantTraffic(0.1))
        runner = SAMRRunner(app, system, make_scheme("distributed"))
        assert runner.result().system == "1+2+1procs"

    def test_ghost_cache_consistent_after_redistribution(self):
        """A carve changes level-0 grids; the sibling cache must follow."""
        runner = small_runner(make_scheme("distributed"), steps=4)
        # simply completing 4 steps without KeyError proves cache hygiene;
        # assert the cache is keyed at the current version
        for level, (version, _pairs) in runner._sibling_cache.items():
            assert version <= runner.hierarchy.version
