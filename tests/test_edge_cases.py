"""Last-mile edge cases across the runtime and harness."""

from __future__ import annotations

import pytest

from repro.amr.box import Box
from repro.harness import ExperimentConfig, run_experiment
from repro.runtime import default_blocks_per_axis, root_blocks


class TestDefaultBlocks:
    def test_respects_min_block_width(self):
        """Never creates blocks thinner than 2 cells."""
        counts = default_blocks_per_axis(Box.cube(0, 8, 3), nprocs=64)
        domain = Box.cube(0, 8, 3)
        assert root_blocks(domain, counts).shapes().min() >= 2

    def test_single_processor_still_splits_for_granularity(self):
        counts = default_blocks_per_axis(Box.cube(0, 16, 3), nprocs=1)
        total = counts[0] * counts[1] * counts[2]
        assert total >= 4

    def test_non_power_of_two_domain(self):
        """Axis counts must divide the domain size exactly."""
        domain = Box((0, 0), (12, 10))
        counts = default_blocks_per_axis(domain, nprocs=2)
        for d in range(2):
            assert domain.shape[d] % counts[d] == 0

    def test_tiny_domain_caps_out(self):
        counts = default_blocks_per_axis(Box.cube(0, 4, 2), nprocs=100)
        # cannot exceed 2x2 blocks of width 2
        assert counts[0] <= 2 and counts[1] <= 2

    def test_2d_domain(self):
        counts = default_blocks_per_axis(Box.cube(0, 32, 2), nprocs=4)
        assert len(counts) == 2
        assert counts[0] * counts[1] >= 16


class TestOneStepRuns:
    """Smallest possible runs of every scheme complete and account sanely."""

    @pytest.mark.parametrize("scheme", ["parallel", "distributed", "static"])
    def test_single_step_single_proc_pair(self, scheme):
        cfg = ExperimentConfig(procs_per_group=1, steps=1)
        r = run_experiment(cfg, scheme)
        assert r.nsteps == 1
        assert r.total_time > 0
        assert r.compute_time > 0
        # wall clock is never less than any single component
        for part in (r.compute_time, r.comm_time, r.balance_overhead):
            assert part <= r.total_time + 1e-9

    def test_two_levels_only(self):
        cfg = ExperimentConfig(procs_per_group=1, steps=2, max_levels=2)
        r = run_experiment(cfg, "distributed")
        assert r.total_time > 0

    def test_single_level_degenerates_gracefully(self):
        """max_levels=1: no refinement, no fine traffic, pure level-0 run."""
        cfg = ExperimentConfig(procs_per_group=2, steps=2, max_levels=1)
        r = run_experiment(cfg, "distributed")
        assert r.final_grids == len(
            root_blocks(Box.cube(0, 16, 3),
                        default_blocks_per_axis(Box.cube(0, 16, 3), 4))
        )
        assert r.remote_bytes_by_kind.get("parent_child", 0.0) == 0.0

    def test_blastwave_two_sites_static(self):
        cfg = ExperimentConfig(app_name="blastwave", procs_per_group=2, steps=2)
        r = run_experiment(cfg, "static")
        assert r.total_time > 0


class TestTrafficKinds:
    @pytest.mark.parametrize("kind", ["none", "constant", "diurnal", "bursty"])
    def test_every_traffic_kind_runs(self, kind):
        cfg = ExperimentConfig(procs_per_group=1, steps=2, traffic_kind=kind)
        r = run_experiment(cfg, "distributed")
        assert r.total_time > 0

    def test_dedicated_network_is_fastest(self):
        quiet = run_experiment(
            ExperimentConfig(procs_per_group=2, steps=3, traffic_kind="none"),
            "parallel",
        )
        busy = run_experiment(
            ExperimentConfig(procs_per_group=2, steps=3, traffic_kind="constant",
                             traffic_level=0.6),
            "parallel",
        )
        assert quiet.total_time < busy.total_time
