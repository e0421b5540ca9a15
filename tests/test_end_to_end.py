"""End-to-end integration tests: the paper's headline claims, in miniature.

These run real (small) experiments and assert the paper's *qualitative*
results: the distributed scheme beats the group-oblivious baseline on a
distributed system, the gap grows with processor count, remote traffic is
the mechanism, and the gain/cost gate keeps redistribution profitable.
"""

from __future__ import annotations

import pytest

from repro import quick_run
from repro.amr.applications import BlastWave, ShockPool3D
from repro.core import make_scheme
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.distsys.events import GlobalDecisionEvent, RedistributionEvent
from repro.harness import ExperimentConfig, run_experiment, run_paired
from repro.runtime import SAMRRunner


@pytest.fixture(scope="module")
def paired_2x2():
    cfg = ExperimentConfig(
        app_name="shockpool3d", network="wan", procs_per_group=2, steps=3
    )
    return run_paired(cfg, with_sequential=True)


@pytest.fixture(scope="module")
def paired_4x4():
    cfg = ExperimentConfig(
        app_name="shockpool3d", network="wan", procs_per_group=4, steps=3
    )
    return run_paired(cfg)


class TestHeadlineClaims:
    def test_distributed_beats_parallel_on_wan(self, paired_2x2):
        """The paper's core claim, at 2+2."""
        assert paired_2x2.improvement > 0

    def test_improvement_grows_with_processors(self, paired_2x2, paired_4x4):
        """'especially as the number of processors is increased'."""
        assert paired_4x4.improvement > paired_2x2.improvement

    def test_improvement_within_papers_band(self, paired_4x4):
        """Paper: 2.6%-44.2% for ShockPool3D; allow simulator headroom."""
        assert 0.0 < paired_4x4.improvement < 0.60

    def test_efficiency_improves(self, paired_2x2):
        assert paired_2x2.distributed_efficiency > paired_2x2.parallel_efficiency

    def test_mechanism_is_remote_traffic(self, paired_2x2):
        """The win comes from cutting remote communication, not compute."""
        par, dist = paired_2x2.parallel, paired_2x2.distributed
        assert dist.remote_comm_busy < 0.5 * par.remote_comm_busy

    def test_workload_identical_across_schemes(self, paired_2x2):
        """Paired methodology: both schemes saw the same physics."""
        assert paired_2x2.parallel.final_cells == paired_2x2.distributed.final_cells

    def test_zero_remote_parent_child_bytes(self, paired_2x2):
        """Section 4.1's guarantee, verified at the byte level: "children
        grids are always located at the same group as their parent grids;
        thus no remote communication is needed between parent and children
        grids"."""
        dist_kinds = paired_2x2.distributed.remote_bytes_by_kind
        par_kinds = paired_2x2.parallel.remote_bytes_by_kind
        assert dist_kinds.get("parent_child", 0.0) == 0.0
        assert par_kinds.get("parent_child", 0.0) > 0.0

    def test_remote_sibling_traffic_is_small(self, paired_2x2):
        """"There may be some boundary information exchange between sibling
        grids which usually is very small" -- compared to the baseline's."""
        dist = paired_2x2.distributed.remote_bytes_by_kind
        par = paired_2x2.parallel.remote_bytes_by_kind
        assert dist.get("sibling", 0.0) < par.get("sibling", 0.0)


class TestSchemeDynamics:
    def test_redistributions_fire_on_moving_shock(self):
        result = quick_run("shockpool3d", procs_per_group=2, steps=6,
                           scheme_name="distributed")
        assert result.redistributions >= 1

    def test_gate_rejects_when_gamma_huge(self):
        cfg = ExperimentConfig(procs_per_group=2, steps=4, gamma=1e9)
        result = run_experiment(cfg, "distributed")
        assert result.redistributions == 0
        decisions = result.events.of_type(GlobalDecisionEvent)
        assert decisions and not any(d.invoked for d in decisions)

    def test_gamma_zero_fires_more_often(self):
        eager = run_experiment(
            ExperimentConfig(procs_per_group=2, steps=4, gamma=0.0), "distributed"
        )
        default = run_experiment(
            ExperimentConfig(procs_per_group=2, steps=4, gamma=2.0), "distributed"
        )
        assert eager.redistributions >= default.redistributions

    def test_symmetric_blastwave_rarely_redistributes(self):
        """BlastWave grows symmetrically: both groups gain work at the same
        rate, so a correct gate sees little gain and rarely fires."""
        app = BlastWave(domain_cells=16, max_levels=3)
        shock = ShockPool3D(domain_cells=16, max_levels=3)
        def system():
            return build_system(wan_spec(2, base_speed=2e4),
                                traffic=ConstantTraffic(0.3))
        blast = SAMRRunner(app, system(), make_scheme("distributed")).run(4)
        moving = SAMRRunner(shock, system(), make_scheme("distributed")).run(4)
        assert blast.redistributions <= moving.redistributions

    def test_redistribution_reduces_group_imbalance(self):
        """Around each redistribution, capacity-normalised level-0 group
        loads get closer."""
        from repro.core.global_phase import effective_level0_loads

        cfg = ExperimentConfig(procs_per_group=2, steps=5)
        captured = []

        class Capture(SAMRRunner):
            def global_balance(self, time):
                def imb():
                    eff = effective_level0_loads(self.ctx)
                    loads = {g.group_id: 0.0 for g in self.system.groups}
                    for gid, load in eff.items():
                        loads[self.assignment.group_of(gid)] += load
                    hi, lo = max(loads.values()), min(loads.values())
                    return hi / lo if lo > 0 else float("inf")

                n = len(self.sim.log.of_type(RedistributionEvent))
                before = imb()
                super().global_balance(time)
                if len(self.sim.log.of_type(RedistributionEvent)) > n:
                    captured.append((before, imb()))

        from repro.harness import make_app, make_system

        Capture(make_app(cfg), make_system(cfg), make_scheme("distributed")).run(cfg.steps)
        assert captured, "no redistribution fired"
        for before, after in captured:
            assert after < before


class TestCrossSchemeInvariants:
    @pytest.mark.parametrize("scheme", ["parallel", "distributed"])
    def test_all_grids_assigned_throughout(self, scheme):
        cfg = ExperimentConfig(procs_per_group=2, steps=3)
        from repro.harness import make_app, make_system

        runner = SAMRRunner(make_app(cfg), make_system(cfg), make_scheme(scheme))
        for _ in range(cfg.steps):
            runner.integrator.step()
            runner.assignment.validate()
            runner.hierarchy.validate()

    @pytest.mark.parametrize("app", ["shockpool3d", "amr64", "blastwave"])
    def test_every_app_runs_both_schemes(self, app):
        for scheme in ("parallel", "distributed"):
            r = quick_run(app, procs_per_group=1, steps=2, scheme_name=scheme)
            assert r.total_time > 0

    def test_identical_seeds_identical_results(self):
        cfg = ExperimentConfig(procs_per_group=2, steps=2)
        a = run_experiment(cfg, "distributed")
        b = run_experiment(cfg, "distributed")
        assert a.total_time == pytest.approx(b.total_time, rel=1e-12)
        assert a.final_cells == b.final_cells
