"""Tests for the fault-injection subsystem (``repro.faults``)."""

from __future__ import annotations

import math

import pytest

from repro.amr.applications import ShockPool3D
from repro.config import FaultParams
from repro.core import make_scheme
from repro.core.policies import MeasuredWeights, NominalWeights
from repro.distsys import (
    BurstyTraffic,
    ComposedTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    FaultEvent,
    GroupSpec,
    Message,
    MessageKind,
    NoTraffic,
    SystemSpec,
    TraceTraffic,
    WindowTraffic,
    build_system,
    comm_phase_time,
    ring,
    wan_spec,
)
from repro.distsys.events import ComputeEvent, EventLog, RedistributionEvent
from repro.distsys.processor import MIN_AVAILABILITY, Processor
from repro.faults import (
    CpuLoadFault,
    DropoutFault,
    FaultSchedule,
    LinkDegradationFault,
    SlowdownFault,
    imbalance_trajectory,
    lost_compute_time,
    peak_imbalance,
    resilience_report,
    time_to_rebalance,
)
from repro.harness import ExperimentConfig, make_faults, run_experiment
from repro.harness.persist import run_result_to_dict
from repro.partition import group_capacities
from repro.runtime import SAMRRunner


# --------------------------------------------------------------------- #
# occupancy models as CPU load
# --------------------------------------------------------------------- #


class TestLoadModels:
    """The traffic models carried as a processor's external CPU load."""

    def test_no_load_is_zero(self):
        assert NoTraffic().occupancy(0.0) == 0.0
        assert NoTraffic().occupancy(1e6) == 0.0
        assert Processor(pid=0, group_id=0).availability(5.0) == 1.0

    def test_constant_load(self):
        assert ConstantTraffic(0.4).occupancy(123.0) == 0.4
        with pytest.raises(ValueError):
            ConstantTraffic(1.5)

    def test_diurnal_oscillates_and_clamps(self):
        m = DiurnalTraffic(mean=0.5, amplitude=0.6, period=100.0)
        vals = [m.occupancy(t) for t in range(0, 100, 5)]
        assert min(vals) >= 0.0
        assert max(vals) > min(vals)
        proc = Processor(pid=0, group_id=0, load=m)
        assert min(proc.availability(t) for t in range(0, 100, 5)) >= MIN_AVAILABILITY

    def test_bursty_deterministic_and_seed_sensitive(self):
        # base/burst/probability: the fault scenarios' CPU weather values
        kw = dict(base=0.05, burst=0.6, burst_probability=0.25, bucket_seconds=10.0)
        a = BurstyTraffic(seed=1, **kw)
        b = BurstyTraffic(seed=1, **kw)
        c = BurstyTraffic(seed=2, **kw)
        ts = [0.5, 15.0, 25.0, 999.0]
        assert [a.occupancy(t) for t in ts] == [b.occupancy(t) for t in ts]
        assert any(
            a.occupancy(t) != c.occupancy(t) for t in range(0, 2000, 10)
        )

    def test_bursty_constant_within_bucket(self):
        m = BurstyTraffic(seed=3, base=0.05, burst=0.6, burst_probability=0.25,
                          bucket_seconds=10.0)
        assert m.occupancy(20.0) == m.occupancy(29.999)

    def test_window_load_boundaries(self):
        w = WindowTraffic(10.0, 20.0, 0.75)
        assert w.occupancy(9.999) == 0.0
        assert w.occupancy(10.0) == 0.75
        assert w.occupancy(19.999) == 0.75
        assert w.occupancy(20.0) == 0.0
        with pytest.raises(ValueError):
            WindowTraffic(20.0, 10.0, 0.5)

    def test_trace_load_steps(self):
        tr = TraceTraffic([0.0, 10.0, 20.0], [0.1, 0.5, 0.2])
        assert tr.occupancy(0.0) == 0.1
        assert tr.occupancy(9.9) == 0.1
        assert tr.occupancy(10.0) == 0.5
        assert tr.occupancy(1e9) == 0.2
        with pytest.raises(ValueError):
            TraceTraffic([5.0], [0.1])  # must start at or before t=0
        with pytest.raises(ValueError):
            TraceTraffic([0.0, 0.0], [0.1, 0.2])

    def test_composed_load_sums_and_clamps(self):
        m = ComposedTraffic((ConstantTraffic(0.3), WindowTraffic(0.0, 10.0, 0.2)))
        assert m.occupancy(5.0) == pytest.approx(0.5)
        assert m.occupancy(15.0) == pytest.approx(0.3)
        # the sum is unclamped; the processor floors its availability
        big = ComposedTraffic((ConstantTraffic(0.9), ConstantTraffic(0.9)))
        assert big.occupancy(0.0) == pytest.approx(1.8)
        proc = Processor(pid=0, group_id=0, load=big)
        assert proc.availability(0.0) == MIN_AVAILABILITY


# --------------------------------------------------------------------- #
# processor availability
# --------------------------------------------------------------------- #


class TestProcessorAvailability:
    def test_loaded_processor_slows_down(self):
        system = build_system(wan_spec(2, base_speed=1000.0),
                              traffic=ConstantTraffic(0.0))
        proc = system.processors[0]
        from dataclasses import replace

        loaded = replace(proc, load=WindowTraffic(10.0, 20.0, 0.75))
        assert loaded.effective_speed(0.0) == pytest.approx(proc.speed)
        assert loaded.effective_speed(15.0) == pytest.approx(proc.speed * 0.25)
        # 4x slower inside the window
        assert loaded.execution_time(100.0, 15.0) == pytest.approx(
            4.0 * loaded.execution_time(100.0, 0.0)
        )

    def test_group_capacity_tracks_time(self):
        system = build_system(wan_spec(2, base_speed=1000.0),
                              traffic=ConstantTraffic(0.0))
        sched = FaultSchedule(
            [SlowdownFault(group=1, start=10.0, end=20.0, factor=4.0)]
        )
        faulted = sched.apply(system)
        nominal = group_capacities(
            faulted, NominalWeights().processor_weights(faulted, 0.0))

        def at(t):
            return group_capacities(
                faulted, MeasuredWeights().processor_weights(faulted, t))

        assert at(0.0)[1] == pytest.approx(nominal[1])
        assert at(15.0)[1] == pytest.approx(nominal[1] / 4.0)
        assert at(15.0)[0] == pytest.approx(nominal[0])
        assert at(15.0)[1] / sum(at(15.0).values()) < 0.25


# --------------------------------------------------------------------- #
# schedules
# --------------------------------------------------------------------- #


class TestFaultSchedule:
    def test_apply_targets_only_matching_processors(self):
        system = build_system(wan_spec(2, base_speed=1000.0),
                              traffic=ConstantTraffic(0.0))
        sched = FaultSchedule([SlowdownFault(pids=(0,), start=0.0, end=5.0)])
        faulted = sched.apply(system)
        assert faulted.processor(0).availability(1.0) < 1.0
        for pid in (1, 2, 3):
            assert faulted.processor(pid).availability(1.0) == 1.0
        # the input system is untouched
        assert system.processor(0).availability(1.0) == 1.0

    def test_apply_composes_with_existing_load(self):
        from dataclasses import replace

        system = build_system(wan_spec(1, base_speed=1000.0),
                              traffic=ConstantTraffic(0.0))
        g0 = system.groups[0]
        preloaded = replace(g0.processors[0], load=ConstantTraffic(0.2))
        from repro.distsys.group import Group
        from repro.distsys.system import DistributedSystem

        system = DistributedSystem(
            [
                Group(0, g0.name, [preloaded], intra_link=g0.intra_link),
                system.groups[1],
            ],
            system.topology,
        )
        sched = FaultSchedule([SlowdownFault(pids=(0,), start=0.0, end=5.0, factor=2.0)])
        faulted = sched.apply(system)
        # 0.2 existing + 0.5 slowdown
        assert faulted.processor(0).availability(1.0) == pytest.approx(0.3)
        assert faulted.processor(0).availability(10.0) == pytest.approx(0.8)

    def test_dropout_floors_availability(self):
        system = build_system(wan_spec(1, base_speed=1000.0),
                              traffic=ConstantTraffic(0.0))
        faulted = FaultSchedule(
            [DropoutFault(group=0, start=0.0, end=5.0)]
        ).apply(system)
        p = faulted.processor(0)
        assert p.availability(1.0) == MIN_AVAILABILITY
        assert p.availability(6.0) == 1.0

    def test_link_fault_overlays_inter_links(self):
        system = build_system(wan_spec(1, base_speed=1000.0),
                              traffic=ConstantTraffic(0.1))
        faulted = FaultSchedule(
            [LinkDegradationFault(start=0.0, end=5.0, occupancy=0.6)]
        ).apply(system)
        link = faulted.route_between(0, 1).links[0]
        assert link.traffic.occupancy(1.0) == pytest.approx(0.7)
        assert link.traffic.occupancy(6.0) == pytest.approx(0.1)
        # intra-group links untouched
        assert faulted.groups[0].intra_link.traffic.occupancy(1.0) == 0.0

    @pytest.mark.parametrize("system", [
        build_system(wan_spec(1)),
        build_system(SystemSpec(
            groups=tuple(GroupSpec(nprocs=1, name=n) for n in ring(4).groups),
            topology=ring(4))),
    ], ids=["two-level", "ring4"])
    def test_link_fault_on_missing_group_pair_rejected(self, system):
        fault = LinkDegradationFault(start=0.0, end=1.0, groups=(0, 9))
        with pytest.raises(ValueError, match=(
                rf"group pair \(0, 9\).*{system.ngroups} group")):
            FaultSchedule([fault]).apply(system)

    def test_boundaries_sorted_with_ends(self):
        sched = FaultSchedule(
            [
                SlowdownFault(group=1, start=10.0, end=20.0),
                CpuLoadFault(group=0, model=ConstantTraffic(0.1)),
                LinkDegradationFault(start=5.0, end=math.inf, occupancy=0.5),
            ]
        )
        bs = sched.boundaries()
        assert [b.time for b in bs] == [0.0, 5.0, 10.0, 20.0]
        assert [b.phase for b in bs] == ["start", "start", "start", "end"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowdownFault(group=1, start=5.0, end=5.0)
        with pytest.raises(ValueError):
            SlowdownFault(group=1, factor=1.0)
        with pytest.raises(ValueError):
            SlowdownFault(pids=(0,), group=1)
        with pytest.raises(ValueError):
            LinkDegradationFault(groups=(1, 1))
        with pytest.raises(TypeError):
            FaultSchedule(["not a fault"])


# --------------------------------------------------------------------- #
# FaultParams and the harness factory
# --------------------------------------------------------------------- #


class TestSharedBackbone:
    """Three groups without a topology share one backbone ``Link`` on every
    spoke of a star.  A link fault -- whichever way it is addressed --
    degrades that one medium for every pair, and changes nothing outside
    its window."""

    SPEC = SystemSpec(groups=(2, 2, 2))
    PAIRS = ((0, 1), (0, 2), (1, 2))
    #: one message per group pair plus a local one (pids 2g, 2g+1 in group g)
    MESSAGES = [
        Message(0, 2, 1.0e4, MessageKind.SIBLING),
        Message(2, 5, 2.5e4, MessageKind.PARENT_CHILD),
        Message(4, 1, 4.0e4, MessageKind.MIGRATION),
        Message(0, 1, 8.0e3, MessageKind.SIBLING),
    ]

    def _systems(self, **target):
        healthy = build_system(self.SPEC, traffic=ConstantTraffic(0.1))
        fault = LinkDegradationFault(start=1e3, end=2e3, occupancy=0.6,
                                     **target)
        return healthy, FaultSchedule([fault]).apply(healthy)

    @pytest.mark.parametrize("target", [
        {}, {"groups": (0, 1)}, {"edge": "group0--backbone"},
    ], ids=["all-links", "pair-0-1", "edge"])
    def test_fault_degrades_the_one_shared_medium(self, target):
        healthy, faulted = self._systems(**target)
        assert (faulted.topology.route_table()
                == healthy.topology.route_table())
        routes = [faulted.route_between(a, b).links for a, b in self.PAIRS]
        assert all(len(links) == 1 for links in routes)
        assert len({id(links[0]) for links in routes}) == 1
        assert (comm_phase_time(faulted, self.MESSAGES, 0.0)
                == comm_phase_time(healthy, self.MESSAGES, 0.0))
        for a, b in self.PAIRS:
            msg = [Message(2 * a, 2 * b, 1.0e4, MessageKind.SIBLING)]
            assert (comm_phase_time(faulted, msg, 1500.0).elapsed
                    > comm_phase_time(healthy, msg, 1500.0).elapsed)

    def test_unopened_window_changes_nothing_end_to_end(self):
        base = ExperimentConfig(system=self.SPEC, procs_per_group=2, steps=2,
                                domain_cells=16, max_levels=3)
        late = ExperimentConfig(
            system=self.SPEC, procs_per_group=2, steps=2, domain_cells=16,
            max_levels=3, fault=FaultParams("link-degraded", start=1e5))
        assert (run_result_to_dict(run_experiment(late, "distributed"))
                == run_result_to_dict(run_experiment(base, "distributed")))


class TestFaultParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultParams(scenario="meteor")
        with pytest.raises(ValueError):
            FaultParams(severity=1.0)
        with pytest.raises(ValueError):
            FaultParams(duration=0.0)
        fp = FaultParams(scenario="slowdown", start=2.0, duration=6.0, severity=4.0)
        assert fp.end == 8.0
        assert fp.stolen_share == pytest.approx(0.75)

    def test_make_faults_vocabulary(self):
        for scenario, expected_kinds in (
            ("slowdown", {"slowdown"}),
            ("dropout", {"dropout"}),
            ("cpu-load", {"cpu-load"}),
            ("link-degraded", {"link"}),
            ("mixed", {"slowdown", "link", "cpu-load"}),
        ):
            cfg = ExperimentConfig(fault=FaultParams(scenario=scenario))
            sched = make_faults(cfg)
            assert sched is not None
            assert {f.kind for f in sched.faults} == expected_kinds

    def test_make_faults_none(self):
        assert make_faults(ExperimentConfig()) is None
        assert make_faults(ExperimentConfig(fault=FaultParams())) is None


# --------------------------------------------------------------------- #
# runner integration
# --------------------------------------------------------------------- #


def faulted_runner(scheme, sched, steps=4):
    app = ShockPool3D(domain_cells=16, max_levels=3)
    system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
    runner = SAMRRunner(app, system, scheme, fault_schedule=sched)
    if steps:
        runner.run(steps)
    return runner


class TestRunnerIntegration:
    def test_fault_events_logged_in_order(self):
        sched = FaultSchedule(
            [SlowdownFault(group=1, start=2.0, end=8.0, factor=4.0)]
        )
        runner = faulted_runner(make_scheme("distributed"), sched)
        events = runner.sim.log.of_type(FaultEvent)
        assert [e.phase for e in events] == ["start", "end"]
        assert events[0].time == 2.0 and events[1].time == 8.0
        assert "slowdown" in events[0].description

    def test_result_counts_faults_and_labels_groups(self):
        sched = FaultSchedule(
            [SlowdownFault(group=1, start=2.0, end=8.0, factor=4.0)]
        )
        runner = faulted_runner(make_scheme("parallel"), sched)
        result = runner.result()
        assert result.faults == 2
        assert result.system == "2+2procs"

    def test_fault_slows_the_run(self):
        sched = FaultSchedule(
            [SlowdownFault(group=1, start=2.0, end=8.0, factor=4.0)]
        )
        clean = faulted_runner(make_scheme("parallel"), None).result()
        faulted = faulted_runner(make_scheme("parallel"), sched).result()
        assert faulted.total_time > clean.total_time

    def test_deterministic_repeats(self):
        cfg = ExperimentConfig(
            steps=3, fault=FaultParams(scenario="cpu-load", seed=5)
        )
        a = run_experiment(cfg, "distributed")
        b = run_experiment(cfg, "distributed")
        assert a.total_time == b.total_time
        assert a.redistributions == b.redistributions

    def test_ideal_elapsed_recorded(self):
        runner = faulted_runner(make_scheme("distributed"), None, steps=2)
        phases = [
            e for e in runner.sim.log.of_type(ComputeEvent) if e.elapsed > 0
        ]
        assert phases
        for e in phases:
            assert 0.0 < e.ideal_elapsed <= e.elapsed + 1e-12


# --------------------------------------------------------------------- #
# resilience metrics
# --------------------------------------------------------------------- #


class TestResilienceMetrics:
    def make_log(self):
        log = EventLog()
        log.record(ComputeEvent(time=1.0, level=0, seq=0, elapsed=1.0,
                                max_load=1.0, total_load=4.0,
                                ideal_elapsed=1.0))
        log.record(FaultEvent(time=2.0, kind="slowdown", phase="start",
                              description="4x slowdown of group 1"))
        log.record(ComputeEvent(time=5.0, level=0, seq=1, elapsed=4.0,
                                max_load=4.0, total_load=8.0,
                                ideal_elapsed=2.0))
        log.record(RedistributionEvent(time=6.0, moved_cells=100,
                                       moved_grids=2, elapsed=0.5,
                                       predicted_cost=0.2))
        log.record(FaultEvent(time=8.0, kind="slowdown", phase="end",
                              description="4x slowdown of group 1"))
        log.record(ComputeEvent(time=9.0, level=0, seq=2, elapsed=1.1,
                                max_load=1.1, total_load=4.0,
                                ideal_elapsed=1.0))
        return log

    def test_imbalance_trajectory(self):
        traj = imbalance_trajectory(self.make_log())
        assert [t for t, _ in traj] == [1.0, 5.0, 9.0]
        assert traj[1][1] == pytest.approx(2.0)
        assert peak_imbalance(self.make_log()) == pytest.approx(2.0)

    def test_lost_time(self):
        assert lost_compute_time(self.make_log()) == pytest.approx(2.1)

    def test_time_to_rebalance_only_counts_onsets(self):
        ttr = time_to_rebalance(self.make_log())
        assert ttr == {2.0: pytest.approx(4.0)}

    def test_report_summary(self):
        rep = resilience_report(self.make_log())
        assert rep.fault_onsets == 1
        assert rep.rebalances == 1
        assert rep.mean_time_to_rebalance == pytest.approx(4.0)
        assert rep.total_time == 9.0
        assert "rebalances 1" in rep.summary()

    def test_report_without_faults(self):
        log = EventLog()
        log.record(ComputeEvent(time=1.0, level=0, seq=0, elapsed=1.0,
                                max_load=1.0, total_load=4.0,
                                ideal_elapsed=1.0))
        rep = resilience_report(log)
        assert rep.fault_onsets == 0
        assert rep.mean_time_to_rebalance is None
        assert rep.lost_fraction == 0.0


# --------------------------------------------------------------------- #
# adaptation: the headline behaviour
# --------------------------------------------------------------------- #


class TestAdaptation:
    def test_distributed_beats_parallel_under_slowdown(self):
        """A mid-run 4x slowdown of one group: the weight-re-measuring
        distributed scheme shifts work away and wins; the blind parallel
        baseline just waits on the stragglers."""
        cfg = ExperimentConfig(
            procs_per_group=2,
            steps=6,
            fault=FaultParams(scenario="slowdown", group=1,
                              start=2.0, duration=6.0, severity=4.0),
        )
        par = run_experiment(cfg, "parallel")
        dist = run_experiment(cfg, "distributed")
        assert dist.total_time < par.total_time
        # the scheme reacted after the onset
        rep = resilience_report(dist.events)
        assert rep.mean_time_to_rebalance is not None
