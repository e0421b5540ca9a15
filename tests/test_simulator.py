"""Unit tests for the cluster simulator and the network probe."""

from __future__ import annotations

import pytest

from repro.distsys import build_system, parallel_spec, wan_spec
from repro.distsys.comm import Message, MessageKind
from repro.distsys.events import CommEvent, ComputeEvent, ProbeEvent
from repro.distsys.simulator import (
    PROBE_LARGE_BYTES,
    PROBE_SMALL_BYTES,
    ClusterSimulator,
)
from repro.distsys.traffic import ConstantTraffic, DiurnalTraffic


class TestRunCompute:
    def test_elapsed_is_max_over_processors(self):
        sim = ClusterSimulator(build_system(parallel_spec(2, base_speed=1e3)))
        elapsed = sim.run_compute({0: 1000.0, 1: 500.0})
        assert elapsed == pytest.approx(1.0)
        assert sim.clock == pytest.approx(1.0)
        assert sim.compute_time == pytest.approx(1.0)

    def test_weights_speed_up_processors(self):
        from repro.distsys.network import mren_wan

        s = build_system([1, 1], inter_link=mren_wan(), group_weights=[1.0, 4.0],
                         base_speed=1e3)
        sim = ClusterSimulator(s)
        # same load -> the weight-4 processor finishes 4x sooner
        elapsed = sim.run_compute({0: 1000.0, 1: 1000.0})
        assert elapsed == pytest.approx(1.0)  # dominated by the slow one

    def test_empty_loads_free(self):
        sim = ClusterSimulator(build_system(parallel_spec(2)))
        assert sim.run_compute({}) == 0.0

    def test_event_recorded(self):
        sim = ClusterSimulator(build_system(parallel_spec(2, base_speed=1e3)))
        sim.run_compute({0: 10.0}, level=1, seq=3)
        ev = sim.log.of_type(ComputeEvent)
        assert len(ev) == 1
        assert ev[0].level == 1 and ev[0].seq == 3
        assert ev[0].total_load == 10.0


class TestRunComm:
    def test_advances_clock_and_accounts(self):
        sim = ClusterSimulator(build_system(wan_spec(1), traffic=ConstantTraffic(0.0)))
        msgs = [Message(0, 1, 1e6, MessageKind.MIGRATION)]
        r = sim.run_comm(msgs, purpose="migration", count_as_balance=True)
        assert sim.clock == pytest.approx(r.elapsed)
        assert sim.comm_time == pytest.approx(r.elapsed)
        assert sim.balance_overhead == pytest.approx(r.elapsed)
        assert sim.comm_time_by_purpose["migration"] == pytest.approx(r.elapsed)

    def test_not_balance_by_default(self):
        sim = ClusterSimulator(build_system(wan_spec(1)))
        sim.run_comm([Message(0, 1, 100, MessageKind.SIBLING)])
        assert sim.balance_overhead == 0.0

    def test_comm_event_logged(self):
        sim = ClusterSimulator(build_system(wan_spec(1)))
        sim.run_comm([Message(0, 1, 100, MessageKind.SIBLING)], level=2,
                     purpose="ghost")
        ev = sim.log.of_type(CommEvent)[0]
        assert ev.level == 2
        assert ev.purpose == "ghost"
        assert ev.remote_bytes == 100


class TestProbe:
    def test_recovers_link_parameters_exactly(self):
        """Two-point probe solves alpha+beta*L exactly on a static link.

        The probe's alpha includes the per-message software overhead -- the
        probe measures what a real message experiences end to end."""
        sys_ = build_system(wan_spec(1), traffic=ConstantTraffic(0.3))
        sim = ClusterSimulator(sys_)
        link = sys_.inter_link(0, 1)
        alpha_true = link.alpha(0.0) + link.per_message_overhead
        beta_true = link.beta(0.0)
        alpha, beta = sim.probe_inter_link(0, 1)
        assert alpha == pytest.approx(alpha_true, rel=1e-9)
        assert beta == pytest.approx(beta_true, rel=1e-9)

    def test_probe_charges_time(self):
        sim = ClusterSimulator(build_system(wan_spec(1)))
        sim.probe_inter_link(0, 1)
        assert sim.clock > 0
        assert sim.probe_time == pytest.approx(sim.clock)
        assert sim.comm_time_by_purpose["probe"] > 0

    def test_probe_event_logged(self):
        sim = ClusterSimulator(build_system(wan_spec(1)))
        sim.probe_inter_link(0, 1)
        ev = sim.log.of_type(ProbeEvent)[0]
        assert (ev.group_a, ev.group_b) == (0, 1)
        assert ev.beta_estimate > 0

    def test_probe_tracks_changing_traffic(self):
        """Probes at different times see different network weather."""
        sys_ = build_system(wan_spec(1),
                            traffic=DiurnalTraffic(mean=0.4, amplitude=0.3, period=100.0))
        sim = ClusterSimulator(sys_)
        a1, b1 = sim.probe_inter_link(0, 1)
        sim.charge_overhead(25.0, as_balance=False)  # quarter period later
        a2, b2 = sim.probe_inter_link(0, 1)
        assert a1 != a2
        assert b1 != b2

    def test_probe_sizes_sensible(self):
        assert PROBE_SMALL_BYTES < PROBE_LARGE_BYTES


class TestOverheadAndSnapshot:
    def test_charge_overhead(self):
        sim = ClusterSimulator(build_system(parallel_spec(1)))
        sim.charge_overhead(0.5)
        assert sim.clock == 0.5
        assert sim.balance_overhead == 0.5

    def test_charge_overhead_not_balance(self):
        sim = ClusterSimulator(build_system(parallel_spec(1)))
        sim.charge_overhead(0.5, as_balance=False)
        assert sim.balance_overhead == 0.0

    def test_negative_overhead_raises(self):
        sim = ClusterSimulator(build_system(parallel_spec(1)))
        with pytest.raises(ValueError):
            sim.charge_overhead(-1.0)

    def test_snapshot_keys(self):
        sim = ClusterSimulator(build_system(parallel_spec(1)))
        snap = sim.snapshot()
        assert set(snap) == {
            "clock", "compute_time", "comm_time", "local_comm_busy",
            "remote_comm_busy", "balance_overhead", "probe_time",
        }
