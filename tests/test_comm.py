"""Unit tests for the message cost model."""

from __future__ import annotations

import pytest

from repro.distsys import build_system, wan_spec
from repro.distsys.comm import CommPhaseResult, Message, MessageKind, comm_phase_time
from repro.distsys.traffic import ConstantTraffic


@pytest.fixture
def system():
    return build_system(wan_spec(2), traffic=ConstantTraffic(0.0))


def wan_params(system, t=0.0):
    link = system.inter_link(0, 1)
    return link.alpha(t), link.beta(t), link.per_message_overhead


class TestMessage:
    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            Message(0, 1, -5, MessageKind.SIBLING)

    def test_kinds_cover_taxonomy(self):
        assert {k.value for k in MessageKind} == {
            "sibling", "parent_child", "migration", "probe", "control",
        }


class TestCommPhaseTime:
    def test_empty_phase_free(self):
        r = comm_phase_time(build_system(wan_spec(1)), [], 0.0)
        assert r.elapsed == 0.0

    def test_self_message_free(self, system):
        r = comm_phase_time(system, [Message(0, 0, 1e6, MessageKind.SIBLING)], 0.0)
        assert r.elapsed == 0.0
        assert r.local_messages == 0

    def test_single_remote_message(self, system):
        alpha, beta, oh = wan_params(system)
        r = comm_phase_time(system, [Message(0, 2, 1000, MessageKind.SIBLING)], 0.0)
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.remote_messages == 1
        assert r.remote_bytes == 1000

    def test_same_pair_bundled_single_latency(self, system):
        alpha, beta, oh = wan_params(system)
        msgs = [
            Message(0, 2, 1000, MessageKind.SIBLING),
            Message(0, 2, 3000, MessageKind.PARENT_CHILD),
        ]
        r = comm_phase_time(system, msgs, 0.0)
        # one bundle: one latency, one overhead, summed volume
        assert r.elapsed == pytest.approx(alpha + oh + 4000 * beta)

    def test_distinct_pairs_overlap_latency_pay_overhead(self, system):
        """Concurrent transfers overlap the propagation latency but each
        bundle pays its software overhead."""
        alpha, beta, oh = wan_params(system)
        msgs = [
            Message(0, 2, 1000, MessageKind.SIBLING),
            Message(1, 3, 1000, MessageKind.SIBLING),
        ]
        r = comm_phase_time(system, msgs, 0.0)
        assert r.elapsed == pytest.approx(alpha + 2 * oh + 2000 * beta)

    def test_links_run_concurrently(self, system):
        """A local and a remote transfer overlap; the WAN dominates."""
        alpha, beta, oh = wan_params(system)
        msgs = [
            Message(0, 2, 1000, MessageKind.SIBLING),  # WAN
            Message(0, 1, 1000, MessageKind.SIBLING),  # intra group 0
        ]
        r = comm_phase_time(system, msgs, 0.0)
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.local_time > 0
        assert r.remote_time > r.local_time

    def test_local_vs_remote_classification(self, system):
        msgs = [
            Message(0, 1, 10, MessageKind.SIBLING),
            Message(2, 3, 20, MessageKind.SIBLING),
            Message(1, 2, 30, MessageKind.SIBLING),
        ]
        r = comm_phase_time(system, msgs, 0.0)
        assert r.local_messages == 2
        assert r.remote_messages == 1
        assert r.local_bytes == 30
        assert r.remote_bytes == 30

    def test_traffic_slows_transfers(self):
        quiet = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        busy = build_system(wan_spec(2), traffic=ConstantTraffic(0.6))
        msgs = [Message(0, 2, 1e6, MessageKind.MIGRATION)]
        assert (
            comm_phase_time(busy, msgs, 0.0).elapsed
            > comm_phase_time(quiet, msgs, 0.0).elapsed
        )

    def test_merge_accumulates(self):
        a = CommPhaseResult(elapsed=1.0, local_time=0.5, remote_time=1.0,
                            local_messages=1, remote_messages=2,
                            local_bytes=10, remote_bytes=20)
        b = CommPhaseResult(elapsed=2.0, local_time=0.25, remote_time=0.5,
                            local_messages=3, remote_messages=4,
                            local_bytes=30, remote_bytes=40)
        a.merge(b)
        assert a.elapsed == 3.0
        assert a.local_messages == 4
        assert a.remote_bytes == 60
