"""Unit tests for network links and presets."""

from __future__ import annotations

import pytest

from repro.distsys import build_system, wan_spec
from repro.distsys.comm import MessageBatch, MessageKind, comm_phase_time
from repro.distsys.network import (
    MAX_OCCUPANCY,
    Link,
    gigabit_lan,
    mren_wan,
    origin2000_interconnect,
)
from repro.distsys.traffic import ConstantTraffic, NoTraffic
from repro.faults import FaultSchedule, LinkDegradationFault


def _link_phase_time_reference(link: Link, nbundles: int, nbytes: float,
                               time: float) -> float:
    """The per-link cost of a bulk-synchronous phase with ``nbundles``
    simultaneous pairwise transfers totalling ``nbytes``: propagation
    latency once (transfers overlap in flight), the hosts' per-bundle
    software overhead and the medium's bytes serialized.  The reference
    formula :func:`comm_phase_time` must reproduce on a one-link route."""
    if nbundles == 0:
        return 0.0
    return (link.alpha(time) + nbundles * link.per_message_overhead
            + nbytes * link.beta(time))


class _SaturatedTraffic:
    """A hostile traffic model reporting occupancy >= 1 (or < 0)."""

    def __init__(self, level: float):
        self.level = level

    def occupancy(self, time: float) -> float:
        return self.level


class TestLink:
    def test_transfer_time_is_alpha_plus_beta_l(self):
        link = Link("test", latency=0.01, bandwidth=1e6)
        assert link.transfer_time(0, 0.0) == pytest.approx(0.01)
        assert link.transfer_time(1e6, 0.0) == pytest.approx(1.01)

    def test_beta_is_inverse_rate(self):
        link = Link("test", latency=0.0, bandwidth=2e6)
        assert link.beta(0.0) == pytest.approx(5e-7)

    def test_occupancy_reduces_bandwidth(self):
        link = Link("test", latency=0.001, bandwidth=1e6,
                    traffic=ConstantTraffic(0.5))
        assert link.effective_bandwidth(0.0) == pytest.approx(5e5)

    def test_occupancy_inflates_latency(self):
        link = Link("t", latency=0.001, bandwidth=1e6,
                    traffic=ConstantTraffic(0.5), latency_load_factor=4.0)
        assert link.effective_latency(0.0) == pytest.approx(0.003)

    def test_dedicated_link_unaffected(self):
        link = Link("t", latency=0.001, bandwidth=1e6, traffic=NoTraffic())
        assert link.alpha(100.0) == 0.001
        assert link.effective_bandwidth(100.0) == 1e6

    def test_negative_bytes_raise(self):
        link = Link("t", latency=0.0, bandwidth=1e6)
        with pytest.raises(ValueError):
            link.transfer_time(-1, 0.0)

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            Link("t", latency=-1, bandwidth=1e6)
        with pytest.raises(ValueError):
            Link("t", latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            Link("t", latency=0, bandwidth=1, latency_load_factor=-1)


class TestPresets:
    def test_ordering_of_latencies(self):
        """Origin interconnect << LAN << WAN, as in the paper's testbed."""
        assert (
            origin2000_interconnect().latency
            < gigabit_lan().latency
            < mren_wan().latency
        )

    def test_ordering_of_bandwidths(self):
        assert (
            origin2000_interconnect().bandwidth
            > gigabit_lan().bandwidth
            > mren_wan().bandwidth
        )

    def test_origin_is_dedicated(self):
        link = origin2000_interconnect()
        assert isinstance(link.traffic, NoTraffic)

    def test_presets_accept_traffic(self):
        t = ConstantTraffic(0.3)
        assert gigabit_lan(t).traffic is t
        assert mren_wan(t).traffic is t

    def test_wan_transfer_dominated_by_latency_for_small_messages(self):
        wan = mren_wan()
        t = wan.transfer_time(64, 0.0)
        assert t == pytest.approx(wan.latency + wan.per_message_overhead, rel=0.01)

    def test_phase_time_components(self):
        """On a one-link route a phase costs the link's alpha once, one
        overhead per bundle and the bytes at the link's rate."""
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.3))
        link = system.route_between(0, 1).links[0]
        # three bundles (pid pairs), all crossing the one inter-group link
        msgs = MessageBatch.of_kind([0, 0, 1], [2, 3, 2], [4e5, 3e5, 3e5],
                                    MessageKind.SIBLING)
        assert comm_phase_time(system, msgs, 5.0).elapsed == pytest.approx(
            _link_phase_time_reference(link, 3, 1e6, 5.0))
        assert comm_phase_time(system, MessageBatch.empty(), 5.0).elapsed == 0.0
        assert _link_phase_time_reference(link, 0, 0.0, 5.0) == 0.0

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            Link("t", latency=0.0, bandwidth=1e6, per_message_overhead=-1)


class TestOccupancyClamp:
    """Regression: occupancy >= 1 must not zero (or negate) the bandwidth.

    A traffic model reporting full saturation previously made
    ``effective_bandwidth`` zero and ``beta`` infinite -- a divide-by-zero
    waiting to happen in every phase-time sum.  The clamp keeps a saturated
    link a (very) slow link.
    """

    def test_saturated_traffic_keeps_bandwidth_positive(self):
        link = Link("t", latency=0.001, bandwidth=1e6,
                    traffic=_SaturatedTraffic(1.0))
        assert link.occupancy(0.0) == pytest.approx(MAX_OCCUPANCY)
        assert link.effective_bandwidth(0.0) > 0.0
        assert link.beta(0.0) < float("inf")

    def test_oversaturated_traffic_clamped(self):
        link = Link("t", latency=0.001, bandwidth=1e6,
                    traffic=_SaturatedTraffic(3.5))
        assert link.occupancy(123.0) == pytest.approx(MAX_OCCUPANCY)
        t = link.transfer_time(1024, 123.0)
        assert t > 0.0 and t < float("inf")

    def test_negative_occupancy_clamped_to_idle(self):
        link = Link("t", latency=0.001, bandwidth=1e6,
                    traffic=_SaturatedTraffic(-0.25))
        assert link.occupancy(0.0) == 0.0
        assert link.effective_bandwidth(0.0) == pytest.approx(1e6)

    def test_degraded_link_overlay_stays_finite(self):
        """A fault overlay stacking on heavy traffic must stay finite."""
        system = build_system(wan_spec(2), traffic=_SaturatedTraffic(0.999))
        # the fault schedule composes a degradation overlay onto the link's
        # traffic; the phase cost must remain positive and finite
        degraded = FaultSchedule([LinkDegradationFault(occupancy=0.9)]).apply(system)
        link = degraded.route_between(0, 1).links[0]
        msgs = MessageBatch.of_kind([0, 0, 1, 1], [2, 3, 2, 3], [2.5e5] * 4,
                                    MessageKind.SIBLING)
        t = comm_phase_time(degraded, msgs, 0.0).elapsed
        assert 0.0 < t < float("inf")
        assert t == pytest.approx(_link_phase_time_reference(link, 4, 1e6, 0.0))

    def test_clamp_is_noop_for_builtin_models(self):
        """Occupancies inside [0, MAX_OCCUPANCY] must pass the clamp
        bit-for-bit (golden safety); only the link applies the ceiling."""
        for level in (0.0, 0.3, MAX_OCCUPANCY):
            link = Link("t", latency=0.001, bandwidth=1e6,
                        traffic=ConstantTraffic(level))
            assert link.occupancy(7.0) == level
