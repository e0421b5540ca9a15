"""Unit tests for the message cost model."""

from __future__ import annotations

from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsys import (
    GroupSpec,
    SystemSpec,
    TopologySpec,
    build_system,
    fat_tree,
    multi_site_spec,
    ring,
    star,
    wan_spec,
)
from repro.distsys.comm import (
    CommGeometry,
    CommPhaseResult,
    MessageBatch,
    MessageKind,
    comm_phase_time,
)
from repro.distsys.traffic import ConstantTraffic


@dataclass(frozen=True)
class Message:
    """One point-to-point message: the reference's input, one per object."""

    src: int
    dst: int
    nbytes: float
    kind: MessageKind


def from_messages(messages):
    """The same messages as one :class:`MessageBatch`, in order."""
    return MessageBatch.concatenate(
        MessageBatch.of_kind([m.src], [m.dst], [m.nbytes], m.kind)
        for m in messages)


def phase(system, messages, time=0.0):
    return comm_phase_time(system, from_messages(messages), time)


@pytest.fixture
def system():
    return build_system(wan_spec(2), traffic=ConstantTraffic(0.0))


def wan_params(system, t=0.0):
    link = system.route_between(0, 1).links[0]
    return link.alpha(t), link.beta(t), link.per_message_overhead


class TestMessage:
    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            MessageBatch.of_kind([0, 1], [1, 0], [5.0, -5.0], MessageKind.SIBLING)
        with pytest.raises(ValueError, match="lengths differ"):
            MessageBatch.of_kind([0, 1], [1], [5.0, 5.0], MessageKind.SIBLING)
        with pytest.raises(ValueError, match="lengths differ"):
            MessageBatch([0], [1], [5.0], [0, 0])

    def test_kinds_cover_taxonomy(self):
        assert {k.value for k in MessageKind} == {
            "sibling", "parent_child", "migration", "probe", "control",
        }


class TestCommPhaseTime:
    def test_empty_phase_free(self):
        r = comm_phase_time(build_system(wan_spec(1)), MessageBatch.empty(), 0.0)
        assert r.elapsed == 0.0

    def test_self_message_free(self, system):
        r = phase(system, [Message(0, 0, 1e6, MessageKind.SIBLING)])
        assert r.elapsed == 0.0
        assert r.local_messages == 0

    def test_single_remote_message(self, system):
        alpha, beta, oh = wan_params(system)
        r = phase(system, [Message(0, 2, 1000, MessageKind.SIBLING)])
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.remote_messages == 1
        assert r.remote_bytes == 1000

    def test_same_pair_bundled_single_latency(self, system):
        alpha, beta, oh = wan_params(system)
        msgs = [
            Message(0, 2, 1000, MessageKind.SIBLING),
            Message(0, 2, 3000, MessageKind.PARENT_CHILD),
        ]
        r = phase(system, msgs)
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
        r = phase(system, msgs)
        assert r.elapsed == pytest.approx(alpha + 2 * oh + 2000 * beta)

    def test_links_run_concurrently(self, system):
        """A local and a remote transfer overlap; the WAN dominates."""
        alpha, beta, oh = wan_params(system)
        msgs = [
            Message(0, 2, 1000, MessageKind.SIBLING),  # WAN
            Message(0, 1, 1000, MessageKind.SIBLING),  # intra group 0
        ]
        r = phase(system, msgs)
        assert r.elapsed == pytest.approx(alpha + oh + 1000 * beta)
        assert r.local_time > 0
        assert r.remote_time > r.local_time

    def test_local_vs_remote_classification(self, system):
        msgs = [
            Message(0, 1, 10, MessageKind.SIBLING),
            Message(2, 3, 20, MessageKind.SIBLING),
            Message(1, 2, 30, MessageKind.SIBLING),
        ]
        r = phase(system, msgs)
        assert r.local_messages == 2
        assert r.remote_messages == 1
        assert r.local_bytes == 30
        assert r.remote_bytes == 30

    def test_traffic_slows_transfers(self):
        quiet = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        busy = build_system(wan_spec(2), traffic=ConstantTraffic(0.6))
        msgs = [Message(0, 2, 1e6, MessageKind.MIGRATION)]
        assert phase(busy, msgs).elapsed > phase(quiet, msgs).elapsed


# --------------------------------------------------------------------- #
# reference: the per-message loop the array accounting replaced
# --------------------------------------------------------------------- #


def _phase_time_reference(system, messages, time):
    """One phase costed message by message, in dict insertion order.

    Each bundle's links come from the system itself -- ``route_between``
    for a remote pair, the group's ``intra_link`` for a local one -- not
    from :class:`CommGeometry`, so agreeing with :func:`comm_phase_time`
    also checks the geometry's CSR route tables.
    """
    bundles = {}
    result = CommPhaseResult()
    for msg in messages:
        if msg.src == msg.dst:
            continue  # self-message: no network cost
        bundles[(msg.src, msg.dst)] = bundles.get((msg.src, msg.dst), 0.0) + msg.nbytes
        if system.pid_groups[msg.src] != system.pid_groups[msg.dst]:
            result.remote_messages += 1
            result.remote_bytes += msg.nbytes
            kind = msg.kind.value
            result.remote_bytes_by_kind[kind] = (
                result.remote_bytes_by_kind.get(kind, 0.0) + msg.nbytes
            )
        else:
            result.local_messages += 1
            result.local_bytes += msg.nbytes

    # every link of a bundle's route carries its bytes; the first and last
    # link pay the per-bundle overhead; a link's remote flag is that of
    # the last bundle crossing it
    per_link = {}  # id(link) -> [link, remote, bytes, nendpoint]
    for (src, dst), nbytes in bundles.items():
        ga = system.processor(src).group_id
        gb = system.processor(dst).group_id
        remote = ga != gb
        links = (system.route_between(ga, gb).links if remote
                 else (system.groups[ga].intra_link,))
        for hop, link in enumerate(links):
            endp = 1 if hop in (0, len(links) - 1) else 0
            rec = per_link.get(id(link))
            if rec is None:
                per_link[id(link)] = [link, remote, nbytes, endp]
            else:
                rec[1] = remote
                rec[2] += nbytes
                rec[3] += endp

    elapsed = 0.0
    for link, remote, nbytes, nendp in per_link.values():
        busy = (link.alpha(time) + nendp * link.per_message_overhead
                + nbytes * link.beta(time))
        if remote:
            result.remote_time += busy
        else:
            result.local_time += busy
        elapsed = max(elapsed, busy)
    result.elapsed = elapsed
    return result


def _topology_spec(topo: TopologySpec) -> SystemSpec:
    return SystemSpec(
        groups=tuple(GroupSpec(nprocs=2, name=n) for n in topo.groups),
        topology=topo)


#: one-link routes (a two-group WAN, a shared-backbone star, a mesh of
#: independent links) and multi-hop graphs (a switched star, a ring, and a
#: fat tree whose four-link routes have interior hops that pay no
#: per-bundle overhead)
REFERENCE_SYSTEMS = {
    "wan": wan_spec(2),
    "shared-star": SystemSpec(groups=(2, 2, 2)),
    "mesh": multi_site_spec([2, 2, 2]),
    "star3": _topology_spec(star(3)),
    "ring4": _topology_spec(ring(4)),
    "fat-tree": _topology_spec(fat_tree(4)),
}


@st.composite
def _phases(draw, nprocs):
    pid = st.integers(0, nprocs - 1)
    nbytes = st.one_of(
        st.just(0.0),
        st.integers(1, 10**6).map(float),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    kind = st.sampled_from(list(MessageKind))
    msgs = draw(st.lists(st.builds(Message, pid, pid, nbytes, kind),
                         max_size=40))
    # repeated pairs and self-sends on top of what the draw produced
    repeats = draw(st.lists(st.sampled_from(msgs), max_size=8)) if msgs else []
    selfs = draw(st.lists(st.builds(lambda p, b, k: Message(p, p, b, k),
                                    pid, nbytes, kind), max_size=3))
    return draw(st.permutations(msgs + repeats + selfs))


class TestMatchesReference:
    """:func:`comm_phase_time` equals the per-message reference exactly:
    every :class:`CommPhaseResult` field, and the key order of
    ``remote_bytes_by_kind``."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
    @given(data=st.data(), time=st.sampled_from([0.0, 0.5, 37.25]))
    @settings(max_examples=40, deadline=None)
    def test_every_field_matches(self, name, data, time):
        system = build_system(REFERENCE_SYSTEMS[name],
                              traffic=ConstantTraffic(0.3))
        msgs = data.draw(_phases(system.nprocs))
        expected = _phase_time_reference(system, msgs, time)
        batch = from_messages(msgs)
        for geometry in (None, CommGeometry(system)):
            got = comm_phase_time(system, batch, time, geometry=geometry)
            for f in fields(CommPhaseResult):
                assert getattr(got, f.name) == getattr(expected, f.name), f.name
            assert (list(got.remote_bytes_by_kind)
                    == list(expected.remote_bytes_by_kind))
