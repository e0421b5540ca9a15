"""The network-topology layer: graphs, routes, contention, degeneracy.

Covers the contract promised by ``docs/TOPOLOGY.md``:

* route tables are a pure function of the edge list (deterministic across
  independent rebuilds, seeded random graphs included);
* routes are symmetric -- ``route(b, a)`` is ``route(a, b)`` reversed;
* multi-hop cost is ``alpha`` summed over distinct links, ``beta`` from the
  bottleneck link, per-message overhead paid at the endpoint links only;
* bytes from every route crossing an edge aggregate into that edge's busy
  time (shared-edge contention);
* specs without a topology resolve to a star (one shared backbone ``Link``
  on every spoke) or a complete mesh of per-pair links;
* fault schedules can target individual edges by name.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.distsys import (
    EdgeSpec,
    GroupSpec,
    NetworkTopology,
    SystemSpec,
    TopologySpec,
    build_system,
    fat_tree,
    from_edges,
    multi_site_spec,
    ring,
    star,
    torus,
    wan_mesh,
    wan_spec,
)
from repro.distsys.comm import MessageBatch, MessageKind, comm_phase_time
from repro.distsys.topology import degenerate_topology, resolve_topology
from repro.distsys.traffic import ConstantTraffic
from repro.faults.schedule import FaultSchedule, LinkDegradationFault


def _spec_for(topo_spec: TopologySpec, nprocs: int = 1) -> SystemSpec:
    """A SystemSpec with one ``nprocs``-processor group per topology node."""
    return SystemSpec(
        groups=tuple(GroupSpec(name=n, nprocs=nprocs) for n in topo_spec.groups),
        topology=topo_spec,
    )


def _random_topology_spec(rng: random.Random) -> TopologySpec:
    """A seeded random connected graph: spanning tree + extra chords."""
    ngroups = rng.randint(2, 6)
    nswitches = rng.randint(0, 3)
    groups = tuple(f"g{i}" for i in range(ngroups))
    switches = tuple(f"s{i}" for i in range(nswitches))
    nodes = list(groups + switches)
    edges = []

    def _edge(u, v):
        name = f"e{len(edges)}"
        # random latencies force non-trivial Dijkstra decisions
        return EdgeSpec(u=u, v=v, name=name, link=rng.choice(
            ("gigabit-lan", "mren-wan")),
            latency=rng.uniform(1e-4, 1e-2))

    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, len(order)):  # spanning tree: connected by construction
        edges.append(_edge(order[i], order[rng.randrange(i)]))
    have = {frozenset((e.u, e.v)) for e in edges}
    for _ in range(rng.randint(0, 4)):  # chords
        u, v = rng.sample(nodes, 2)
        if frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            edges.append(_edge(u, v))
    return TopologySpec(groups=groups, switches=switches, edges=tuple(edges))


SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


class TestRouteDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rebuild_yields_identical_route_table(self, seed):
        spec = _random_topology_spec(random.Random(seed))
        first = resolve_topology(spec).route_table()
        second = resolve_topology(spec).route_table()
        assert first == second

    @pytest.mark.parametrize("seed", SEEDS)
    def test_json_round_trip_preserves_routes(self, seed):
        spec = _random_topology_spec(random.Random(seed))
        restored = TopologySpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert (resolve_topology(restored).route_table()
                == resolve_topology(spec).route_table())

    def test_routes_ignore_traffic_weather(self):
        """Dijkstra weighs zero-load latency only: background traffic must
        never reroute (fault overlays rely on this)."""
        spec = star(4)
        idle = resolve_topology(spec)
        stormy = resolve_topology(spec, ConstantTraffic(0.9))
        assert idle.route_table() == stormy.route_table()


class TestRouteGeometry:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_routes_are_symmetric(self, seed):
        topo = resolve_topology(_random_topology_spec(random.Random(seed)))
        for a in range(topo.ngroups):
            for b in range(topo.ngroups):
                if a == b:
                    continue
                fwd = topo.route(a, b).edge_names()
                rev = topo.route(b, a).edge_names()
                assert fwd == tuple(reversed(rev))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_routes_connect_their_endpoints(self, seed):
        topo = resolve_topology(_random_topology_spec(random.Random(seed)))
        for a in range(topo.ngroups):
            for b in range(topo.ngroups):
                if a == b:
                    continue
                route = topo.route(a, b)
                na, nb = topo.group_nodes[a], topo.group_nodes[b]
                assert na in (route.edges[0].u, route.edges[0].v)
                assert nb in (route.edges[-1].u, route.edges[-1].v)

    def test_route_rejects_self_pair(self):
        topo = resolve_topology(star(3))
        with pytest.raises(ValueError):
            topo.route(1, 1)

    def test_disconnected_graph_rejected(self):
        spec = TopologySpec(
            groups=("a", "b", "c"),
            edges=(EdgeSpec(u="a", v="b"),),  # c unreachable
        )
        with pytest.raises(ValueError, match="no path"):
            resolve_topology(spec)


class TestRouteCost:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_alpha_sums_beta_bottlenecks(self, seed):
        topo = resolve_topology(_random_topology_spec(random.Random(seed)))
        for a in range(topo.ngroups):
            for b in range(a + 1, topo.ngroups):
                route = topo.route(a, b)
                assert route.alpha(0.0) == pytest.approx(
                    sum(lk.alpha(0.0) for lk in route.links))
                assert route.beta(0.0) == pytest.approx(
                    max(lk.beta(0.0) for lk in route.links))

    def test_overhead_paid_at_endpoints_only(self):
        # g0 -- s0 -- s1 -- g1: three edges, overhead from first + last
        spec = TopologySpec(
            groups=("g0", "g1"), switches=("s0", "s1"),
            edges=(EdgeSpec(u="g0", v="s0"), EdgeSpec(u="s0", v="s1"),
                   EdgeSpec(u="s1", v="g1")),
        )
        route = resolve_topology(spec).route(0, 1)
        assert len(route.links) == 3
        assert route.per_message_overhead == pytest.approx(
            route.links[0].per_message_overhead
            + route.links[-1].per_message_overhead)

    def test_single_link_route_matches_link_exactly(self):
        """The degenerate path must delegate to Link.transfer_time so the
        two-level goldens stay bit-for-bit."""
        topo = resolve_topology(wan_mesh(2))
        route = topo.route(0, 1)
        link = route.links[0]
        for nbytes in (0, 64, 1.5e6):
            assert route.transfer_time(nbytes, 2.0) == link.transfer_time(
                nbytes, 2.0)

    def test_multi_hop_transfer_time_formula(self):
        spec = TopologySpec(
            groups=("g0", "g1"), switches=("hub",),
            edges=(EdgeSpec(u="g0", v="hub"), EdgeSpec(u="hub", v="g1")),
        )
        route = resolve_topology(spec).route(0, 1)
        nbytes = 4096.0
        expected = (route.alpha(0.0) + route.per_message_overhead
                    + nbytes * route.beta(0.0))
        assert route.transfer_time(nbytes, 0.0) == pytest.approx(expected)


class TestSharedEdgeContention:
    def _star_system(self):
        return build_system(_spec_for(star(3)))

    def test_shared_spoke_aggregates_bytes(self):
        """Two bundles 0->1 and 0->2 both cross g0's spoke: its busy time
        carries the *sum* of their bytes plus both bundles' overheads."""
        system = self._star_system()
        topo = system.topology
        spoke = topo.route(0, 1).links[0]   # g0 -- hub
        b1, b2 = 10_000.0, 30_000.0
        msgs = MessageBatch.of_kind([0, 0], [1, 2], [b1, b2], MessageKind.SIBLING)
        r = comm_phase_time(system, msgs, 0.0)
        shared_busy = (spoke.alpha(0.0) + 2 * spoke.per_message_overhead
                       + (b1 + b2) * spoke.beta(0.0))
        assert r.elapsed == pytest.approx(shared_busy)

    def test_disjoint_routes_do_not_contend(self):
        """1->0 and 2->0 enter over distinct spokes but share g0's spoke as
        the terminal hop -- while 1->2 avoids g0's spoke entirely."""
        system = self._star_system()
        topo = system.topology
        spoke1 = topo.route(1, 2).links[0]  # g1 -- hub
        nbytes = 5_000.0
        r = comm_phase_time(
            system, MessageBatch.of_kind([1], [2], [nbytes], MessageKind.SIBLING),
            0.0)
        busy = (spoke1.alpha(0.0) + spoke1.per_message_overhead
                + nbytes * spoke1.beta(0.0))
        assert r.elapsed == pytest.approx(busy)


class TestDegenerateDerivation:
    """Specs without a topology resolve to a star or mesh of one-link
    routes."""

    def test_wan_resolves_to_single_shared_edge(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        topo = system.topology
        assert len(topo.edges) == 1
        assert system.route_between(0, 1).links == (topo.edges[0].link,)

    def test_shared_link_three_groups_becomes_star(self):
        shared = build_system(wan_spec(1), traffic=ConstantTraffic(0.0)
                              ).route_between(0, 1).links[0]
        topo = degenerate_topology(["a", "b", "c"],
                                   {(i, j): shared
                                    for i in range(3) for j in range(3)
                                    if i != j})
        assert "backbone" in topo.nodes
        # every spoke IS the one physical medium
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert topo.route(a, b).links == (shared,)

    def test_multi_site_keeps_per_pair_identity(self):
        system = build_system(multi_site_spec([1, 1, 1]), traffic=ConstantTraffic(0.0))
        topo = system.topology
        assert len(topo.edges) == 3  # complete mesh, one edge per pair
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert (system.route_between(a, b).links
                            == (topo.route(min(a, b), max(a, b)).edges[0].link,))
        assert len({id(e.link) for e in topo.edges}) == 3

    def test_group_neighbors_complete_on_degenerate(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        assert system.group_neighbors(0) == (1,)

    def test_group_neighbors_follow_graph(self):
        system = build_system(_spec_for(ring(4)))
        assert system.group_neighbors(0) == (1, 3)
        assert system.group_neighbors(2) == (1, 3)


class TestFaultEdgeAddressing:
    def _ring_system(self):
        return build_system(_spec_for(ring(4)), traffic=ConstantTraffic(0.1))

    def test_named_edge_degraded_others_untouched(self):
        system = self._ring_system()
        target = system.topology.edges[0].name
        faulted = FaultSchedule([
            LinkDegradationFault(start=0.0, end=5.0, occupancy=0.6,
                                 edge=target)
        ]).apply(system)
        hit = faulted.topology.edge_named(target).link
        assert hit.traffic.occupancy(1.0) == pytest.approx(0.7)
        assert hit.traffic.occupancy(6.0) == pytest.approx(0.1)
        for e in faulted.topology.edges:
            if e.name != target:
                assert e.link.traffic.occupancy(1.0) == pytest.approx(0.1)

    def test_routes_unchanged_under_degradation(self):
        system = self._ring_system()
        target = system.topology.edges[0].name
        faulted = FaultSchedule([
            LinkDegradationFault(start=0.0, end=5.0, occupancy=0.6,
                                 edge=target)
        ]).apply(system)
        assert (faulted.topology.route_table()
                == system.topology.route_table())

    def test_unknown_edge_name_rejected(self):
        system = self._ring_system()
        with pytest.raises(ValueError, match="edge"):
            FaultSchedule([
                LinkDegradationFault(start=0.0, end=1.0, edge="nope")
            ]).apply(system)

    def test_edge_and_groups_together_rejected(self):
        with pytest.raises(ValueError):
            LinkDegradationFault(groups=(0, 1), edge="e0")


class TestBuilders:
    def test_star_shape(self):
        spec = star(5)
        assert len(spec.groups) == 5
        assert spec.switches == ("hub",)
        assert len(spec.edges) == 5

    def test_ring_shape_and_validation(self):
        assert len(ring(4).edges) == 4
        with pytest.raises(ValueError):
            ring(2)

    def test_torus_shape(self):
        spec = torus((2, 3))
        assert len(spec.groups) == 6
        assert len(spec.edges) == 9  # 3 edges along dim0 pairs + 6 rings
        # extent-1 dims dropped, extent-2 dims single-edged
        assert len(torus((1, 4)).edges) == 4

    def test_torus_rejects_degenerate(self):
        with pytest.raises(ValueError):
            torus((1, 1))

    def test_fat_tree_shape(self):
        spec = fat_tree(4)
        assert len(spec.groups) == 8  # k * k/2
        assert len(spec.switches) == 6  # 4 pods + 2 cores
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_wan_mesh_shape(self):
        assert len(wan_mesh(4).edges) == 6
        with pytest.raises(ValueError):
            wan_mesh(1)

    def test_from_edges_accepts_dicts(self):
        spec = from_edges(
            groups=("a", "b"),
            edges=[{"u": "a", "v": "b", "link": "mren-wan"}],
        )
        assert spec.edges[0].name == "a--b"
        assert resolve_topology(spec).route(0, 1).edge_names() == ("a--b",)

    def test_duplicate_edge_names_rejected(self):
        with pytest.raises(ValueError, match="[Dd]uplicate"):
            TopologySpec(
                groups=("a", "b"),
                edges=(EdgeSpec(u="a", v="b", name="e"),
                       EdgeSpec(u="b", v="a", name="e")),
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(groups=("a", "b"),
                         edges=(EdgeSpec(u="a", v="zz"),))


class TestSpecIntegration:
    def test_system_spec_round_trips_with_topology(self):
        spec = _spec_for(torus((2, 2)), nprocs=2)
        restored = SystemSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_topology_key_absent_for_two_level_specs(self):
        """Pre-topology cache keys must not change: the field is omitted."""
        from repro.distsys import wan_spec

        assert "topology" not in wan_spec(2).to_dict()

    def test_group_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group"):
            SystemSpec(groups=(GroupSpec(nprocs=1),), topology=star(3))

    def test_unknown_topology_field_rejected(self):
        data = star(2).to_dict()
        data["colour"] = "red"
        with pytest.raises(ValueError, match="unknown"):
            TopologySpec.from_dict(data)

    def test_explicit_topology_rejects_mismatched_groups(self):
        with pytest.raises(ValueError):
            NetworkTopology(nodes=("a",), group_nodes=(0, 0), edges=())
