"""Arbitrary network topologies: weighted graphs with routed communication.

The paper's distributed-system model (Section 4.2) is a two-level
federation: one intra link per group, one direct inter link per group pair.
This module generalizes that to an arbitrary weighted graph in the spirit of
Demirel & Sbalzarini ("Balancing indivisible real-valued loads in arbitrary
networks"): nodes are processor groups and switches, edges carry
:class:`~repro.distsys.network.Link` cost models, and every group pair
communicates over a deterministic precomputed shortest route.

Cost semantics (see ``docs/TOPOLOGY.md``):

* **Routing** -- Dijkstra on zero-load edge latency with stable tie-breaks
  (fewer hops, then lowest node index), computed once per unordered group
  pair and reversed for the opposite direction, so route tables are
  deterministic and symmetric by construction.
* **Path cost** -- a message over a route pays ``alpha`` summed over the
  route's distinct links, per-message software overhead at the two endpoint
  links only, and ``nbytes * beta`` of the *bottleneck* (max-beta) link.
* **Contention** -- within a bulk-synchronous phase, the bytes of every
  bundle whose route traverses an edge aggregate into that edge's phase
  cost, so two site pairs sharing a backbone edge serialize on it.
* **Degeneracy** -- the paper's two-level federation is the special case
  where every route has exactly one distinct link: a shared inter link is a
  star through one backbone (every spoke *is* the shared ``Link`` object),
  independent per-pair links are a complete mesh.  A
  :class:`~repro.distsys.spec.SystemSpec` without a ``topology`` resolves
  to one of the two (:func:`degenerate_topology`); for a one-link route
  the routed cost is exactly the paper's ``alpha + beta * L``.

Edges on a route that share one ``Link`` object are one physical medium and
are therefore costed once (``Route.links`` deduplicates by identity), which
is how the star of a shared inter link keeps every pair on one medium.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .network import Link
from .traffic import TrafficModel

__all__ = [
    "EdgeSpec",
    "TopologySpec",
    "TopologyEdge",
    "Route",
    "NetworkTopology",
    "star",
    "ring",
    "torus",
    "fat_tree",
    "wan_mesh",
    "from_edges",
    "degenerate_topology",
]


# --------------------------------------------------------------------- #
# plain-data specs (JSON-serializable, mirror of GroupSpec/SystemSpec)
# --------------------------------------------------------------------- #

_EDGE_FIELDS = ("u", "v", "name", "link", "latency", "bandwidth",
                "per_message_overhead", "dedicated")
_TOPOLOGY_FIELDS = ("groups", "switches", "edges")


@dataclass(frozen=True)
class EdgeSpec:
    """One edge of a :class:`TopologySpec`.

    Parameters
    ----------
    u, v:
        Names of the two endpoint nodes (group nodes or switches).
    name:
        Unique edge label (fault targeting, reports); defaults to
        ``"{u}--{v}"``.
    link:
        Link preset (:data:`~repro.distsys.spec.LINK_PRESETS`) providing
        the cost model.
    latency, bandwidth, per_message_overhead:
        Optional overrides of the preset's parameters.
    dedicated:
        ``True`` keeps the runtime background-traffic model off this edge
        (a private line); shared edges carry the experiment's traffic.
    """

    u: str
    v: str
    name: str = ""
    link: str = "mren-wan"
    latency: Optional[float] = None
    bandwidth: Optional[float] = None
    per_message_overhead: Optional[float] = None
    dedicated: bool = False

    def __post_init__(self) -> None:
        if not self.u or not self.v:
            raise ValueError("edge endpoints must be non-empty node names")
        if self.u == self.v:
            raise ValueError(f"self-edge at node {self.u!r}")
        if not self.name:
            object.__setattr__(self, "name", f"{self.u}--{self.v}")
        if self.latency is not None and self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def to_dict(self) -> Dict[str, Any]:
        return {f: getattr(self, f) for f in _EDGE_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EdgeSpec":
        unknown = set(data) - set(_EDGE_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown EdgeSpec fields: {sorted(unknown)}; "
                f"expected a subset of {_EDGE_FIELDS}"
            )
        if "u" not in data or "v" not in data:
            raise ValueError("EdgeSpec needs 'u' and 'v'")
        return cls(**data)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative network graph: group nodes, switch nodes, weighted edges.

    ``groups`` names the node of each processor group *in group order* (the
    ``i``-th entry is group ``i``'s attachment point); ``switches`` are
    pure routing nodes carrying no processors.  Embedded in a
    :class:`~repro.distsys.spec.SystemSpec` as its optional ``topology``
    field and resolved by :func:`~repro.distsys.system.build_system`.
    """

    groups: Tuple[str, ...] = ()
    switches: Tuple[str, ...] = ()
    edges: Tuple[EdgeSpec, ...] = ()

    def __post_init__(self) -> None:
        groups = tuple(str(g) for g in self.groups)
        switches = tuple(str(s) for s in self.switches)
        edges = tuple(
            e if isinstance(e, EdgeSpec) else EdgeSpec.from_dict(dict(e))
            for e in self.edges
        )
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "switches", switches)
        object.__setattr__(self, "edges", edges)
        if not groups:
            raise ValueError("a TopologySpec needs at least one group node")
        nodes = groups + switches
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names in {nodes}")
        names = [e.name for e in edges]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate edge names: {dupes}")
        known = set(nodes)
        for e in edges:
            missing = {e.u, e.v} - known
            if missing:
                raise ValueError(
                    f"edge {e.name!r} references unknown node(s) "
                    f"{sorted(missing)}"
                )

    @property
    def ngroups(self) -> int:
        return len(self.groups)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "groups": list(self.groups),
            "switches": list(self.switches),
            "edges": [e.to_dict() for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologySpec":
        unknown = set(data) - set(_TOPOLOGY_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown TopologySpec fields: {sorted(unknown)}; "
                f"expected a subset of {_TOPOLOGY_FIELDS}"
            )
        return cls(
            groups=tuple(data.get("groups", ())),
            switches=tuple(data.get("switches", ())),
            edges=tuple(
                EdgeSpec.from_dict(e) if isinstance(e, dict) else e
                for e in data.get("edges", ())
            ),
        )


# --------------------------------------------------------------------- #
# runtime graph
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TopologyEdge:
    """One resolved edge: endpoint node indices plus the live link."""

    name: str
    u: int
    v: int
    link: Link


class Route:
    """The path a message between two groups takes.

    ``edges`` is the hop sequence; ``links`` the *distinct* underlying
    :class:`Link` objects in first-traversal order (hops sharing one
    physical medium -- the degenerate star's spokes -- are costed once).
    """

    __slots__ = ("edges", "links")

    def __init__(self, edges: Sequence[TopologyEdge]) -> None:
        self.edges: Tuple[TopologyEdge, ...] = tuple(edges)
        if not self.edges:
            raise ValueError("a route needs at least one edge")
        seen: Dict[int, None] = {}
        links: List[Link] = []
        for e in self.edges:
            if id(e.link) not in seen:
                seen[id(e.link)] = None
                links.append(e.link)
        self.links: Tuple[Link, ...] = tuple(links)

    def __len__(self) -> int:
        return len(self.edges)

    def edge_names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.edges)

    def alpha(self, time: float) -> float:
        """Propagation latency: summed over the route's distinct links."""
        total = 0.0
        for link in self.links:
            total += link.alpha(time)
        return total

    def beta(self, time: float) -> float:
        """Transfer rate (s/byte): the bottleneck (max-beta) link's."""
        worst = 0.0
        for link in self.links:
            b = link.beta(time)
            if b > worst:
                worst = b
        return worst

    @property
    def per_message_overhead(self) -> float:
        """Software send/receive cost: paid at the endpoint links only."""
        if len(self.links) == 1:
            return self.links[0].per_message_overhead
        return (self.links[0].per_message_overhead
                + self.links[-1].per_message_overhead)

    def transfer_time(self, nbytes: float, time: float) -> float:
        """``Tcomm = alpha + beta * L`` over the route for one message.

        On a one-link route every term is the link's own, so this equals
        :meth:`~repro.distsys.network.Link.transfer_time` exactly.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return (self.alpha(time) + self.per_message_overhead
                + nbytes * self.beta(time))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Route({' > '.join(self.edge_names())})"


class NetworkTopology:
    """A resolved network graph with precomputed deterministic route tables.

    Parameters
    ----------
    nodes:
        All node names; the first ``len(group_nodes)`` conventionally are
        the group attachment points but any order is accepted.
    group_nodes:
        Node index of each processor group, in group order.
    edges:
        The resolved edges.  Multiple edges may share one :class:`Link`
        object (one physical medium with several logical attachments).
    """

    def __init__(
        self,
        nodes: Sequence[str],
        group_nodes: Sequence[int],
        edges: Sequence[TopologyEdge],
    ) -> None:
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.group_nodes: Tuple[int, ...] = tuple(int(g) for g in group_nodes)
        self.edges: Tuple[TopologyEdge, ...] = tuple(edges)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node names: {self.nodes}")
        if not self.group_nodes:
            raise ValueError("a topology needs at least one group node")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate edge names: {dupes}")
        nnodes = len(self.nodes)
        for e in self.edges:
            if not (0 <= e.u < nnodes and 0 <= e.v < nnodes):
                raise ValueError(f"edge {e.name!r} references unknown nodes")
            if e.u == e.v:
                raise ValueError(f"self-edge at node {self.nodes[e.u]!r}")
        for g in self.group_nodes:
            if not 0 <= g < nnodes:
                raise ValueError(f"group node index {g} out of range")
        #: adjacency: node -> [(edge index, neighbour node)], edge order
        self._adj: List[List[Tuple[int, int]]] = [[] for _ in range(nnodes)]
        for ei, e in enumerate(self.edges):
            self._adj[e.u].append((ei, e.v))
            self._adj[e.v].append((ei, e.u))
        self._edge_by_name: Dict[str, int] = {
            e.name: ei for ei, e in enumerate(self.edges)
        }
        self._routes: Dict[Tuple[int, int], Route] = {}
        self._route_nodes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._compute_routes()
        self._neighbors: Optional[Tuple[Tuple[int, ...], ...]] = None

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    @property
    def ngroups(self) -> int:
        return len(self.group_nodes)

    def _shortest_tree(
        self, src: int
    ) -> List[Optional[Tuple[int, int]]]:
        """Dijkstra from ``src`` on zero-load latency, deterministic.

        Distance is ``(latency_sum, hops)``; ties are broken by settling
        the lowest node index first and scanning adjacency in edge-index
        order, so the predecessor tree -- hence every route -- is a pure
        function of the edge list.
        """
        n = len(self.nodes)
        dist: List[Tuple[float, int]] = [(math.inf, 0)] * n
        pred: List[Optional[Tuple[int, int]]] = [None] * n  # (prev node, edge)
        dist[src] = (0.0, 0)
        heap: List[Tuple[float, int, int]] = [(0.0, 0, src)]
        settled = [False] * n
        while heap:
            lat, hops, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            for ei, nxt in self._adj[node]:
                if settled[nxt]:
                    continue
                cand = (lat + self.edges[ei].link.latency, hops + 1)
                if cand < dist[nxt]:
                    dist[nxt] = cand
                    pred[nxt] = (node, ei)
                    heapq.heappush(heap, (cand[0], cand[1], nxt))
        return pred

    def _compute_routes(self) -> None:
        """Route table for every ordered group pair, symmetric by
        construction: computed once per unordered pair (from the lower
        group index) and reversed for the opposite direction."""
        for a in range(self.ngroups):
            pred = self._shortest_tree(self.group_nodes[a])
            for b in range(a + 1, self.ngroups):
                node = self.group_nodes[b]
                if node == self.group_nodes[a]:
                    raise ValueError(
                        f"groups {a} and {b} share node {self.nodes[node]!r}"
                    )
                hops: List[int] = []
                path_nodes: List[int] = [node]
                while node != self.group_nodes[a]:
                    if pred[node] is None:
                        raise ValueError(
                            f"no path between group nodes "
                            f"{self.nodes[self.group_nodes[a]]!r} and "
                            f"{self.nodes[self.group_nodes[b]]!r}"
                        )
                    node, ei = pred[node]
                    hops.append(ei)
                    path_nodes.append(node)
                hops.reverse()
                path_nodes.reverse()
                self._routes[(a, b)] = Route(
                    [self.edges[ei] for ei in hops])
                self._routes[(b, a)] = Route(
                    [self.edges[ei] for ei in reversed(hops)])
                self._route_nodes[(a, b)] = tuple(path_nodes)
                self._route_nodes[(b, a)] = tuple(reversed(path_nodes))

    def route(self, group_a: int, group_b: int) -> Route:
        """The precomputed route between two distinct groups."""
        if group_a == group_b:
            raise ValueError("route needs two distinct groups")
        return self._routes[(group_a, group_b)]

    def route_table(self) -> Dict[Tuple[int, int], Tuple[str, ...]]:
        """Edge-name route per ordered group pair (tests, reports, CLI)."""
        return {
            pair: route.edge_names() for pair, route in self._routes.items()
        }

    def group_neighbors(self, group: int) -> Tuple[int, ...]:
        """Groups adjacent to ``group``: reachable without passing through
        another group's node.  This is the neighbour set the diffusion
        schemes exchange load over; on the degenerate star/mesh every pair
        is adjacent, recovering the complete-graph behaviour."""
        if self._neighbors is None:
            node_group = {n: g for g, n in enumerate(self.group_nodes)}
            out: List[Tuple[int, ...]] = []
            for a in range(self.ngroups):
                adj: List[int] = []
                for b in range(self.ngroups):
                    if a == b:
                        continue
                    interior = self._route_nodes[(min(a, b), max(a, b))][1:-1]
                    if not any(n in node_group for n in interior):
                        adj.append(b)
                out.append(tuple(adj))
            self._neighbors = tuple(out)
        return self._neighbors[group]

    # ------------------------------------------------------------------ #
    # editing / lookup
    # ------------------------------------------------------------------ #

    def edge_named(self, name: str) -> Optional[TopologyEdge]:
        ei = self._edge_by_name.get(name)
        return None if ei is None else self.edges[ei]

    def edge_names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.edges)

    def with_edge_links(self, links_by_index: Dict[int, Link]
                        ) -> "NetworkTopology":
        """A new topology with some edges' links replaced (fault overlays).

        Routes are recomputed but identical by determinism: overlays touch
        traffic models only, never the zero-load latency Dijkstra weighs.
        """
        new_edges = [
            replace(e, link=links_by_index.get(ei, e.link))
            for ei, e in enumerate(self.edges)
        ]
        return NetworkTopology(self.nodes, self.group_nodes, new_edges)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """Multi-line description: nodes, edges, route table."""
        lines = [
            f"NetworkTopology: {len(self.nodes)} node(s), "
            f"{len(self.edges)} edge(s), {self.ngroups} group(s)"
        ]
        switch_nodes = set(range(len(self.nodes))) - set(self.group_nodes)
        for g, n in enumerate(self.group_nodes):
            lines.append(f"  group {g} at node {self.nodes[n]!r}")
        for n in sorted(switch_nodes):
            lines.append(f"  switch {self.nodes[n]!r}")
        for e in self.edges:
            lines.append(
                f"  {e.name}: {self.nodes[e.u]} -- {self.nodes[e.v]} "
                f"({e.link.name}, alpha={e.link.latency:.2e}s, "
                f"bw={e.link.bandwidth / 1e6:.1f} MB/s)"
            )
        for a in range(self.ngroups):
            for b in range(a + 1, self.ngroups):
                names = " > ".join(self._routes[(a, b)].edge_names())
                lines.append(f"  route {a} -> {b}: {names}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT rendering (``repro topology --dot``)."""
        lines = ["graph topology {", "  node [shape=ellipse];"]
        group_of = {n: g for g, n in enumerate(self.group_nodes)}
        for ni, name in enumerate(self.nodes):
            if ni in group_of:
                lines.append(
                    f'  "{name}" [shape=box, label="{name}\\n'
                    f'group {group_of[ni]}"];'
                )
            else:
                lines.append(f'  "{name}" [shape=diamond];')
        for e in self.edges:
            mbps = e.link.bandwidth / 1e6
            lines.append(
                f'  "{self.nodes[e.u]}" -- "{self.nodes[e.v]}" '
                f'[label="{e.name}\\n{mbps:.1f} MB/s"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkTopology(nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, groups={self.ngroups})"
        )


# --------------------------------------------------------------------- #
# resolution (spec -> runtime graph)
# --------------------------------------------------------------------- #


def resolve_topology(
    spec: TopologySpec, traffic: Optional[TrafficModel] = None
) -> NetworkTopology:
    """Instantiate a :class:`TopologySpec` into a live graph.

    ``traffic`` is the runtime background-traffic model applied to every
    non-``dedicated`` edge (the experiment config pins the weather, so
    paired runs share it -- same contract as the inter link of a spec
    without a topology).
    """
    from .spec import _resolve_link

    nodes = spec.groups + spec.switches
    node_index = {name: i for i, name in enumerate(nodes)}
    edges: List[TopologyEdge] = []
    for e in spec.edges:
        link = _resolve_link(
            e.link, name=e.name,
            traffic=None if e.dedicated else traffic,
        )
        overrides: Dict[str, Any] = {}
        if e.latency is not None:
            overrides["latency"] = e.latency
        if e.bandwidth is not None:
            overrides["bandwidth"] = e.bandwidth
        if e.per_message_overhead is not None:
            overrides["per_message_overhead"] = e.per_message_overhead
        if overrides:
            link = replace(link, **overrides)
        edges.append(TopologyEdge(e.name, node_index[e.u], node_index[e.v],
                                  link))
    return NetworkTopology(nodes, tuple(range(spec.ngroups)), edges)


def degenerate_topology(
    group_names: Sequence[str], pair_links: Dict[Any, Link]
) -> NetworkTopology:
    """The paper's two-level federation as a graph.

    ``pair_links`` maps every unordered group pair (a ``frozenset``) to the
    :class:`Link` joining it.  One link shared by every pair of three or
    more groups becomes a star through a ``backbone`` node whose every
    spoke *is* that :class:`Link` object, so all pairs contend on one
    medium; otherwise each pair gets its own edge of a complete mesh.
    Either way every pair's route has exactly one distinct link.
    """
    names = [str(n) for n in group_names]
    n = len(names)
    if len(set(names)) != len(names):  # group names may collide across sites
        names = [f"{name}#{i}" for i, name in enumerate(names)]
    if n <= 1:
        return NetworkTopology(names, range(n), [])
    distinct = {id(link) for link in pair_links.values()}
    if len(distinct) == 1 and n > 2:
        shared = next(iter(pair_links.values()))
        nodes = names + ["backbone"]
        hub = n
        edges = [
            TopologyEdge(f"{names[g]}--backbone", g, hub, shared)
            for g in range(n)
        ]
        return NetworkTopology(nodes, range(n), edges)
    # complete mesh: one edge per pair, named after the link (suffixed on
    # collision -- independent links may keep one preset name)
    edges = []
    used: Dict[str, int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            link = pair_links[frozenset((i, j))]
            name = link.name
            if name in used:
                name = f"{link.name}[{i}-{j}]"
            used[name] = 1
            edges.append(TopologyEdge(name, i, j, link))
    return NetworkTopology(names, range(n), edges)


# --------------------------------------------------------------------- #
# builder gallery (all return plain-data TopologySpecs)
# --------------------------------------------------------------------- #


def _group_names(ngroups: int) -> Tuple[str, ...]:
    return tuple(f"g{i}" for i in range(ngroups))


def star(ngroups: int, link: str = "mren-wan") -> TopologySpec:
    """Every group on its own spoke to one central ``hub`` switch."""
    if ngroups < 1:
        raise ValueError(f"ngroups must be >= 1, got {ngroups}")
    groups = _group_names(ngroups)
    return TopologySpec(
        groups=groups,
        switches=("hub",),
        edges=tuple(EdgeSpec(u=g, v="hub", link=link) for g in groups),
    )


def ring(ngroups: int, link: str = "mren-wan") -> TopologySpec:
    """Groups joined in a cycle: each talks directly to two neighbours."""
    if ngroups < 3:
        raise ValueError(f"a ring needs >= 3 groups, got {ngroups}")
    groups = _group_names(ngroups)
    return TopologySpec(
        groups=groups,
        edges=tuple(
            EdgeSpec(u=groups[i], v=groups[(i + 1) % ngroups], link=link)
            for i in range(ngroups)
        ),
    )


def torus(dims: Sequence[int], link: str = "gigabit-lan") -> TopologySpec:
    """A k-dimensional torus of groups, wraparound in every dimension.

    ``dims`` gives the extent per dimension; the group count is their
    product.  Dimensions of extent 2 get a single edge (the wraparound
    would duplicate it); extent-1 dimensions are dropped.
    """
    dims = tuple(int(d) for d in dims if int(d) > 1)
    if not dims:
        raise ValueError("torus needs at least one dimension of extent >= 2")
    ngroups = math.prod(dims)
    groups = _group_names(ngroups)

    def coord_of(i: int) -> Tuple[int, ...]:
        out = []
        for d in dims:
            out.append(i % d)
            i //= d
        return tuple(out)

    def index_of(c: Sequence[int]) -> int:
        i = 0
        for x, d in zip(reversed(c), reversed(dims)):
            i = i * d + x
        return i

    edges: List[EdgeSpec] = []
    seen = set()
    for i in range(ngroups):
        c = coord_of(i)
        for axis, d in enumerate(dims):
            nc = list(c)
            nc[axis] = (c[axis] + 1) % d
            j = index_of(nc)
            key = (min(i, j), max(i, j), axis)
            if i == j or key[:2] in {k[:2] for k in seen if k[2] == axis}:
                continue
            if (min(i, j), max(i, j)) in {(k[0], k[1]) for k in seen}:
                continue  # extent-2 wraparound duplicates the single edge
            seen.add(key)
            edges.append(
                EdgeSpec(u=groups[min(i, j)], v=groups[max(i, j)],
                         name=f"t{axis}:{min(i, j)}-{max(i, j)}", link=link)
            )
    return TopologySpec(groups=groups, edges=tuple(edges))


def fat_tree(k: int, edge_link: str = "gigabit-lan",
             core_link: str = "gigabit-lan") -> TopologySpec:
    """A two-level fat tree: ``k`` pod switches, ``k // 2`` core switches.

    Each pod switch attaches ``k // 2`` groups and uplinks to every core
    switch, so any two pods have ``k // 2`` parallel paths (Dijkstra picks
    one deterministically) and the group count is ``k * k // 2``.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat_tree needs an even k >= 2, got {k}")
    half = k // 2
    groups = _group_names(k * half)
    pods = tuple(f"pod{p}" for p in range(k))
    cores = tuple(f"core{c}" for c in range(half))
    edges: List[EdgeSpec] = []
    for p in range(k):
        for s in range(half):
            g = groups[p * half + s]
            edges.append(EdgeSpec(u=g, v=pods[p], link=edge_link))
        for c in range(half):
            edges.append(EdgeSpec(u=pods[p], v=cores[c], link=core_link))
    return TopologySpec(groups=groups, switches=pods + cores,
                        edges=tuple(edges))


def wan_mesh(ngroups: int, link: str = "mren-wan") -> TopologySpec:
    """A complete mesh: every group pair on its own direct edge."""
    if ngroups < 2:
        raise ValueError(f"wan_mesh needs >= 2 groups, got {ngroups}")
    groups = _group_names(ngroups)
    return TopologySpec(
        groups=groups,
        edges=tuple(
            EdgeSpec(u=groups[i], v=groups[j], link=link)
            for i in range(ngroups) for j in range(i + 1, ngroups)
        ),
    )


def from_edges(
    groups: Sequence[str],
    edges: Sequence[Any],
    switches: Sequence[str] = (),
) -> TopologySpec:
    """Build a :class:`TopologySpec` from raw edge data (JSON-friendly).

    ``edges`` entries may be :class:`EdgeSpec` objects or plain dicts in
    :meth:`EdgeSpec.to_dict` form.
    """
    return TopologySpec(
        groups=tuple(groups),
        switches=tuple(switches),
        edges=tuple(
            e if isinstance(e, EdgeSpec) else EdgeSpec.from_dict(dict(e))
            for e in edges
        ),
    )
