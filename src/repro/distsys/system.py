"""Distributed systems: two or more groups joined by inter-group links.

:func:`build_system` resolves a :class:`~repro.distsys.spec.SystemSpec`
into a live system; the spec helpers in :mod:`repro.distsys.spec`
(``parallel_spec``, ``lan_spec``, ``wan_spec``, ``multi_site_spec``)
describe the paper's testbed shapes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Union

import numpy as np

from ..faults.load import NoLoad
from .group import Group
from .network import Link, origin2000_interconnect
from .processor import Processor
from .spec import SystemSpec, _resolve_link
from .topology import (
    NetworkTopology,
    Route,
    degenerate_topology,
    resolve_topology,
)
from .traffic import TrafficModel

__all__ = ["DistributedSystem", "build_system"]

#: resolver fallback when neither the spec nor a group pins a speed
DEFAULT_BASE_SPEED = 1.0e6


class DistributedSystem:
    """Groups of processors plus the links between them.

    Parameters
    ----------
    groups:
        The member groups; ``group_id`` must equal the list index.
    inter_links:
        Mapping from an unordered group-id pair to the connecting link.
        Without an explicit ``topology``, every distinct pair of groups
        must be connected (the classic two-level federation), and a
        degenerate star/mesh :class:`~repro.distsys.topology.
        NetworkTopology` is derived from it so routed code paths see the
        identical ``Link`` objects.
    topology:
        Optional explicit network graph.  When given, communication is
        routed over its precomputed route tables; ``inter_links`` may then
        be empty (the graph's connectivity validation replaces the
        all-pairs check).
    """

    def __init__(
        self,
        groups: Sequence[Group],
        inter_links: Optional[Dict[FrozenSet[int], Link]] = None,
        topology: Optional[NetworkTopology] = None,
    ) -> None:
        if not groups:
            raise ValueError("a system needs at least one group")
        for i, g in enumerate(groups):
            if g.group_id != i:
                raise ValueError(f"group {g.name!r} has id {g.group_id}, expected {i}")
        self.groups: List[Group] = list(groups)
        self.inter_links: Dict[FrozenSet[int], Link] = dict(inter_links or {})
        if topology is not None:
            if topology.ngroups != len(groups):
                raise ValueError(
                    f"topology has {topology.ngroups} group node(s) but the "
                    f"system has {len(groups)} group(s)"
                )
            self.topology: NetworkTopology = topology
        else:
            # validate two-level connectivity, then derive the degenerate
            # star/mesh graph over the *same* Link objects
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    if frozenset((i, j)) not in self.inter_links:
                        raise ValueError(f"groups {i} and {j} are not connected")
            self.topology = degenerate_topology(
                [g.name for g in self.groups], self.inter_links
            )
        pids = [p.pid for g in self.groups for p in g.processors]
        if sorted(pids) != list(range(len(pids))):
            raise ValueError(f"processor ids must be dense 0..n-1, got {sorted(pids)}")
        self._procs: Dict[int, Processor] = {
            p.pid: p for g in self.groups for p in g.processors
        }
        # Structural caches.  Systems are immutable after construction
        # (fault schedules *replace* the system rather than mutating it),
        # so pid-indexed arrays and the processor list are built once here
        # and never invalidated; only quantities sampling external load at
        # a time instant remain per-call.
        nprocs = len(self._procs)
        self._processors: List[Processor] = [
            self._procs[pid] for pid in range(nprocs)
        ]
        #: group id of every processor, indexed by pid (group-indexed
        #: replacements for pairwise ``is_remote``/``link_between`` scans)
        self.pid_groups: np.ndarray = np.fromiter(
            (p.group_id for p in self._processors), dtype=np.int64, count=nprocs
        )
        #: nominal speed (``base_speed * weight``) of every processor by pid
        self.speed_by_pid: np.ndarray = np.fromiter(
            (p.speed for p in self._processors), dtype=np.float64, count=nprocs
        )
        #: pids whose processor carries a real external-load model -- the
        #: only ones whose availability can differ from exactly 1.0
        self.loaded_pids: List[int] = [
            p.pid for p in self._processors if not isinstance(p.load, NoLoad)
        ]
        self._describe: Optional[str] = None

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    @property
    def nprocs(self) -> int:
        return len(self._procs)

    @property
    def ngroups(self) -> int:
        return len(self.groups)

    @property
    def processors(self) -> List[Processor]:
        """All processors ordered by pid (cached; treat as read-only)."""
        return self._processors

    def processor(self, pid: int) -> Processor:
        return self._procs[pid]

    def group_of(self, pid: int) -> Group:
        return self.groups[self._procs[pid].group_id]

    def is_remote(self, pid_a: int, pid_b: int) -> bool:
        """True when the two processors live in different groups."""
        return self._procs[pid_a].group_id != self._procs[pid_b].group_id

    def link_between(self, pid_a: int, pid_b: int) -> Optional[Link]:
        """The link a message between the two processors crosses.

        ``None`` for a processor talking to itself (no network involved).
        """
        if pid_a == pid_b:
            return None
        ga, gb = self._procs[pid_a].group_id, self._procs[pid_b].group_id
        if ga == gb:
            return self.groups[ga].intra_link
        return self.inter_link(ga, gb)

    def inter_link(self, group_a: int, group_b: int) -> Link:
        """The single link between two (distinct) groups.

        On an explicit topology this only exists when the pair's route has
        one distinct underlying link; multi-hop pairs must use
        :meth:`route_between`.
        """
        if group_a == group_b:
            raise ValueError("inter_link needs two distinct groups")
        pair = frozenset((group_a, group_b))
        if pair in self.inter_links:
            return self.inter_links[pair]
        route = self.topology.route(group_a, group_b)
        if len(route.links) == 1:
            return route.links[0]
        raise ValueError(
            f"groups {group_a} and {group_b} communicate over the "
            f"{len(route.links)}-link route {route.edge_names()}; use "
            "route_between() instead of inter_link()"
        )

    def route_between(self, group_a: int, group_b: int) -> Route:
        """The precomputed route between two (distinct) groups."""
        return self.topology.route(group_a, group_b)

    def group_neighbors(self, group: int) -> tuple:
        """Topology-adjacent groups (complete graph on two-level systems)."""
        return self.topology.group_neighbors(group)

    # ------------------------------------------------------------------ #
    # capacity math (paper Section 4.4)
    # ------------------------------------------------------------------ #

    @property
    def total_capacity(self) -> float:
        """``sum over groups of n_g * p_g`` (nominal)."""
        return sum(g.capacity for g in self.groups)

    def capacity_fraction(self, group_id: int) -> float:
        """The share ``n_g*p_g / sum(n*p)`` of group ``group_id``.

        This is the workload fraction the paper's global phase assigns to
        the group.
        """
        return self.groups[group_id].capacity / self.total_capacity

    def total_capacity_at(self, time: float) -> float:
        """Effective system capacity at ``time`` (external load discounted)."""
        return sum(g.capacity_at(time) for g in self.groups)

    def capacity_fraction_at(self, group_id: int, time: float) -> float:
        """Effective capacity share of ``group_id`` at ``time``.

        Under an injected fault this is the share a weight-re-measuring
        global phase assigns the group; with no external load it equals
        :meth:`capacity_fraction` exactly.
        """
        return self.groups[group_id].capacity_at(time) / self.total_capacity_at(time)

    def describe(self) -> str:
        """Multi-line human-readable description for reports (cached)."""
        if self._describe is not None:
            return self._describe
        lines = [f"DistributedSystem: {self.ngroups} group(s), {self.nprocs} processors"]
        for g in self.groups:
            lines.append(
                f"  {g.name}: {g.nprocs} procs, weight {g.processor_weight}, "
                f"intra {g.intra_link.name}"
            )
        for pair, link in sorted(self.inter_links.items(), key=lambda kv: sorted(kv[0])):
            a, b = sorted(pair)
            lines.append(
                f"  {self.groups[a].name} <-> {self.groups[b].name}: {link.name} "
                f"(alpha={link.latency:.2e}s, bw={link.bandwidth / 1e6:.1f} MB/s)"
            )
        # derived (degenerate two-level) graphs keep the classic report;
        # explicit topologies describe the routed graph instead
        if not self.topology.derived:
            lines.append(self.topology.describe())
        self._describe = "\n".join(lines)
        return self._describe


# --------------------------------------------------------------------- #
# factories
# --------------------------------------------------------------------- #


def _system_from_spec(
    spec: SystemSpec, traffic: Optional[TrafficModel] = None
) -> DistributedSystem:
    """Resolve a :class:`~repro.distsys.spec.SystemSpec` into a live system.

    ``traffic`` is the runtime background-traffic model shared by every
    inter-group link (specs stay plain data; the experiment config pins the
    weather separately so paired runs see the same conditions).
    """
    default_speed = (
        spec.base_speed if spec.base_speed is not None else DEFAULT_BASE_SPEED
    )
    groups: List[Group] = []
    pid = 0
    for gi, gs in enumerate(spec.groups):
        name = spec.group_name(gi)
        speed = gs.base_speed if gs.base_speed is not None else default_speed
        procs = [
            Processor(pid + k, gi, weight=gs.weight, base_speed=speed)
            for k in range(gs.nprocs)
        ]
        pid += gs.nprocs
        groups.append(
            Group(gi, name, procs,
                  intra_link=_resolve_link(gs.intra_link, name=f"intra-{name}"))
        )
    if spec.topology is not None:
        return DistributedSystem(
            groups, {}, topology=resolve_topology(spec.topology, traffic)
        )
    links: Dict[FrozenSet[int], Link] = {}
    n = spec.ngroups
    if n > 1:
        if spec.independent_inter_links:
            base = spec.inter_link_name
            for i in range(n):
                for j in range(i + 1, n):
                    links[frozenset((i, j))] = _resolve_link(
                        spec.inter_link,
                        name=f"{base}-{i}-{j}" if base else None,
                        traffic=traffic,
                    )
        else:
            shared = _resolve_link(spec.inter_link, name=spec.inter_link_name,
                                   traffic=traffic)
            for i in range(n):
                for j in range(i + 1, n):
                    links[frozenset((i, j))] = shared
    return DistributedSystem(groups, links)


def build_system(
    group_sizes: Union[SystemSpec, Sequence[int]],
    inter_link: Optional[Link] = None,
    group_weights: Optional[Sequence[float]] = None,
    group_names: Optional[Sequence[str]] = None,
    intra_links: Optional[Sequence[Link]] = None,
    base_speed: float = DEFAULT_BASE_SPEED,
    group_base_speeds: Optional[Sequence[float]] = None,
    traffic: Optional[TrafficModel] = None,
) -> DistributedSystem:
    """Build a system from a :class:`~repro.distsys.spec.SystemSpec` (the
    declarative path) or from ``len(group_sizes)`` explicit groups.

    Spec path: ``build_system(spec, traffic=...)`` -- every other keyword is
    rejected (the spec already pins them).  ``traffic`` is the runtime
    background-traffic model applied to the inter-group link(s).

    Legacy path: all group pairs share the single ``inter_link`` instance
    (the paper's testbeds have exactly two groups, so one inter-group link
    suffices; pass a prebuilt ``inter_links`` mapping through
    :class:`DistributedSystem` directly for richer topologies).

    ``group_weights`` and ``group_base_speeds`` are two ways of expressing
    processor heterogeneity: weights are *visible* to the DLB schemes (the
    paper's relative performance weights), while base speeds are not --
    ablations use base speeds to model a federation whose scheme is blind
    to the hardware difference.
    """
    if isinstance(group_sizes, SystemSpec):
        if any(arg is not None for arg in (
                inter_link, group_weights, group_names, intra_links,
                group_base_speeds)) or base_speed != DEFAULT_BASE_SPEED:
            raise TypeError(
                "build_system(spec, ...) takes only the traffic keyword; "
                "the spec pins everything else"
            )
        return _system_from_spec(group_sizes, traffic)
    if traffic is not None:
        raise TypeError(
            "traffic is only valid with a SystemSpec; the legacy path "
            "attaches traffic to the inter_link instance directly"
        )
    n = len(group_sizes)
    weights = list(group_weights) if group_weights is not None else [1.0] * n
    speeds = (
        list(group_base_speeds)
        if group_base_speeds is not None
        else [base_speed] * n
    )
    if len(speeds) != n:
        raise ValueError("group_base_speeds must align with group_sizes")
    names = list(group_names) if group_names is not None else [f"group{i}" for i in range(n)]
    intras = list(intra_links) if intra_links is not None else [
        origin2000_interconnect(f"intra-{names[i]}") for i in range(n)
    ]
    if not (len(weights) == len(names) == len(intras) == n):
        raise ValueError("group_sizes, weights, names and intra_links must align")
    groups: List[Group] = []
    pid = 0
    for gi, size in enumerate(group_sizes):
        procs = [
            Processor(pid + k, gi, weight=weights[gi], base_speed=speeds[gi])
            for k in range(size)
        ]
        pid += size
        groups.append(Group(gi, names[gi], procs, intra_link=intras[gi]))
    links: Dict[FrozenSet[int], Link] = {}
    if n > 1:
        if inter_link is None:
            raise ValueError("multi-group systems need an inter_link")
        for i in range(n):
            for j in range(i + 1, n):
                links[frozenset((i, j))] = inter_link
    return DistributedSystem(groups, links)
