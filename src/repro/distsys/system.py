"""Distributed systems: groups of processors joined by a network graph.

:func:`build_system` resolves a :class:`~repro.distsys.spec.SystemSpec`
into a live system; the spec helpers in :mod:`repro.distsys.spec`
(``parallel_spec``, ``lan_spec``, ``wan_spec``, ``multi_site_spec``)
describe the paper's testbed shapes.  Every system's network is a
:class:`~repro.distsys.topology.NetworkTopology`: a spec without an
explicit ``topology`` resolves to the star (one shared inter link) or
complete mesh (independent per-pair links) of the paper's two-level
federation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from .group import Group
from .network import Link
from .processor import Processor
from .spec import SystemSpec, _resolve_link
from .topology import (
    NetworkTopology,
    Route,
    degenerate_topology,
    resolve_topology,
)
from .traffic import NoTraffic, TrafficModel

__all__ = ["DistributedSystem", "build_system"]

#: resolver fallback when neither the spec nor a group pins a speed
DEFAULT_BASE_SPEED = 1.0e6


class DistributedSystem:
    """Groups of processors plus the network graph joining them.

    Parameters
    ----------
    groups:
        The member groups; ``group_id`` must equal the list index.
    topology:
        The network graph, with one group node per group.  Every group
        pair communicates over its precomputed route (the graph's
        connectivity validation guarantees one exists).
    """

    def __init__(
        self,
        groups: Sequence[Group],
        topology: NetworkTopology,
    ) -> None:
        if not groups:
            raise ValueError("a system needs at least one group")
        for i, g in enumerate(groups):
            if g.group_id != i:
                raise ValueError(f"group {g.name!r} has id {g.group_id}, expected {i}")
        self.groups: List[Group] = list(groups)
        if topology.ngroups != len(groups):
            raise ValueError(
                f"topology has {topology.ngroups} group node(s) but the "
                f"system has {len(groups)} group(s)"
            )
        self.topology: NetworkTopology = topology
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
        # a time instant remain per-call.  The balancing state of
        # ``core/`` and ``partition/`` is computed over these arrays.
        nprocs = len(self._procs)
        self._processors: List[Processor] = [
            self._procs[pid] for pid in range(nprocs)
        ]
        #: group id of every processor, indexed by pid
        self.pid_groups: np.ndarray = np.fromiter(
            (p.group_id for p in self._processors), dtype=np.int64, count=nprocs
        )
        #: nominal speed (``base_speed * weight``) of every processor by pid
        self.speed_by_pid: np.ndarray = np.fromiter(
            (p.speed for p in self._processors), dtype=np.float64, count=nprocs
        )
        #: nominal performance weight (``GroupSpec.weight``) by pid; read-only
        #: because the nominal weight policy hands it out as is
        self.weight_by_pid: np.ndarray = np.fromiter(
            (p.weight for p in self._processors), dtype=np.float64, count=nprocs
        )
        self.weight_by_pid.flags.writeable = False
        #: each group's pids as a sorted int64 array, indexed by group id
        self.group_pids: List[np.ndarray] = [
            np.array(sorted(g.pids), dtype=np.int64) for g in self.groups
        ]
        #: every group's ``Group.pids`` concatenated in group order: a
        #: ``bincount`` over it adds each group's members in their own order
        self.member_pids: np.ndarray = np.fromiter(
            (pid for g in self.groups for pid in g.pids),
            dtype=np.int64, count=nprocs,
        )
        #: pids whose processor carries a real external-load model -- the
        #: only ones whose availability can differ from exactly 1.0
        self.loaded_pids: List[int] = [
            p.pid for p in self._processors if not isinstance(p.load, NoTraffic)
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

    def route_between(self, group_a: int, group_b: int) -> Route:
        """The precomputed route between two (distinct) groups."""
        return self.topology.route(group_a, group_b)

    def group_neighbors(self, group: int) -> tuple:
        """Topology-adjacent groups (every other group on a star or mesh)."""
        return self.topology.group_neighbors(group)

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
        lines.append(self.topology.describe())
        self._describe = "\n".join(lines)
        return self._describe


# --------------------------------------------------------------------- #
# factories
# --------------------------------------------------------------------- #


def build_system(
    spec: SystemSpec, traffic: Optional[TrafficModel] = None
) -> DistributedSystem:
    """Build the live system a :class:`~repro.distsys.spec.SystemSpec`
    describes.

    ``traffic`` is the runtime background-traffic model of the inter-group
    link(s) -- every non-``dedicated`` edge of an explicit topology (specs
    stay plain data; the experiment config pins the weather separately so
    paired runs see the same conditions).  Processor heterogeneity comes
    from the spec's groups: ``GroupSpec.weight`` is *visible* to the DLB
    schemes (the paper's relative performance weights),
    ``GroupSpec.base_speed`` is not -- ablations use base speeds to model a
    federation whose scheme is blind to the hardware difference.
    """
    if not isinstance(spec, SystemSpec):
        raise TypeError(
            f"build_system takes a SystemSpec, got {type(spec).__name__}; "
            "describe the system with SystemSpec/GroupSpec or a spec helper "
            "(parallel_spec, lan_spec, wan_spec, multi_site_spec)"
        )
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
        return DistributedSystem(groups, resolve_topology(spec.topology, traffic))
    pair_links: Dict[FrozenSet[int], Link] = {}
    n = spec.ngroups
    if spec.independent_inter_links:
        base = spec.inter_link_name
        for i in range(n):
            for j in range(i + 1, n):
                pair_links[frozenset((i, j))] = _resolve_link(
                    spec.inter_link,
                    name=f"{base}-{i}-{j}" if base else None,
                    traffic=traffic,
                )
    elif n > 1:
        shared = _resolve_link(spec.inter_link, name=spec.inter_link_name,
                               traffic=traffic)
        for i in range(n):
            for j in range(i + 1, n):
                pair_links[frozenset((i, j))] = shared
    return DistributedSystem(
        groups, degenerate_topology([g.name for g in groups], pair_links)
    )

