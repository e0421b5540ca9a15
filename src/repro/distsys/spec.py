"""Declarative system construction: frozen specs resolved by ``build_system``.

A :class:`SystemSpec` is to a :class:`~repro.distsys.system.DistributedSystem`
what a :class:`~repro.core.registry.SchemeSpec` is to a scheme: a frozen,
JSON-serializable description that the harness can hash into cache keys,
ship over the daemon's wire protocol, and resolve into the live object on
demand.  Links are named by *preset* (:data:`LINK_PRESETS`) rather than
carried as objects, which keeps specs plain data; the background-traffic
model stays a runtime argument to :func:`~repro.distsys.system.build_system`
(the experiment config pins it separately, so paired runs share weather).

The spec helpers :func:`parallel_spec`, :func:`lan_spec`, :func:`wan_spec`
and :func:`multi_site_spec` reproduce the paper's testbed shapes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import FaultParams
from .network import Link, gigabit_lan, mren_wan, origin2000_interconnect
from .topology import TopologySpec
from .traffic import TrafficModel

__all__ = [
    "LINK_PRESETS",
    "GroupSpec",
    "SystemSpec",
    "parallel_spec",
    "lan_spec",
    "wan_spec",
    "multi_site_spec",
]

#: named link presets a spec may reference; values are the factory functions
#: of :mod:`repro.distsys.network`
LINK_PRESETS = {
    "origin2000": origin2000_interconnect,
    "gigabit-lan": gigabit_lan,
    "mren-wan": mren_wan,
}


def _resolve_link(preset: str, name: Optional[str] = None,
                  traffic: Optional[TrafficModel] = None) -> Link:
    """Instantiate a preset link, optionally renamed and carrying traffic."""
    if preset not in LINK_PRESETS:
        raise ValueError(
            f"unknown link preset {preset!r}; known: {sorted(LINK_PRESETS)}"
        )
    if preset == "origin2000":
        # dedicated interconnect: never shared, so no traffic parameter
        return origin2000_interconnect(name) if name else origin2000_interconnect()
    factory = LINK_PRESETS[preset]
    if name:
        return factory(traffic, name=name)
    return factory(traffic)


_GROUP_FIELDS = ("nprocs", "name", "weight", "base_speed", "intra_link")
_SPEC_FIELDS = ("groups", "inter_link", "inter_link_name",
                "independent_inter_links", "base_speed", "fault", "topology")


@dataclass(frozen=True)
class GroupSpec:
    """One processor group of a :class:`SystemSpec`.

    Parameters
    ----------
    nprocs:
        Number of processors in the group.
    name:
        Group label (reports, fault targeting); defaults to ``group{i}``.
    weight:
        Relative processor performance weight -- *visible* to the DLB
        schemes (the paper's heterogeneity knob).
    base_speed:
        Work units per second per weight; ``None`` inherits the system's
        ``base_speed``.  Unlike ``weight`` this is invisible to schemes.
    intra_link:
        Name of the intra-group link preset (:data:`LINK_PRESETS`).
    """

    nprocs: int
    name: str = ""
    weight: float = 1.0
    base_speed: Optional[float] = None
    intra_link: str = "origin2000"

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.base_speed is not None and self.base_speed <= 0:
            raise ValueError(
                f"base_speed must be positive, got {self.base_speed}"
            )
        if self.intra_link not in LINK_PRESETS:
            raise ValueError(
                f"unknown intra_link preset {self.intra_link!r}; "
                f"known: {sorted(LINK_PRESETS)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return {f: getattr(self, f) for f in _GROUP_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GroupSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        unknown = set(data) - set(_GROUP_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown GroupSpec fields: {sorted(unknown)}; "
                f"expected a subset of {_GROUP_FIELDS}"
            )
        if "nprocs" not in data:
            raise ValueError("GroupSpec needs 'nprocs'")
        return cls(**data)


@dataclass(frozen=True)
class SystemSpec:
    """Declarative description of a whole distributed system.

    Parameters
    ----------
    groups:
        The member groups; plain ints are shorthand for
        ``GroupSpec(nprocs=n)``.
    inter_link:
        Link preset joining every group pair (ignored for one group).
    inter_link_name:
        Optional base name for the inter-group link(s); independent links
        get ``{name}-{i}-{j}``.  ``None`` keeps the preset's default name.
    independent_inter_links:
        ``False`` (default): all pairs share one link instance (the paper's
        single shared backbone).  ``True``: each pair gets its own instance
        -- transfers between different site pairs no longer serialize on
        one medium, while a shared traffic model keeps congestion
        correlated.
    base_speed:
        Default work units per second per weight for every group whose
        ``base_speed`` is ``None``; ``None`` defers to the resolver's
        default (the harness substitutes its calibrated speed).
    fault:
        Optional fault-schedule hook: a :class:`~repro.config.FaultParams`
        the harness expands when the experiment config itself pins no
        scenario.
    topology:
        Optional :class:`~repro.distsys.topology.TopologySpec` network
        graph.  When set, ``inter_link``/``inter_link_name``/
        ``independent_inter_links`` are ignored: groups communicate over
        the graph's precomputed routes instead of direct pairwise links.
        When ``None`` (the default) the paper's two-level federation is
        built as a graph: three or more groups sharing one inter link form
        a star through a ``backbone`` switch whose spokes all carry that
        link; otherwise every pair gets one edge of a complete mesh.
    """

    groups: Tuple[GroupSpec, ...] = field(default_factory=tuple)
    inter_link: str = "mren-wan"
    inter_link_name: Optional[str] = None
    independent_inter_links: bool = False
    base_speed: Optional[float] = None
    fault: Optional[FaultParams] = None
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        groups = tuple(
            g if isinstance(g, GroupSpec) else GroupSpec(nprocs=int(g))
            for g in self.groups
        )
        if not groups:
            raise ValueError("a SystemSpec needs at least one group")
        object.__setattr__(self, "groups", groups)
        if len(groups) > 1 and self.inter_link not in LINK_PRESETS:
            raise ValueError(
                f"unknown inter_link preset {self.inter_link!r}; "
                f"known: {sorted(LINK_PRESETS)}"
            )
        if self.base_speed is not None and self.base_speed <= 0:
            raise ValueError(
                f"base_speed must be positive, got {self.base_speed}"
            )
        if self.topology is not None:
            topology = self.topology
            if not isinstance(topology, TopologySpec):
                topology = TopologySpec.from_dict(dict(topology))
                object.__setattr__(self, "topology", topology)
            if topology.ngroups != len(groups):
                raise ValueError(
                    f"topology has {topology.ngroups} group node(s) but the "
                    f"spec has {len(groups)} group(s)"
                )

    # ------------------------------------------------------------------ #

    @property
    def ngroups(self) -> int:
        return len(self.groups)

    @property
    def nprocs(self) -> int:
        return sum(g.nprocs for g in self.groups)

    @property
    def label(self) -> str:
        """The paper's shape label, e.g. ``"4+4"``."""
        return "+".join(str(g.nprocs) for g in self.groups)

    def group_name(self, index: int) -> str:
        """The effective (defaulted) name of group ``index``."""
        return self.groups[index].name or f"group{index}"

    # ------------------------------------------------------------------ #
    # serialization (mirror of SchemeSpec)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: JSON-ready, order-stable, round-trips through
        :meth:`from_dict`."""
        from dataclasses import asdict

        data = {
            "groups": [g.to_dict() for g in self.groups],
            "inter_link": self.inter_link,
            "inter_link_name": self.inter_link_name,
            "independent_inter_links": self.independent_inter_links,
            "base_speed": self.base_speed,
            "fault": asdict(self.fault) if self.fault is not None else None,
        }
        # omitted when absent so pre-topology cache keys stay stable
        if self.topology is not None:
            data["topology"] = self.topology.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown SystemSpec fields: {sorted(unknown)}; "
                f"expected a subset of {_SPEC_FIELDS}"
            )
        fields = dict(data)
        raw_groups = fields.pop("groups", ())
        groups = tuple(
            GroupSpec.from_dict(g) if isinstance(g, dict) else g
            for g in raw_groups
        )
        fault = fields.pop("fault", None)
        if fault is not None and not isinstance(fault, FaultParams):
            fault = FaultParams(**fault)
        topology = fields.pop("topology", None)
        if topology is not None and not isinstance(topology, TopologySpec):
            topology = TopologySpec.from_dict(dict(topology))
        return cls(groups=groups, fault=fault, topology=topology, **fields)


# --------------------------------------------------------------------- #
# preset shapes (the paper's testbeds)
# --------------------------------------------------------------------- #


def parallel_spec(nprocs: int, base_speed: Optional[float] = None) -> SystemSpec:
    """One dedicated parallel machine (the Section 3 baseline)."""
    return SystemSpec(groups=(GroupSpec(nprocs=nprocs, name="ANL"),),
                      base_speed=base_speed)


def lan_spec(nprocs_per_group: int,
             base_speed: Optional[float] = None) -> SystemSpec:
    """Two machines at one site over shared Gigabit Ethernet (AMR64)."""
    return SystemSpec(
        groups=(GroupSpec(nprocs=nprocs_per_group, name="ANL-1"),
                GroupSpec(nprocs=nprocs_per_group, name="ANL-2")),
        inter_link="gigabit-lan",
        base_speed=base_speed,
    )


def wan_spec(nprocs_per_group: int,
             base_speed: Optional[float] = None) -> SystemSpec:
    """ANL + NCSA over the shared MREN ATM OC-3 WAN (ShockPool3D)."""
    return SystemSpec(
        groups=(GroupSpec(nprocs=nprocs_per_group, name="ANL"),
                GroupSpec(nprocs=nprocs_per_group, name="NCSA")),
        inter_link="mren-wan",
        base_speed=base_speed,
    )


def multi_site_spec(
    group_sizes: Sequence[int],
    base_speed: Optional[float] = None,
    group_weights: Optional[Sequence[float]] = None,
) -> SystemSpec:
    """A grid of ``len(group_sizes)`` sites, each pair on its own WAN link.

    Each site pair gets an *independent* ``mren-wan`` link instance named
    ``wan-{i}-{j}`` sharing the runtime traffic model, so congestion is
    correlated (one backbone) while per-pair transfers still serialize
    separately.
    """
    n = len(group_sizes)
    if n < 2:
        raise ValueError("multi_site_spec needs at least two sites")
    weights: List[float] = (
        list(group_weights) if group_weights is not None else [1.0] * n
    )
    if len(weights) != n:
        raise ValueError("group_weights must align with group_sizes")
    return SystemSpec(
        groups=tuple(
            GroupSpec(nprocs=size, name=f"site{i}", weight=weights[i])
            for i, size in enumerate(group_sizes)
        ),
        inter_link="mren-wan",
        inter_link_name="wan",
        independent_inter_links=True,
        base_speed=base_speed,
    )
