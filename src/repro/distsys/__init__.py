"""Distributed-system substrate: processors, groups, networks, simulator.

A from-scratch simulation of the paper's testbed shapes -- one parallel
machine, two machines over a shared LAN, two sites over a shared WAN --
including dynamic background traffic on the shared links and the two-message
network probe the cost model uses.
"""

from .comm import CommPhaseResult, MessageBatch, MessageKind, comm_phase_time
from .events import (
    CommEvent,
    ComputeEvent,
    Event,
    EventLog,
    FaultEvent,
    GlobalDecisionEvent,
    LocalBalanceEvent,
    ProbeEvent,
    RedistributionEvent,
    RegridEvent,
)
from .group import Group
from .network import Link, gigabit_lan, mren_wan, origin2000_interconnect
from .processor import Processor
from .simulator import PROBE_LARGE_BYTES, PROBE_SMALL_BYTES, ClusterSimulator
from .spec import (
    LINK_PRESETS,
    GroupSpec,
    SystemSpec,
    lan_spec,
    multi_site_spec,
    parallel_spec,
    wan_spec,
)
from .system import DistributedSystem, build_system
from .topology import (
    EdgeSpec,
    NetworkTopology,
    Route,
    TopologyEdge,
    TopologySpec,
    fat_tree,
    from_edges,
    ring,
    star,
    torus,
    wan_mesh,
)
from .traffic import (
    BurstyTraffic,
    ComposedTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    NoTraffic,
    TraceTraffic,
    TrafficModel,
    WindowTraffic,
)

__all__ = [
    "CommPhaseResult",
    "MessageBatch",
    "MessageKind",
    "comm_phase_time",
    "CommEvent",
    "ComputeEvent",
    "Event",
    "EventLog",
    "FaultEvent",
    "GlobalDecisionEvent",
    "LocalBalanceEvent",
    "ProbeEvent",
    "RedistributionEvent",
    "RegridEvent",
    "Group",
    "Link",
    "gigabit_lan",
    "mren_wan",
    "origin2000_interconnect",
    "Processor",
    "PROBE_LARGE_BYTES",
    "PROBE_SMALL_BYTES",
    "ClusterSimulator",
    "LINK_PRESETS",
    "GroupSpec",
    "SystemSpec",
    "parallel_spec",
    "lan_spec",
    "wan_spec",
    "multi_site_spec",
    "DistributedSystem",
    "build_system",
    "EdgeSpec",
    "NetworkTopology",
    "Route",
    "TopologyEdge",
    "TopologySpec",
    "star",
    "ring",
    "torus",
    "fat_tree",
    "wan_mesh",
    "from_edges",
    "BurstyTraffic",
    "ComposedTraffic",
    "ConstantTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "NoTraffic",
    "TraceTraffic",
    "TrafficModel",
    "WindowTraffic",
]
