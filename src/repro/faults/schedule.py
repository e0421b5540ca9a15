"""Deterministic fault schedules: timed environment perturbations for a run.

A :class:`FaultSchedule` is a declarative list of perturbations -- external
CPU load on processors, transient slowdowns, dropout/rejoin windows, link
degradation/outage windows -- that is *applied* to a
:class:`~repro.distsys.system.DistributedSystem` before the run starts.
Applying a schedule returns a new system whose processors and network
links carry composed occupancy models (:mod:`repro.distsys.traffic`, the
one family for links, processors and service arrivals): a processor's
external load plus its CPU faults, a link's background traffic plus its
degradation windows.  From then on every quantity the simulator and the
DLB schemes observe (execution times, probed alpha/beta, measured weights)
is a pure deterministic function of the simulation clock.

Determinism is the point: the paper's methodology runs the parallel scheme
and the distributed scheme back to back "so that the two executions would
have the similar network environments" -- with a schedule, both executions
see the *identical* environment, faults included, and repeated runs with
the same seed reproduce bit-identical timelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..distsys.group import Group
from ..distsys.network import Link
from ..distsys.processor import Processor
from ..distsys.system import DistributedSystem
from ..distsys.traffic import (
    ComposedTraffic,
    NoTraffic,
    TrafficModel,
    WindowTraffic,
)

__all__ = [
    "CpuLoadFault",
    "SlowdownFault",
    "DropoutFault",
    "LinkDegradationFault",
    "FaultBoundary",
    "FaultSchedule",
]


def _overlaid(traffic: TrafficModel,
              overlays: List[TrafficModel]) -> TrafficModel:
    """A link's weather plus its fault overlays.  The overlays are summed
    first, then added to the weather: this fixes the float summation
    order every pinned link-fault result was recorded with."""
    return ComposedTraffic((traffic, ComposedTraffic(tuple(overlays))))


def _targets_label(pids: Optional[Tuple[int, ...]], group: Optional[int]) -> str:
    if pids is not None:
        return "pids " + ",".join(str(p) for p in pids)
    if group is not None:
        return f"group {group}"
    return "all processors"


@dataclass(frozen=True, kw_only=True)
class _ProcessorFault:
    """Shared targeting logic: a fault hits explicit ``pids``, or every
    processor of ``group``, or (both ``None``) every processor."""

    pids: Optional[Tuple[int, ...]] = None
    group: Optional[int] = None

    kind = "processor-fault"

    def __post_init__(self) -> None:
        if self.pids is not None and self.group is not None:
            raise ValueError("give pids or group, not both")
        if self.pids is not None:
            object.__setattr__(self, "pids", tuple(int(p) for p in self.pids))

    def matches(self, proc: Processor) -> bool:
        if self.pids is not None:
            return proc.pid in self.pids
        if self.group is not None:
            return proc.group_id == self.group
        return True

    def load_model(self, seed: int, pid: int) -> TrafficModel:
        raise NotImplementedError

    def window(self) -> Optional[Tuple[float, float]]:
        """``(start, end)`` for windowed faults, ``None`` for continuous ones."""
        return None

    def describe(self) -> str:
        return f"{self.kind} on {_targets_label(self.pids, self.group)}"


@dataclass(frozen=True, kw_only=True)
class CpuLoadFault(_ProcessorFault):
    """Continuous external CPU load on the targeted processors.

    ``model`` is any :class:`~repro.distsys.traffic.TrafficModel`; the
    schedule seed does not alter it (the model carries its own seed if
    stochastic).
    """

    model: TrafficModel = field(default_factory=NoTraffic)

    kind = "cpu-load"

    def load_model(self, seed: int, pid: int) -> TrafficModel:
        return self.model

    def describe(self) -> str:
        return (
            f"{self.kind} {type(self.model).__name__} on "
            f"{_targets_label(self.pids, self.group)}"
        )


@dataclass(frozen=True, kw_only=True)
class SlowdownFault(_ProcessorFault):
    """Transient slowdown: targeted processors run ``factor`` times slower
    during ``[start, end)`` -- e.g. thermal throttling or a co-scheduled job."""

    start: float = 0.0
    end: float = math.inf
    factor: float = 4.0

    kind = "slowdown"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {self.factor}")
        if self.end <= self.start:
            raise ValueError(f"need end > start, got [{self.start}, {self.end})")

    def load_model(self, seed: int, pid: int) -> TrafficModel:
        # running `factor` times slower == (1 - 1/factor) of the CPU stolen
        return WindowTraffic(self.start, self.end, 1.0 - 1.0 / self.factor)

    def window(self) -> Optional[Tuple[float, float]]:
        return (self.start, self.end)

    def describe(self) -> str:
        return (
            f"{self.factor:g}x slowdown of {_targets_label(self.pids, self.group)}"
        )


@dataclass(frozen=True, kw_only=True)
class DropoutFault(_ProcessorFault):
    """Dropout/rejoin window: targeted processors are effectively gone
    during ``[start, end)`` and recover at ``end``.

    The window occupies the whole processor; availability then sits at
    its floor, :data:`~repro.distsys.processor.MIN_AVAILABILITY` (stalled,
    not gone -- the simulated analogue of a node swapping or rebooting
    under the job).
    """

    start: float = 0.0
    end: float = math.inf

    kind = "dropout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.end <= self.start:
            raise ValueError(f"need end > start, got [{self.start}, {self.end})")

    def load_model(self, seed: int, pid: int) -> TrafficModel:
        return WindowTraffic(self.start, self.end, 1.0)

    def window(self) -> Optional[Tuple[float, float]]:
        return (self.start, self.end)

    def describe(self) -> str:
        return f"dropout of {_targets_label(self.pids, self.group)}"


@dataclass(frozen=True, kw_only=True)
class LinkDegradationFault:
    """Extra occupancy on inter-group links during ``[start, end)``.

    ``occupancy`` at or above the link ceiling
    (:data:`~repro.distsys.network.MAX_OCCUPANCY`) is an outage; smaller values
    model a routing detour or a competing bulk transfer.  ``groups`` names
    one group pair, ``edge`` one topology edge by name (see
    :meth:`~repro.distsys.topology.NetworkTopology.edge_names`), or both
    ``None`` for every edge.  A ``groups`` fault degrades every link of the
    pair's route; an ``edge`` fault degrades that edge's link -- and thereby
    every route crossing it.  A fault hits ``Link`` objects, not edges: the
    spokes of a shared backbone carry one ``Link``, so degrading any of
    them degrades the one medium every pair crosses.
    """

    start: float = 0.0
    end: float = math.inf
    occupancy: float = 0.5
    groups: Optional[Tuple[int, int]] = None
    edge: Optional[str] = None

    kind = "link"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"need end > start, got [{self.start}, {self.end})")
        if not 0.0 < self.occupancy <= 1.0:
            raise ValueError(f"occupancy must be in (0, 1], got {self.occupancy}")
        if self.groups is not None and self.edge is not None:
            raise ValueError("give groups or edge, not both")
        if self.groups is not None:
            a, b = self.groups
            if a == b:
                raise ValueError("groups must name two distinct groups")
            object.__setattr__(self, "groups", (int(a), int(b)))

    def overlay_model(self) -> TrafficModel:
        return WindowTraffic(self.start, self.end, self.occupancy)

    def window(self) -> Optional[Tuple[float, float]]:
        return (self.start, self.end)

    def describe(self) -> str:
        if self.edge is not None:
            where = f"edge {self.edge!r}"
        elif self.groups is not None:
            where = f"link {self.groups[0]}<->{self.groups[1]}"
        else:
            where = "all inter-group links"
        return f"{self.occupancy:.0%} degradation of {where}"


Fault = Union[CpuLoadFault, SlowdownFault, DropoutFault, LinkDegradationFault]


@dataclass(frozen=True)
class FaultBoundary:
    """One instant the environment shifts: a fault window opening/closing."""

    time: float
    phase: str  # "start" | "end"
    kind: str
    description: str


class FaultSchedule:
    """An ordered, deterministic set of environment perturbations.

    Parameters
    ----------
    faults:
        Any mix of :class:`CpuLoadFault`, :class:`SlowdownFault`,
        :class:`DropoutFault` and :class:`LinkDegradationFault`.
    seed:
        Schedule-level seed, reserved for stochastic scenario builders
        (e.g. the harness's bursty CPU-weather scenario derives per-group
        model seeds from it).  Stored so a schedule prints reproducibly.
    """

    def __init__(self, faults: Sequence[object] = (), seed: int = 0) -> None:
        self.faults: List[Fault] = []
        self.seed = int(seed)
        for f in faults:
            if not isinstance(
                f, (CpuLoadFault, SlowdownFault, DropoutFault, LinkDegradationFault)
            ):
                raise TypeError(f"not a fault spec: {f!r}")
            self.faults.append(f)

    # ------------------------------------------------------------------ #

    @property
    def processor_faults(self) -> List[_ProcessorFault]:
        return [f for f in self.faults if isinstance(f, _ProcessorFault)]

    @property
    def link_faults(self) -> List[LinkDegradationFault]:
        return [f for f in self.faults if isinstance(f, LinkDegradationFault)]

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = "; ".join(f.describe() for f in self.faults)
        return f"FaultSchedule(seed={self.seed}, [{inner}])"

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #

    def apply(self, system: DistributedSystem) -> DistributedSystem:
        """Return a new system with this schedule's perturbations installed.

        Processors targeted by CPU faults get a :class:`ComposedTraffic` of
        every matching model (on top of any load the processor already
        carried).  Each distinct :class:`~repro.distsys.network.Link` that
        link faults target is replaced once, its traffic model composed
        with their occupancy overlays in schedule order, and every
        topology edge that carried it gets that one replacement -- so a
        shared backbone stays one medium.  Routes are unchanged (Dijkstra
        weighs static zero-load latency, which overlays never touch).  The
        input system is not modified.

        Raises :class:`ValueError` for a link fault naming an unknown edge
        or a group pair the system does not have.
        """
        pfaults = self.processor_faults
        new_groups = []
        for g in system.groups:
            procs = []
            for p in g.processors:
                models = [f.load_model(self.seed, p.pid) for f in pfaults if f.matches(p)]
                if models:
                    if not isinstance(p.load, NoTraffic):
                        models.insert(0, p.load)
                    p = replace(p, load=ComposedTraffic(tuple(models)))
                procs.append(p)
            new_groups.append(Group(g.group_id, g.name, procs, intra_link=g.intra_link))

        topo = system.topology
        targeted: Dict[int, Tuple[Link, List[TrafficModel]]] = {}
        for f in self.link_faults:
            if f.edge is not None:
                edge = topo.edge_named(f.edge)
                if edge is None:
                    raise ValueError(
                        f"link fault targets unknown edge {f.edge!r}; "
                        f"known edges: {sorted(topo.edge_names())}"
                    )
                links: Sequence[Link] = (edge.link,)
            elif f.groups is not None:
                if not all(0 <= gid < system.ngroups for gid in f.groups):
                    raise ValueError(
                        f"link fault targets group pair {f.groups} but the "
                        f"system has {system.ngroups} group(s)"
                    )
                links = topo.route(*f.groups).links
            else:
                links = [e.link for e in topo.edges]
            # one medium under several edges takes the fault once
            for link in {id(link): link for link in links}.values():
                targeted.setdefault(id(link), (link, []))[1].append(
                    f.overlay_model())
        replaced = {
            key: replace(link, traffic=_overlaid(link.traffic, overlays))
            for key, (link, overlays) in targeted.items()
        }
        new_topo = topo.with_edge_links({
            ei: replaced[id(e.link)]
            for ei, e in enumerate(topo.edges) if id(e.link) in replaced
        })
        return DistributedSystem(new_groups, new_topo)

    # ------------------------------------------------------------------ #
    # timeline
    # ------------------------------------------------------------------ #

    def boundaries(self) -> List[FaultBoundary]:
        """Every instant the environment shifts, sorted by time.

        Windowed faults contribute a ``start`` and (if finite) an ``end``
        boundary; continuous faults (:class:`CpuLoadFault`) contribute a
        single ``start`` at t=0 marking that the weather is on.
        """
        out: List[FaultBoundary] = []
        for f in self.faults:
            win = f.window()
            desc = f.describe()
            if win is None:
                out.append(FaultBoundary(0.0, "start", f.kind, desc))
                continue
            start, end = win
            out.append(FaultBoundary(start, "start", f.kind, desc))
            if math.isfinite(end):
                out.append(FaultBoundary(end, "end", f.kind, desc))
        out.sort(key=lambda b: (b.time, b.phase, b.kind))
        return out
