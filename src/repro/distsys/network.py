"""Network links: the paper's ``Tcomm = alpha + beta * L`` model, made dynamic.

Section 4.2: "the network performance is modeled by the conventional model,
that is ``Tcomm = alpha + beta * L``.  Here ``Tcomm`` is the communication
time, ``alpha`` is the communication latency, ``beta`` is the communication
transfer rate, and ``L`` is the data size in bytes."

A :class:`Link` carries that model plus a :class:`~repro.distsys.traffic.
TrafficModel`: background occupancy scales the achievable transfer rate down
and inflates the effective latency (queueing).  Presets approximate the
paper's testbeds -- an SGI Origin2000 internal interconnect, a Gigabit
Ethernet LAN, and the MREN ATM OC-3 WAN between ANL and NCSA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .traffic import NoTraffic, TrafficModel

__all__ = ["Link", "origin2000_interconnect", "gigabit_lan", "mren_wan"]

#: ceiling of a link's background occupancy, so effective bandwidth never
#: reaches zero; service arrival rates saturate at the same occupancy
MAX_OCCUPANCY = 0.95


@dataclass
class Link:
    """A (possibly shared) network link.

    Parameters
    ----------
    name:
        Human-readable label used in traces and reports.
    latency:
        Zero-load one-way message latency ``alpha`` in seconds.
    bandwidth:
        Zero-load transfer rate in bytes/second (note: the paper's ``beta``
        is seconds/byte; :meth:`beta` reports that form).
    traffic:
        Background-occupancy model; ``NoTraffic`` = dedicated link.
    latency_load_factor:
        Effective latency is ``latency * (1 + latency_load_factor * occ)``
        -- queueing delay grows with occupancy.
    """

    name: str
    latency: float
    bandwidth: float
    traffic: TrafficModel = field(default_factory=NoTraffic)
    latency_load_factor: float = 4.0
    #: software send/receive cost per message bundle (seconds).  Unlike the
    #: propagation latency -- which concurrent transfers overlap -- this
    #: serializes on the hosts, so a phase with many communicating pairs
    #: pays it per bundle.
    per_message_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency_load_factor < 0:
            raise ValueError(
                f"latency_load_factor must be >= 0, got {self.latency_load_factor}"
            )
        if self.per_message_overhead < 0:
            raise ValueError(
                f"per_message_overhead must be >= 0, got {self.per_message_overhead}"
            )

    # ------------------------------------------------------------------ #
    # instantaneous performance
    # ------------------------------------------------------------------ #

    def occupancy(self, time: float) -> float:
        """Background occupancy at ``time`` (0 = idle link).

        Clamped to ``[0, MAX_OCCUPANCY]`` regardless of what the traffic
        model reports: an occupancy >= 1 would make
        :meth:`effective_bandwidth` zero or negative and :meth:`beta`
        infinite or negative.  A saturated link stays a (very) slow link.
        """
        return min(MAX_OCCUPANCY, max(0.0, self.traffic.occupancy(time)))

    def effective_bandwidth(self, time: float) -> float:
        """Achievable transfer rate (bytes/s) at ``time``."""
        return self.bandwidth * (1.0 - self.occupancy(time))

    def effective_latency(self, time: float) -> float:
        """Effective per-message latency ``alpha`` (s) at ``time``."""
        return self.latency * (1.0 + self.latency_load_factor * self.occupancy(time))

    def alpha(self, time: float) -> float:
        """The paper's ``alpha`` (s): per-message latency under current load."""
        return self.effective_latency(time)

    def beta(self, time: float) -> float:
        """The paper's ``beta`` (s/byte): inverse achievable rate."""
        return 1.0 / self.effective_bandwidth(time)

    def transfer_time(self, nbytes: float, time: float) -> float:
        """``Tcomm = alpha + beta * L`` for one isolated message.

        Includes the per-message software overhead -- which is also what a
        probe of this link measures as part of its ``alpha``.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.alpha(time) + self.per_message_overhead + nbytes * self.beta(time)


# --------------------------------------------------------------------- #
# presets approximating the paper's testbed
# --------------------------------------------------------------------- #


def origin2000_interconnect(name: str = "origin2000") -> Link:
    """The dedicated internal interconnect of one SGI Origin2000.

    CrayLink/NUMAlink-era numbers: ~1 microsecond MPI latency inside a box,
    hundreds of MB/s per node pair; never shared with outside traffic.
    """
    return Link(name=name, latency=2.0e-6, bandwidth=300.0e6, traffic=NoTraffic(),
                per_message_overhead=1.0e-6)


def gigabit_lan(traffic: Optional[TrafficModel] = None, name: str = "gigabit-lan") -> Link:
    """Fiber Gigabit Ethernet between two machines at one site (AMR64 system).

    The wire is ~1 Gbit/s, but what an MPI code saw end-to-end in 2001 over
    TCP through shared site switches was far less: ~100-150 microsecond
    latency and a few tens of MB/s of achievable throughput.  The preset
    models the achievable path, not the wire.
    """
    return Link(
        name=name,
        latency=1.2e-4,
        bandwidth=30.0e6,
        traffic=traffic if traffic is not None else NoTraffic(),
        per_message_overhead=2.0e-4,
    )


def mren_wan(traffic: Optional[TrafficModel] = None, name: str = "mren-oc3-wan") -> Link:
    """MREN ATM OC-3 WAN between ANL and NCSA (ShockPool3D system).

    OC-3 = 155 Mbit/s ~= 19 MB/s nominal; several-millisecond latency over
    the Chicago--Urbana path; heavily shared.
    """
    return Link(
        name=name,
        latency=5.0e-3,
        bandwidth=19.0e6,
        traffic=traffic if traffic is not None else NoTraffic(),
        per_message_overhead=5.0e-4,
    )
