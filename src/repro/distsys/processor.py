"""Processors: the compute elements of a simulated distributed system.

The paper (Section 4): "To address the heterogeneity of processors, each
processor is assigned a relative performance weight.  When distributing
workload among processors, the load is balanced proportional to these
weights."  A processor here is exactly that: an id, a group membership and a
relative weight -- plus, because shared systems shift under the application,
an external-load model that scales the *available* speed over time.  The
load is an occupancy model from :mod:`repro.distsys.traffic`, the same
family that carries link traffic; the processor applies its own floor,
:data:`MIN_AVAILABILITY`.  The time to execute ``L`` work units starting
at ``t`` is ``L / (base_speed * weight * availability(t))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .traffic import NoTraffic, TrafficModel

__all__ = ["Processor", "MIN_AVAILABILITY"]

#: availability never falls below this (a stalled processor is slow, not
#: infinitely slow): 1% of nominal speed, written as ``1.0 - 0.99`` because
#: every pinned result depends on that exact float
MIN_AVAILABILITY = 1.0 - 0.99


@dataclass(frozen=True)
class Processor:
    """One compute element.

    Parameters
    ----------
    pid:
        Globally unique processor id (dense, 0-based).
    group_id:
        Id of the owning :class:`~repro.distsys.group.Group`.
    weight:
        Relative performance weight; a weight-2 processor executes work
        twice as fast as a weight-1 processor.  The paper's experiments use
        homogeneous weights (all 1.0); the scheme -- and this package --
        support arbitrary positive weights.
    base_speed:
        Work units per second of a weight-1.0 processor.  The absolute value
        only scales reported seconds; ratios between schemes are invariant.
    load:
        External CPU-load occupancy model (:mod:`repro.distsys.traffic`):
        the fraction of this processor consumed by competing work as a
        function of time.  The default
        :class:`~repro.distsys.traffic.NoTraffic` reproduces the original
        static processor exactly.
    """

    pid: int
    group_id: int
    weight: float = 1.0
    base_speed: float = 1.0e6
    load: TrafficModel = field(default_factory=NoTraffic)

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ValueError(f"pid must be >= 0, got {self.pid}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.base_speed <= 0:
            raise ValueError(f"base_speed must be positive, got {self.base_speed}")

    @property
    def speed(self) -> float:
        """Nominal (zero-external-load) work units per second."""
        return self.base_speed * self.weight

    def availability(self, time: float = 0.0) -> float:
        """Fraction of nominal speed available to the application at ``time``."""
        return max(MIN_AVAILABILITY, 1.0 - self.load.occupancy(time))

    def effective_speed(self, time: float = 0.0) -> float:
        """Work units per second actually achievable at ``time``.

        This is what a calibration benchmark run at ``time`` would measure
        -- the quantity :func:`~repro.core.weights.measure_weights`
        normalises into relative weights.
        """
        return self.speed * self.availability(time)

    def execution_time(self, work: float, time: float = 0.0) -> float:
        """Seconds to execute ``work`` work units starting at ``time``.

        External-load conditions are sampled once at the start instant
        (phases are short relative to fault time scales, the same
        convention the network links use).
        """
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        return work / self.effective_speed(time)
