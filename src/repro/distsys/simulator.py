"""Step-driven cluster simulator: turns work and messages into wall-clock.

The simulator owns the virtual clock.  SAMR steps are bulk-synchronous: a
compute phase lasts as long as its most loaded processor (MPI codes wait at
the exchange), then a communication phase lasts as long as its busiest link.
Every phase advances the clock and is recorded in the :class:`~repro.distsys.
events.EventLog`; per-purpose accumulators feed the Fig. 3 / Fig. 7 style
breakdowns.

The probe method implements Section 4.2 verbatim: "the scheme sends two
messages between groups, and calculates the network performance parameters
alpha and beta".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..obs import NULL_TRACER, Tracer
from .comm import CommGeometry, CommPhaseResult, MessageBatch, comm_phase_time
from .events import (
    CommEvent,
    ComputeEvent,
    EventLog,
    FaultEvent,
    ProbeEvent,
)
from .system import DistributedSystem

__all__ = ["ClusterSimulator", "PROBE_SMALL_BYTES", "PROBE_LARGE_BYTES"]

#: probe message sizes (bytes): one tiny message isolates alpha, one sizeable
#: message exposes the achievable rate
PROBE_SMALL_BYTES = 64.0
PROBE_LARGE_BYTES = 65536.0


class ClusterSimulator:
    """Virtual clock + cost accounting over a :class:`DistributedSystem`.

    Attributes
    ----------
    clock:
        Current simulation wall-clock time in seconds.
    compute_time:
        Total wall-clock spent in compute phases.
    comm_time:
        Total wall-clock spent in communication phases (all purposes).
    comm_time_by_purpose:
        Wall-clock per phase purpose ("ghost", "migration", "probe", ...).
    balance_overhead:
        Wall-clock spent in balancing actions: migration comm plus
        repartitioning/rebuild compute charged via :meth:`charge_overhead`.
    """

    def __init__(
        self,
        system: DistributedSystem,
        log: Optional[EventLog] = None,
        fault_schedule=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.system = system
        self.log = log if log is not None else EventLog()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = 0.0
        self.compute_time = 0.0
        self.comm_time = 0.0
        self.local_comm_busy = 0.0
        self.remote_comm_busy = 0.0
        self.comm_time_by_purpose: Dict[str, float] = {}
        self.remote_bytes_by_kind: Dict[str, float] = {}
        self.balance_overhead = 0.0
        self.probe_time = 0.0
        #: fault boundaries still ahead of the clock, soonest first.  The
        #: schedule is duck-typed (anything with ``boundaries()``) so this
        #: module stays import-independent of :mod:`repro.faults`.
        self.fault_schedule = fault_schedule
        self._pending_faults = (
            list(fault_schedule.boundaries()) if fault_schedule is not None else []
        )
        #: routing tables reused by every comm phase (a system never
        #: changes after construction: fault windows live in the links'
        #: traffic models, not in the route tables)
        self._comm_geometry = CommGeometry(system)
        self._observe_faults()

    def _observe_faults(self) -> None:
        """Log a :class:`FaultEvent` for every boundary the clock passed.

        Called after each clock advance; events are stamped with the
        boundary's onset time (which may precede the phase-end at which the
        simulator noticed it).
        """
        while self._pending_faults and self._pending_faults[0].time <= self.clock:
            b = self._pending_faults.pop(0)
            self.log.record(
                FaultEvent(
                    time=b.time, kind=b.kind, phase=b.phase, description=b.description
                )
            )

    # ------------------------------------------------------------------ #
    # compute phases
    # ------------------------------------------------------------------ #

    def run_compute(self, loads: np.ndarray, level: int = 0, seq: int = 0) -> float:
        """Execute one bulk-synchronous compute phase.

        ``loads`` is the work units of every processor, a ``float64`` array
        indexed by pid (idle processors hold 0.0).  Processor speeds are
        sampled at the phase-start clock, so injected faults (external CPU
        load, slowdowns, dropouts) stretch exactly the phases that overlap
        them.  Returns the phase duration (max over processors of work /
        effective speed).
        """
        works = np.asarray(loads, dtype=np.float64)
        if works.shape != (self.system.nprocs,):
            raise ValueError(
                f"loads must have one entry per processor "
                f"({self.system.nprocs}), got shape {works.shape}"
            )
        with self.tracer.span("compute", level=level, seq=seq) as span:
            start = self.clock
            # cumsum adds left to right in pid order, the order the pinned
            # results use; effective speed is speed * availability, and
            # availability is exactly 1.0 for load-free processors
            eff = self.system.speed_by_pid
            if self.system.loaded_pids:
                avail = np.ones(self.system.nprocs, dtype=np.float64)
                for pid in self.system.loaded_pids:
                    avail[pid] = self.system.processor(pid).availability(start)
                eff = eff * avail
            total = float(works.cumsum()[-1])
            speed_sum = float(eff.cumsum()[-1])
            elapsed = float((works / eff).max())
            self.clock += elapsed
            self.compute_time += elapsed
            self.log.record(
                ComputeEvent(
                    time=self.clock,
                    level=level,
                    seq=seq,
                    elapsed=elapsed,
                    max_load=float(works.max()),
                    total_load=total,
                    ideal_elapsed=(total / speed_sum) if speed_sum > 0.0 else 0.0,
                )
            )
            span.set_attribute("total_load", total)
        self._observe_faults()
        return elapsed

    # ------------------------------------------------------------------ #
    # communication phases
    # ------------------------------------------------------------------ #

    def run_comm(
        self,
        messages: MessageBatch,
        level: int = 0,
        purpose: str = "ghost",
        count_as_balance: bool = False,
    ) -> CommPhaseResult:
        """Execute one bulk-synchronous communication phase.

        Link conditions are sampled at the current clock.  ``count_as_balance``
        attributes the elapsed time to :attr:`balance_overhead` (migration
        traffic) on top of the regular comm accounting.  The system's
        routing tables, built once, are reused for every phase.
        """
        with self.tracer.span("comm", level=level, purpose=purpose) as span:
            result = comm_phase_time(self.system, messages, self.clock,
                                     geometry=self._comm_geometry)
            self.clock += result.elapsed
            self.comm_time += result.elapsed
            self.local_comm_busy += result.local_time
            self.remote_comm_busy += result.remote_time
            self.comm_time_by_purpose[purpose] = (
                self.comm_time_by_purpose.get(purpose, 0.0) + result.elapsed
            )
            for kind, nbytes in result.remote_bytes_by_kind.items():
                self.remote_bytes_by_kind[kind] = (
                    self.remote_bytes_by_kind.get(kind, 0.0) + nbytes
                )
            if count_as_balance:
                self.balance_overhead += result.elapsed
            self.log.record(
                CommEvent(
                    time=self.clock,
                    level=level,
                    purpose=purpose,
                    elapsed=result.elapsed,
                    local_time=result.local_time,
                    remote_time=result.remote_time,
                    local_bytes=result.local_bytes,
                    remote_bytes=result.remote_bytes,
                )
            )
            span.set_attributes(local_bytes=result.local_bytes,
                                remote_bytes=result.remote_bytes)
        self._observe_faults()
        return result

    # ------------------------------------------------------------------ #
    # probing (Section 4.2)
    # ------------------------------------------------------------------ #

    def probe_inter_link(self, group_a: int, group_b: int) -> Tuple[float, float]:
        """Measure ``(alpha, beta)`` of the path between two groups.

        Sends one small and one large message over the groups' route (one
        link on a star or mesh, several on a multi-hop topology), solves
        the two-point linear system of the paper's ``Tcomm = alpha +
        beta*L`` model, charges the probe's wall-clock, and returns
        ``(alpha_seconds, beta_s_per_byte)``.
        The estimate is exact at the instant of the probe; the *network may
        have changed* by the time a migration runs -- that gap is inherent
        to the paper's method and is measured by the cost-model ablation.
        """
        with self.tracer.span("probe", group_a=group_a, group_b=group_b) as span:
            route = self.system.route_between(group_a, group_b)
            t_small = route.transfer_time(PROBE_SMALL_BYTES, self.clock)
            t_large = route.transfer_time(PROBE_LARGE_BYTES, self.clock)
            beta = (t_large - t_small) / (PROBE_LARGE_BYTES - PROBE_SMALL_BYTES)
            alpha = t_small - beta * PROBE_SMALL_BYTES
            elapsed = t_small + t_large
            self.clock += elapsed
            self.comm_time += elapsed
            self.probe_time += elapsed
            self.comm_time_by_purpose["probe"] = (
                self.comm_time_by_purpose.get("probe", 0.0) + elapsed
            )
            self.log.record(
                ProbeEvent(
                    time=self.clock,
                    group_a=group_a,
                    group_b=group_b,
                    alpha_estimate=alpha,
                    beta_estimate=beta,
                    elapsed=elapsed,
                )
            )
            span.set_attributes(alpha=alpha, beta=beta)
        self._observe_faults()
        return alpha, beta

    # ------------------------------------------------------------------ #
    # overheads
    # ------------------------------------------------------------------ #

    def charge_overhead(self, seconds: float, as_balance: bool = True) -> None:
        """Advance the clock by a computational overhead (repartitioning,
        data-structure rebuild, boundary update -- the paper's ``delta``)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.clock += seconds
        if as_balance:
            self.balance_overhead += seconds
        self._observe_faults()

    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, float]:
        """Accounting snapshot for reports/tests."""
        return {
            "clock": self.clock,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "local_comm_busy": self.local_comm_busy,
            "remote_comm_busy": self.remote_comm_busy,
            "balance_overhead": self.balance_overhead,
            "probe_time": self.probe_time,
        }
