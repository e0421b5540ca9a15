"""Fault injection & dynamic environments (``repro.faults``).

The paper's motivating observation is that shared distributed systems shift
under the application: "the performance of [shared] resources changes with
the external load".  The occupancy models of :mod:`repro.distsys.traffic`
describe that load for links and processors alike; this subsystem places
them on the environment:

* :mod:`repro.faults.schedule` -- :class:`FaultSchedule`: timed slowdowns,
  dropout/rejoin windows, continuous CPU weather and link
  degradation/outage windows, applied to a system before a run;
* :mod:`repro.faults.resilience` -- post-run metrics: time-to-rebalance
  after each perturbation, the imbalance trajectory, and wall-clock lost
  to degraded capacity.
"""

from .schedule import (
    CpuLoadFault,
    DropoutFault,
    FaultBoundary,
    FaultSchedule,
    LinkDegradationFault,
    SlowdownFault,
)
from .resilience import (
    ResilienceReport,
    imbalance_trajectory,
    lost_compute_time,
    peak_imbalance,
    resilience_report,
    time_to_rebalance,
)

__all__ = [
    "CpuLoadFault",
    "SlowdownFault",
    "DropoutFault",
    "LinkDegradationFault",
    "FaultBoundary",
    "FaultSchedule",
    "ResilienceReport",
    "imbalance_trajectory",
    "peak_imbalance",
    "lost_compute_time",
    "time_to_rebalance",
    "resilience_report",
]
