"""Run-level timing results and breakdowns.

:class:`RunResult` is what an experiment returns: the simulated wall-clock
total plus the attribution the paper's figures need -- computation vs
communication (Fig. 3), total execution time (Fig. 7), and the balancing
overhead the gain/cost gate tries to keep profitable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..distsys.events import EventLog

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of one simulated SAMR run.

    All times are simulated seconds.  ``total_time`` is the wall-clock of
    the whole run; ``compute_time + comm_time`` can fall short of it only by
    the non-comm balancing overhead (repartitioning delta), which is listed
    separately in ``balance_overhead`` together with migration traffic.
    """

    scheme: str
    app: str
    system: str
    nsteps: int
    total_time: float
    compute_time: float
    comm_time: float
    balance_overhead: float
    probe_time: float
    local_comm_busy: float
    remote_comm_busy: float
    comm_by_purpose: Dict[str, float] = field(default_factory=dict)
    remote_bytes_by_kind: Dict[str, float] = field(default_factory=dict)
    final_grids: int = 0
    final_cells: int = 0
    redistributions: int = 0
    decisions: int = 0
    #: fault-window boundaries observed during the run (0 when no schedule)
    faults: int = 0
    events: Optional[EventLog] = None
    #: finished trace spans (:class:`~repro.obs.SpanRecord`); ``None`` unless
    #: the run was traced -- the untraced result is bit-identical to the
    #: pre-observability seed path
    spans: Optional[List[Any]] = None
    #: :meth:`~repro.obs.MetricsRegistry.snapshot` taken at run end;
    #: ``None`` unless the run was traced / given a registry
    metrics: Optional[Dict[str, Any]] = None
    #: serving-simulator report (:meth:`repro.service.ServiceReport.to_dict`);
    #: ``None`` unless the run came from :func:`repro.service.simulate_service`.
    #: Unlike ``metrics`` it is part of the run's *outcome* and survives the
    #: result cache and the persistence layer.
    service: Optional[Dict[str, Any]] = None

    def improvement_over(self, other: "RunResult") -> float:
        """Relative execution-time improvement of *this* run vs ``other``.

        ``(other - self) / other`` -- the paper's "reduced by X%" measure;
        positive means this run is faster.
        """
        if other.total_time <= 0:
            raise ValueError("reference run has non-positive total time")
        return (other.total_time - self.total_time) / other.total_time

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"{self.scheme} | {self.app} | {self.system}",
            f"  total {self.total_time:.3f}s = compute {self.compute_time:.3f}s"
            f" + comm {self.comm_time:.3f}s"
            f" (balance overhead {self.balance_overhead:.3f}s,"
            f" probes {self.probe_time:.3f}s)",
            f"  comm by purpose: "
            + ", ".join(
                f"{k}={v:.3f}s" for k, v in sorted(self.comm_by_purpose.items())
            ),
            f"  steps {self.nsteps}, final grids {self.final_grids},"
            f" redistributions {self.redistributions}",
        ]
        if self.faults:
            lines.append(f"  fault boundaries observed: {self.faults}")
        return "\n".join(lines)
