"""Redistribution cost evaluation: Eq. 1 of the paper.

"Basically, the redistribution cost consists of both communicational and
computational overhead.  The communicational overhead includes the time to
migrate workload among processors. [...] Then the scheme sends two messages
between groups, and calculates the network performance parameters alpha and
beta.  If the amount of workload need to be redistributed is W, the
communication cost would be alpha + beta * W. [...]  To estimate the
computational cost, the scheme uses history information, that is, recording
the computational overhead of the previous iteration.  We denote this
portion of cost as delta.  Therefore, the total cost for redistribution is:

    Cost = (alpha + beta * W) + delta                                  (1)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostEstimate", "CostModel"]


@dataclass(frozen=True)
class CostEstimate:
    """One evaluated redistribution cost with its ingredients."""

    alpha: float
    beta: float
    migrate_bytes: float
    delta: float

    @property
    def communication(self) -> float:
        """``alpha + beta * W`` (seconds)."""
        return self.alpha + self.beta * self.migrate_bytes

    @property
    def total(self) -> float:
        """Eq. 1: communication plus remembered computational overhead."""
        return self.communication + self.delta


class CostModel:
    """Eq. 1 evaluator with the paper's history-based ``delta``.

    ``delta`` starts at a caller-supplied prior (a redistribution has never
    run yet, so the paper's "previous iteration" does not exist; a small
    positive prior keeps the gate meaningful on the first decision) and is
    replaced by the *measured* computational overhead after every actual
    redistribution.
    """

    def __init__(self, initial_delta: float = 0.0) -> None:
        if initial_delta < 0:
            raise ValueError(f"initial_delta must be >= 0, got {initial_delta}")
        self._delta = float(initial_delta)

    @property
    def delta(self) -> float:
        """Current remembered computational overhead (seconds)."""
        return self._delta

    def record_overhead(self, measured_seconds: float) -> None:
        """Store the computational overhead of the redistribution just done."""
        if measured_seconds < 0:
            raise ValueError(f"measured_seconds must be >= 0, got {measured_seconds}")
        self._delta = float(measured_seconds)

    def estimate(self, alpha: float, beta: float, migrate_bytes: float) -> CostEstimate:
        """Evaluate Eq. 1 for a planned migration of ``migrate_bytes``.

        ``alpha`` (s) and ``beta`` (s/byte) come from the two-message probe
        (:meth:`repro.distsys.simulator.ClusterSimulator.probe_inter_link`).
        """
        if alpha < 0 or beta < 0:
            raise ValueError(f"alpha/beta must be >= 0, got {alpha}, {beta}")
        if migrate_bytes < 0:
            raise ValueError(f"migrate_bytes must be >= 0, got {migrate_bytes}")
        return CostEstimate(
            alpha=alpha, beta=beta, migrate_bytes=migrate_bytes, delta=self._delta
        )
