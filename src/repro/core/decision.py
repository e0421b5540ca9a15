"""The global-redistribution gate: ``Gain > gamma * Cost`` (Section 4.4).

"The global load redistribution is invoked when the computational gain is
larger than some factor times the redistribution cost, that is, when
``Gain > gamma * Cost``.  Here, gamma is a user-defined parameter (default
is 2.0) which identifies how much the computational gain must be for the
redistribution to be invoked."
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import CostEstimate

__all__ = ["Decision", "decide"]


@dataclass(frozen=True)
class Decision:
    """Outcome of one gate evaluation, kept for traces and ablations."""

    gain: float
    cost: float
    gamma: float
    invoke: bool


def decide(gain: float, cost: CostEstimate, gamma: float) -> Decision:
    """Apply the paper's gate to an estimated gain and cost."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    total = cost.total
    return Decision(gain=gain, cost=total, gamma=gamma, invoke=gain > gamma * total)
