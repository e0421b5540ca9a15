"""Proportional-to-capacity partitioning (paper Section 4.4).

"Suppose the total workload is W, which needs to be partitioned into two
groups.  Group A consists of nA processors and each processor has the
performance of pA; group B consists of nB processors and each processor has
the performance of pB.  Then the global balancing process will partition the
workload into two portions: W * nA*pA/(nA*pA + nB*pB) for group A and
W * nB*pB/(nA*pA + nB*pB) for group B."

The same rule applies *within* a group (weights are equal there, so it
degenerates to an even split) and across any number of groups.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..distsys.system import DistributedSystem

__all__ = [
    "proportional_shares",
    "group_capacities",
    "group_targets",
    "processor_targets",
]


def proportional_shares(total: float, capacities: Sequence[float]) -> List[float]:
    """Split ``total`` proportionally to ``capacities``.

    All capacities must be positive; shares sum to ``total`` exactly up to
    floating-point rounding.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    caps = [float(c) for c in capacities]
    if not caps:
        raise ValueError("capacities must be non-empty")
    if any(c <= 0 for c in caps):
        raise ValueError(f"capacities must be positive, got {caps}")
    s = sum(caps)
    return [total * c / s for c in caps]


def group_capacities(
    system: DistributedSystem, weights: Mapping[int, float]
) -> Dict[int, float]:
    """Capacity of every group: the sum of its processors' ``weights``.

    ``weights`` maps pid -> weight, as a weight policy's
    ``processor_weights`` returns it.  Under nominal weights this is the
    paper's ``n_g * p_g``; under re-measured ones a group slowed by
    external load, or dropped out, has proportionally less capacity.
    """
    return {
        g.group_id: sum(weights[pid] for pid in g.pids) for g in system.groups
    }


def group_targets(
    system: DistributedSystem, total: float, weights: Mapping[int, float]
) -> Dict[int, float]:
    """Target workload per group: ``W * cap_g / sum(cap)`` (Eq. 5), with
    the capacities :func:`group_capacities` computes from ``weights``."""
    caps = group_capacities(system, weights)
    shares = proportional_shares(total, list(caps.values()))
    return dict(zip(caps, shares))


def processor_targets(
    system: DistributedSystem, total: float, weights: Mapping[int, float]
) -> Dict[int, float]:
    """Target workload per processor, proportional to its entry in
    ``weights`` (pid -> weight).

    Used by the group-oblivious schemes, which balance over all
    processors.
    """
    procs = system.processors
    shares = proportional_shares(total, [weights[p.pid] for p in procs])
    return {p.pid: share for p, share in zip(procs, shares)}
