"""Proportional-to-capacity partitioning (paper Section 4.4).

"Suppose the total workload is W, which needs to be partitioned into two
groups.  Group A consists of nA processors and each processor has the
performance of pA; group B consists of nB processors and each processor has
the performance of pB.  Then the global balancing process will partition the
workload into two portions: W * nA*pA/(nA*pA + nB*pB) for group A and
W * nB*pB/(nA*pA + nB*pB) for group B."

The same rule applies *within* a group (weights are equal there, so it
degenerates to an even split) and across any number of groups.

Weights come in as the pid-indexed ``float64`` array a weight policy's
``processor_weights`` returns; capacities and targets go out as group- or
pid-indexed arrays.  Every sum adds left to right (``bincount`` or a
Python ``sum`` over ``tolist()``): numpy's pairwise ``sum`` rounds
differently from 8 elements on.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..distsys.system import DistributedSystem

__all__ = [
    "proportional_shares",
    "group_capacities",
    "group_targets",
    "processor_targets",
]


def proportional_shares(
    total: float, capacities: Union[Sequence[float], np.ndarray]
) -> np.ndarray:
    """Split ``total`` proportionally to ``capacities``.

    All capacities must be positive; shares sum to ``total`` exactly up to
    floating-point rounding.  Returns a ``float64`` array in the order of
    ``capacities``.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.size == 0:
        raise ValueError("capacities must be non-empty")
    if (caps <= 0).any():
        raise ValueError(f"capacities must be positive, got {caps.tolist()}")
    s = sum(caps.tolist())
    return total * caps / s


def group_capacities(system: DistributedSystem, weights: np.ndarray) -> np.ndarray:
    """Capacity of every group: the sum of its processors' ``weights``.

    ``weights`` is pid-indexed, as a weight policy's ``processor_weights``
    returns it; the result is group-indexed.  Under nominal weights this
    is the paper's ``n_g * p_g``; under re-measured ones a group slowed by
    external load, or dropped out, has proportionally less capacity.
    """
    members = system.member_pids
    return np.bincount(system.pid_groups[members], weights=weights[members],
                       minlength=system.ngroups)


def group_targets(
    system: DistributedSystem, total: float, weights: np.ndarray
) -> np.ndarray:
    """Target workload per group: ``W * cap_g / sum(cap)`` (Eq. 5), with
    the capacities :func:`group_capacities` computes from ``weights``."""
    return proportional_shares(total, group_capacities(system, weights))


def processor_targets(
    system: DistributedSystem, total: float, weights: np.ndarray
) -> np.ndarray:
    """Target workload per processor (pid-indexed), proportional to its
    entry in ``weights``.

    Used by the group-oblivious schemes, which balance over all
    processors.
    """
    return proportional_shares(total, weights)
