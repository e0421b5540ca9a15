"""Gain evaluation: Eqs. 2--4 of the paper.

"Between two iterations at level 0, the scheme records several performance
data, such as the amount of load each processor has for all levels, the
number of iterations for each finer level, and the execution time for one
time-step at level 0. [...]

    W^i_group(t) = sum_{proc in group} w^i_proc(t)                      (2)
    W_group(t)   = sum_{0 <= i <= maxlevel} W^i_group(t) * N^i_iter(t)  (3)
    Gain = T(t) * (max(W_group) - min(W_group))
           / (Number_Groups * max(W_group))                             (4)

Hence, the gain provides a very conservative estimate of the amount of
decrease in execution time that will occur from the redistribution of load."

:class:`WorkloadHistory` is the recorder; :func:`estimate_gain` is Eq. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..distsys.system import DistributedSystem

__all__ = ["CoarseStepRecord", "WorkloadHistory", "estimate_gain"]


@dataclass
class CoarseStepRecord:
    """Everything recorded over one level-0 time step.

    ``proc_level_loads[level]`` is ``w^i_proc`` as a pid-indexed ``float64``
    array -- the workload each processor held the *last* time that level
    was advanced in the step; ``level_iterations[level]`` is ``N^i_iter``;
    ``walltime`` is ``T(t)``.
    """

    index: int
    proc_level_loads: Dict[int, np.ndarray] = field(default_factory=dict)
    level_iterations: Dict[int, int] = field(default_factory=dict)
    walltime: float = 0.0

    def group_totals(self, system: DistributedSystem) -> np.ndarray:
        """Eq. 3 for every group, as a group-indexed ``float64`` array.

        Eq. 2's ``W^i_group`` is one ``bincount`` of the level's loads by
        group, which adds each group's processors in pid order; the levels
        are weighted by ``N^i_iter`` and summed in recording order.
        """
        total = np.zeros(system.ngroups, dtype=np.float64)
        for level, iters in self.level_iterations.items():
            level_load = np.bincount(system.pid_groups,
                                     weights=self.proc_level_loads[level],
                                     minlength=system.ngroups)
            total = total + level_load * iters
        return total


class WorkloadHistory:
    """Rolling recorder of per-coarse-step performance data.

    The runtime calls :meth:`record_solve` at every solver sub-step and
    :meth:`end_coarse_step` at each level-0 boundary; the gain model reads
    :attr:`last_complete` -- the paper predicts the *coming* step from the
    *previous* one ("the difference is usually not very much between time
    steps", Section 4.3).
    """

    def __init__(self, keep: int = 8) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self._current = CoarseStepRecord(index=0)
        self._complete: List[CoarseStepRecord] = []

    # ------------------------------------------------------------------ #

    def record_solve(self, level: int, loads: np.ndarray) -> None:
        """Record one solver sub-step at ``level`` with its pid-indexed
        loads (stored as a copy)."""
        rec = self._current
        rec.level_iterations[level] = rec.level_iterations.get(level, 0) + 1
        rec.proc_level_loads[level] = np.array(loads, dtype=np.float64)

    def end_coarse_step(self, walltime: float) -> CoarseStepRecord:
        """Close the current record with its measured ``T(t)`` and rotate."""
        if walltime < 0:
            raise ValueError(f"walltime must be >= 0, got {walltime}")
        rec = self._current
        rec.walltime = walltime
        self._complete.append(rec)
        if len(self._complete) > self.keep:
            self._complete.pop(0)
        self._current = CoarseStepRecord(index=rec.index + 1)
        return rec

    # ------------------------------------------------------------------ #

    @property
    def last_complete(self) -> Optional[CoarseStepRecord]:
        """The most recent fully recorded coarse step (None before the first)."""
        return self._complete[-1] if self._complete else None


def estimate_gain(
    history: WorkloadHistory,
    system: DistributedSystem,
    capacities: Optional[np.ndarray] = None,
) -> float:
    """Eq. 4: predicted execution-time decrease from removing group imbalance.

    With ``capacities`` (group-indexed, as
    :func:`~repro.partition.proportional.group_capacities` computes them
    from a weight policy's weights), each group's recorded workload is
    first normalised by its capacity share.  This generalises Eq. 4 --
    written for groups of equal aggregate performance -- to heterogeneous
    and dynamic environments: a group slowed 4x by external load while
    holding its nominal share of work is exactly as overloaded as a group
    holding 4x the work on nominal processors, and the gain estimate says
    so.  With equal capacities the normalisation is the identity and the
    paper's formula is recovered bit for bit; without ``capacities`` it is
    the paper's formula.

    Returns 0.0 when no history exists yet or all groups are idle.
    """
    rec = history.last_complete
    if rec is None:
        return 0.0
    totals = rec.group_totals(system)
    if capacities is not None:
        cap_total = sum(capacities.tolist())
        n = len(totals)
        if cap_total > 0.0:
            # scale each group's load by (even share / its effective share);
            # the scale factors average to ~1 so the result stays in
            # workload units and T(t) keeps its meaning
            live = capacities > 0.0
            totals = totals[live] * cap_total / (n * capacities[live])
            if not len(totals):
                return 0.0
    w_max = float(totals.max())
    w_min = float(totals.min())
    if w_max <= 0.0:
        return 0.0
    return rec.walltime * (w_max - w_min) / (len(totals) * w_max)
