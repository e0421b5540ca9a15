"""Even, weight-proportional balancing of one level over a processor set.

This is the workhorse both schemes share.  The *parallel DLB* baseline runs
it over **all** processors of the system (treating the federation as one
machine); the *distributed DLB* local phase runs it once per group, over the
group's processors only, so "an overloaded processor can migrate its
workload to an underloaded processor of the same group only" (Section 4.1).

Two primitives:

* :func:`lpt_assign` -- longest-processing-time-first placement of a fresh
  set of grids onto processors with weight-proportional targets (used for
  initial distribution).  Each grid, heaviest first, goes to the processor
  with the largest deficit (target minus assigned), lowest pid on ties; a
  heap over the processors makes this O(grids · log procs);
* :func:`plan_rebalance` -- greedy pairwise correction of an existing
  assignment: repeatedly move the best-fitting grid from the most
  overloaded processor to the most underloaded one.  Each move strictly
  reduces the total absolute deviation, so termination is guaranteed; a
  tolerance keeps churn (and hence migration traffic) low.  The plan
  names each grid at most once: a grid the loop picks again keeps its
  first entry with the later destination, so its data crosses the network
  once, straight from its current owner.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Sequence

from ..amr.grid import Grid
from .base import Move

__all__ = ["lpt_assign", "plan_rebalance"]


def lpt_assign(
    grids: Sequence[Grid], targets: Mapping[int, float]
) -> Dict[int, int]:
    """Place ``grids`` on the target processors, heaviest first.

    ``targets`` maps pid -> desired workload share.  Each grid goes to the
    processor with the largest remaining deficit (target minus assigned),
    the classic LPT heuristic.  Returns gid -> pid.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    loads = {pid: 0.0 for pid in targets}
    # Min-heap on (-deficit, pid): the top is the largest deficit, lowest
    # pid on ties.  Only the popped processor's load changes, so re-pushing
    # it with its new deficit leaves no stale entry behind.
    heap = [(-(targets[p] - loads[p]), p) for p in loads]
    heapq.heapify(heap)
    out: Dict[int, int] = {}
    for g in sorted(grids, key=lambda g: (-g.workload, g.gid)):
        pid = heap[0][1]
        out[g.gid] = pid
        loads[pid] += g.workload
        heapq.heapreplace(heap, (-(targets[pid] - loads[pid]), pid))
    return out


def plan_rebalance(
    grids: Sequence[Grid],
    owner_of: Mapping[int, int],
    targets: Mapping[int, float],
    tolerance: float = 0.05,
    max_moves: int = 10_000,
) -> List[Move]:
    """Plan moves bringing every processor near its target (pid set = targets).

    Parameters
    ----------
    grids:
        The grids being balanced (one level, one processor set).
    owner_of:
        Current owner of each grid (must cover every grid; owners must all
        be in ``targets``).
    targets:
        pid -> desired workload.
    tolerance:
        Stop once every processor is within ``tolerance * mean_target`` of
        its target.
    max_moves:
        Hard cap (safety; never hit in practice).

    Returns the move list in execution order, one entry per moved grid,
    each from the grid's owner in ``owner_of``.
    """
    loads: Dict[int, float] = {pid: 0.0 for pid in targets}
    on_proc: Dict[int, List[Grid]] = {pid: [] for pid in targets}
    for g in grids:
        pid = owner_of[g.gid]
        if pid not in targets:
            raise ValueError(f"grid {g.gid} owned by {pid}, outside the balance set")
        loads[pid] += g.workload
        on_proc[pid].append(g)

    nprocs = len(targets)
    mean_target = sum(targets.values()) / nprocs
    tol_abs = tolerance * mean_target
    moves: List[Move] = []
    #: gid -> index of its entry in ``moves``
    entry: Dict[int, int] = {}

    for _ in range(max_moves):
        over = max(loads, key=lambda p: (loads[p] - targets[p], p))
        under = min(loads, key=lambda p: (loads[p] - targets[p], p))
        gap_over = loads[over] - targets[over]
        gap_under = targets[under] - loads[under]
        if gap_over <= tol_abs or gap_under <= tol_abs:
            break
        # Feasible grids: moving w reduces total |deviation| iff w < go + gu.
        # Among those, the best fit minimises |gap_over - w| (bring the
        # overloaded processor as close to target as possible).
        best: Grid = None  # type: ignore[assignment]
        best_fit = float("inf")
        for g in on_proc[over]:
            w = g.workload
            if w <= 0 or w >= gap_over + gap_under:
                continue
            fit = abs(gap_over - w)
            if fit < best_fit or (fit == best_fit and best is not None and g.gid < best.gid):
                best, best_fit = g, fit
        if best is None:
            break  # nothing movable without making matters worse
        i = entry.get(best.gid)
        if i is None:
            entry[best.gid] = len(moves)
            moves.append((best.gid, over, under))
        else:
            # moved again: one transfer from the original owner instead
            moves[i] = (best.gid, moves[i][1], under)
        on_proc[over].remove(best)
        on_proc[under].append(best)
        loads[over] -= best.workload
        loads[under] += best.workload
    # a grid that came back to its owner does not move at all
    return [m for m in moves if m[1] != m[2]]
