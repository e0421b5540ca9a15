"""Balancing context and the shared migration machinery.

A DLB scheme (:class:`~repro.core.composed.ComposedScheme`) is consulted at
fixed points of the SAMR integration (Fig. 5) with a
:class:`BalanceContext` -- everything it may observe and act on.  Policies
*plan* moves; the shared :func:`execute_moves` applies them -- migrating a
grid sends its data over whatever link separates the two owners and
updates the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..amr.hierarchy import GridHierarchy
from ..config import SchemeParams, SimParams
from ..distsys.comm import MessageBatch, MessageKind
from ..distsys.events import LocalBalanceEvent
from ..distsys.simulator import ClusterSimulator
from ..distsys.system import DistributedSystem
from ..obs import NULL_TRACER, Tracer
from ..partition.mapping import GridAssignment
from .gain import WorkloadHistory

__all__ = ["BalanceContext", "Move", "execute_moves"]

#: a planned grid migration: (gid, src_pid, dst_pid)
Move = Tuple[int, int, int]


@dataclass
class BalanceContext:
    """Everything a scheme needs to observe and act on the run."""

    hierarchy: GridHierarchy
    assignment: GridAssignment
    system: DistributedSystem
    sim: ClusterSimulator
    sim_params: SimParams = field(default_factory=SimParams)
    scheme_params: SchemeParams = field(default_factory=SchemeParams)
    history: WorkloadHistory = field(default_factory=WorkloadHistory)
    #: span sink for scheme-side instrumentation; disabled no-op by default
    tracer: Tracer = field(default=NULL_TRACER)


def execute_moves(
    ctx: BalanceContext,
    moves: Sequence[Move],
    level: int,
    purpose: str,
) -> Tuple[int, int]:
    """Migrate the planned grids of ``level`` and charge the communication.

    Every move is checked against the level's owner column before anything
    is charged: a gid not on ``level`` raises :exc:`KeyError`, a move whose
    source no longer owns its grid :exc:`ValueError`.  The new owners are
    written as one batch after the communication.

    Returns ``(moved_grids, moved_cells)``.  No-op (and no cost) for an
    empty plan.  The event log receives a :class:`LocalBalanceEvent` for
    local purposes; global redistribution logs its own richer event.
    """
    if not moves:
        if purpose != "global-redistribution":
            # The balancing *process* ran even when it found nothing to move
            # -- Fig. 5 marks every invocation, and tests assert on them.
            ctx.sim.log.record(
                LocalBalanceEvent(
                    time=ctx.sim.clock, level=level,
                    moved_grids=0, moved_cells=0, elapsed=0.0,
                )
            )
        return 0, 0
    gids = [m[0] for m in moves]
    srcs = [m[1] for m in moves]
    dsts = [m[2] for m in moves]
    rows = ctx.hierarchy.level_rows(level, gids)
    stale = ctx.assignment.owners(level)[rows] != srcs
    if stale.any():
        k = int(np.argmax(stale))
        raise ValueError(f"move plan stale: grid {gids[k]} is not on {srcs[k]}")
    cells = ctx.hierarchy.level_boxes(level).ncells()[rows].tolist()
    moved_cells = sum(cells)
    result = ctx.sim.run_comm(
        MessageBatch.of_kind(srcs, dsts,
                             [c * ctx.sim_params.bytes_per_cell for c in cells],
                             MessageKind.MIGRATION),
        level=level, purpose=purpose, count_as_balance=True,
    )
    ctx.assignment.assign(level, gids, dsts)
    if purpose != "global-redistribution":
        ctx.sim.log.record(
            LocalBalanceEvent(
                time=ctx.sim.clock,
                level=level,
                moved_grids=len(moves),
                moved_cells=moved_cells,
                elapsed=result.elapsed,
            )
        )
    return len(moves), moved_cells
