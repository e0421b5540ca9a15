"""Policy components: the four axes a DLB scheme is composed of.

The paper's scheme is really four separable policies, and every scheme in
this package is a :class:`~repro.core.composed.ComposedScheme` wiring one
choice per axis (see ``docs/SCHEMES.md`` for the paper mapping):

* :class:`WeightPolicy` -- how processor performance is evaluated
  (Section 3.1's relative-performance weights, nominal or re-measured
  under load);
* :class:`DecisionPolicy` -- whether a planned redistribution is worth
  invoking (Eqs. 1-4: Gain vs ``gamma *`` Cost);
* :class:`GlobalPartitionPolicy` -- how work is partitioned *across*
  groups (Eq. 5's capacity-proportional split, or no group structure at
  all);
* :class:`LocalBalancePolicy` -- how new grids are placed and how one
  level is rebalanced *within* the partition (Fig. 5's balance points).

Concrete policies register in the ``*_POLICIES`` tables keyed by the short
names a :class:`~repro.core.registry.SchemeSpec` serializes; user-defined
policies may be added to those tables directly.  :func:`build_policies`
instantiates one policy per axis from a spec, routing ``spec.options`` to
the constructors that accept them (``sweeps`` to the diffusion local
policy, ``initial_delta``/``use_forecast`` to the gain/cost decision, ...).

The weight policy is the only place that decides what a processor is
worth: every capacity, target, imbalance test and gain is computed from
the pid-indexed ``float64`` array its ``processor_weights`` returns.
Every per-group or per-processor sum over that array adds left to right
(``bincount``, ``cumsum`` or ``sum`` over ``tolist()``): the pinned results
depend on that order, and numpy's pairwise ``sum`` rounds differently.
"""

from __future__ import annotations

import heapq
import inspect
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

import numpy as np

from ..distsys.comm import MessageBatch, MessageKind
from ..partition.proportional import (
    group_capacities,
    group_targets,
    processor_targets,
    proportional_shares,
)
from ..partition.sfc import CURVES, contiguous_segments, curve_order
from .base import BalanceContext, Move, execute_moves
from .cost import CostModel
from .decision import Decision, decide
from .gain import estimate_gain
from .global_phase import (
    GlobalPlan,
    effective_level0_loads,
    execute_global_redistribution,
    plan_global_redistribution,
)
from .local_phase import lpt_assign, plan_rebalance

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from ..amr.boxarray import BoxArray
    from ..distsys.system import DistributedSystem
    from .registry import SchemeSpec

__all__ = [
    "WeightPolicy",
    "DecisionPolicy",
    "GlobalPartitionPolicy",
    "LocalBalancePolicy",
    "NominalWeights",
    "MeasuredWeights",
    "NeverRedistribute",
    "GainCostDecision",
    "FlatPartition",
    "ContiguousGroupPartition",
    "SFCPartition",
    "GlobalGreedyLocal",
    "GroupLocal",
    "StickyLocal",
    "DiffusionLocal",
    "SOSDiffusionLocal",
    "DimexDiffusionLocal",
    "SFCLocal",
    "WEIGHT_POLICIES",
    "DECISION_POLICIES",
    "GLOBAL_POLICIES",
    "LOCAL_POLICIES",
    "POLICY_REGISTRIES",
    "build_policies",
    "group_imbalance_exists",
]


# --------------------------------------------------------------------- #
# protocols
# --------------------------------------------------------------------- #


@runtime_checkable
class WeightPolicy(Protocol):
    """How processor performance weights are evaluated (paper Section 3.1).

    The one question the policy answers -- what is each processor worth at
    this instant -- is the only place the nominal/measured choice is made;
    group capacities, targets, the imbalance test and the gain are all
    computed from the array it returns.
    """

    def processor_weights(
        self, system: "DistributedSystem", time: float
    ) -> np.ndarray:
        """Performance weight of every processor at ``time`` (the simulated
        clock), as a ``float64`` array of length ``nprocs`` indexed by pid.
        Callers must not write to it."""
        ...


@runtime_checkable
class DecisionPolicy(Protocol):
    """Whether a planned global redistribution is worth invoking (Eqs. 1-4)."""

    #: gate evaluations so far, for ablations and the Fig. 4 trace
    decisions: List[Decision]

    def imbalance_exists(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> bool:
        """Is inter-group imbalance detected under these pid-indexed
        processor weights?"""
        ...

    def estimate_gain(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> float:
        """Eq. 4's Gain from the recorded workload history."""
        ...

    def evaluate(
        self, ctx: BalanceContext, plan: GlobalPlan, gain: float
    ) -> Decision:
        """Gate a non-empty plan: estimate Cost (Eq. 1), apply the gate."""
        ...

    def record_overhead(self, delta: float) -> None:
        """Feed the measured redistribution overhead back (Eq. 1's delta)."""
        ...


@runtime_checkable
class GlobalPartitionPolicy(Protocol):
    """How work is partitioned across the system's groups (Eq. 5)."""

    def initial_distribution(
        self, ctx: BalanceContext, weights: WeightPolicy
    ) -> None:
        """Distribute the initial hierarchy."""
        ...

    def active(self, ctx: BalanceContext) -> bool:
        """Does this partition run a global phase on this system at all?"""
        ...

    def plan(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> GlobalPlan:
        """Plan the inter-group redistribution under these pid-indexed
        weights."""
        ...

    def execute(
        self, ctx: BalanceContext, plan: GlobalPlan, predicted_cost: float
    ) -> float:
        """Execute a plan; returns the measured computational overhead."""
        ...


@runtime_checkable
class LocalBalancePolicy(Protocol):
    """Placement of new grids and per-level rebalancing (Fig. 5)."""

    def place_new_grids(
        self,
        ctx: BalanceContext,
        new_gids: Sequence[int],
        weights: WeightPolicy,
    ) -> None:
        """Place freshly created grids of one level."""
        ...

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        """Rebalance one level at a balance point; ``time`` is the
        simulated clock, at which the weights are sampled."""
        ...


# --------------------------------------------------------------------- #
# weight policies
# --------------------------------------------------------------------- #


class NominalWeights:
    """Static relative-performance weights (paper Section 3.1, Table 1).

    Each processor weighs its nominal performance weight
    (``GroupSpec.weight``) whatever the time, so a group's capacity is the
    paper's ``n_g * p_g``.
    """

    def processor_weights(
        self, system: "DistributedSystem", time: float
    ) -> np.ndarray:
        return system.weight_by_pid


class MeasuredWeights:
    """Weights re-measured at the balance point: ``weight * availability``.

    This is the distributed scheme's adaptation to non-dedicated resources:
    a processor slowed by external load is worth proportionally less the
    moment a balancing decision consults it.  Only processors carrying an
    external-load model are sampled: every other one is available exactly
    1.0, and load models are pure functions of time.
    """

    def processor_weights(
        self, system: "DistributedSystem", time: float
    ) -> np.ndarray:
        weights = system.weight_by_pid.copy()
        for pid in system.loaded_pids:
            p = system.processors[pid]
            weights[pid] = p.weight * p.availability(time)
        return weights


# --------------------------------------------------------------------- #
# decision policies
# --------------------------------------------------------------------- #


def group_imbalance_exists(
    ctx: BalanceContext, weights: np.ndarray
) -> bool:
    """Capacity-normalised group loads differ beyond the threshold?

    Uses the recorded history (Eq. 3 totals) -- the same data the gain is
    computed from -- so detection and gain agree.  Each group's load is
    normalised by its capacity under ``weights``: with re-measured weights
    a group slowed 4x by external load trips the threshold with unchanged
    workload, which is exactly the adaptation the dynamic-environment
    experiments measure.
    """
    rec = ctx.history.last_complete
    if rec is None:
        return False
    totals = rec.group_totals(ctx.system)
    caps = group_capacities(ctx.system, weights)
    if (caps <= 0.0).any():  # pragma: no cover - availability is floored
        return True
    norm = totals / caps
    hi = float(norm.max())
    lo = float(norm.min())
    if hi <= 0.0:
        return False
    if lo <= 0.0:
        return True
    return hi / lo > ctx.scheme_params.imbalance_threshold


class NeverRedistribute:
    """No global phase ever fires (group-oblivious schemes)."""

    def __init__(self) -> None:
        self.decisions: List[Decision] = []

    def imbalance_exists(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> bool:
        return False

    def estimate_gain(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> float:
        return 0.0

    def evaluate(
        self, ctx: BalanceContext, plan: GlobalPlan, gain: float
    ) -> Decision:  # pragma: no cover - unreachable behind imbalance gate
        return Decision(
            gain=gain, cost=0.0, gamma=ctx.scheme_params.gamma, invoke=False
        )

    def record_overhead(self, delta: float) -> None:  # pragma: no cover
        return None


class GainCostDecision:
    """The paper's gate: probe the link, estimate Cost, ``Gain > gamma*Cost``.

    Parameters
    ----------
    initial_delta:
        Prior for the cost model's remembered computational overhead before
        the first redistribution has been measured.
    use_forecast:
        Optional NWS-style smoothing of probed link parameters (the paper's
        Section 6 future-work item); off by default -- the paper's scheme
        uses the instantaneous probe.
    """

    def __init__(
        self, initial_delta: float = 0.05, use_forecast: bool = False
    ) -> None:
        self.cost_model = CostModel(initial_delta=initial_delta)
        self.decisions: List[Decision] = []
        self.use_forecast = bool(use_forecast)
        if self.use_forecast:
            from ..forecast import AdaptiveForecaster

            self._alpha_forecaster: Optional[AdaptiveForecaster] = (
                AdaptiveForecaster()
            )
            self._beta_forecaster: Optional[AdaptiveForecaster] = (
                AdaptiveForecaster()
            )
        else:
            self._alpha_forecaster = None
            self._beta_forecaster = None

    def imbalance_exists(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> bool:
        return group_imbalance_exists(ctx, weights)

    def estimate_gain(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> float:
        return estimate_gain(ctx.history, ctx.system,
                             group_capacities(ctx.system, weights))

    def evaluate(
        self, ctx: BalanceContext, plan: GlobalPlan, gain: float
    ) -> Decision:
        migrate_bytes = plan.migrate_cells * ctx.sim_params.bytes_per_cell
        # probe the busiest inter-group pair: max-load group vs min-load
        # group -- the highest id among tied maxima, the lowest among tied
        # minima
        rec = ctx.history.last_complete
        if rec is not None:
            totals = rec.group_totals(ctx.system)
            g_hi = int(np.flatnonzero(totals == totals.max())[-1])
            g_lo = int(np.argmin(totals))
        else:  # pragma: no cover - imbalance implies history
            g_hi, g_lo = 0, 1
        if g_hi == g_lo:
            g_hi, g_lo = 0, 1
        alpha, beta = ctx.sim.probe_inter_link(g_hi, g_lo)
        if self._alpha_forecaster is not None and self._beta_forecaster is not None:
            # fold the fresh probe into the forecasters, then predict the
            # link state the migration will actually experience
            self._alpha_forecaster.update(alpha)
            self._beta_forecaster.update(beta)
            alpha = self._alpha_forecaster.forecast() or alpha
            beta = self._beta_forecaster.forecast() or beta
        cost = self.cost_model.estimate(alpha, beta, migrate_bytes)
        decision = decide(gain, cost, ctx.scheme_params.gamma)
        self.decisions.append(decision)
        return decision

    def record_overhead(self, delta: float) -> None:
        self.cost_model.record_overhead(delta)


# --------------------------------------------------------------------- #
# global partition policies
# --------------------------------------------------------------------- #


class FlatPartition:
    """No group structure: one flat pool of processors, no global phase.

    Initial distribution LPTs every level across *all* processors,
    weight-proportionally -- on the paper's homogeneous testbed, an even
    split.
    """

    def initial_distribution(
        self, ctx: BalanceContext, weights: WeightPolicy
    ) -> None:
        w0 = weights.processor_weights(ctx.system, 0.0)
        h = ctx.hierarchy
        for level in range(h.max_levels):
            gids = h.level_gids(level)
            if not len(gids):
                continue
            work = h.level_workloads(level).tolist()
            targets = processor_targets(ctx.system, sum(work), w0)
            placed = lpt_assign(dict(zip(gids.tolist(), work)), _by_pid(targets))
            ctx.assignment.assign(level, list(placed), list(placed.values()))

    def active(self, ctx: BalanceContext) -> bool:
        return False

    def plan(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> GlobalPlan:  # pragma: no cover - inactive partitions are not planned
        return GlobalPlan()

    def execute(
        self, ctx: BalanceContext, plan: GlobalPlan, predicted_cost: float
    ) -> float:  # pragma: no cover - inactive partitions never execute
        return 0.0


def _check_curve(curve: str) -> str:
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; known: {', '.join(CURVES)}")
    return curve


def _by_pid(targets: np.ndarray) -> Dict[int, float]:
    """A pid-indexed target array as the pid -> target mapping the LPT and
    rebalance planners take."""
    return dict(enumerate(targets.tolist()))


def _group_shares(
    group: Any, total: float, weights: np.ndarray
) -> Tuple[List[int], List[float]]:
    """``total`` split over ``group``'s processors in proportion to their
    ``weights`` (Eq. 5 within one group), as parallel pid and share lists
    in the group's own processor order."""
    pids = group.pids
    return pids, proportional_shares(total, weights[pids]).tolist()


def _by_group(group_of: np.ndarray, rows: np.ndarray) -> Dict[int, np.ndarray]:
    """``rows`` bucketed by ``group_of[rows]``, each bucket in the order of
    ``rows``, the groups in order of first appearance."""
    groups = group_of[rows]
    return {g: rows[groups == g] for g in dict.fromkeys(groups.tolist())}


def _root_group_cut(
    ctx: BalanceContext,
    w0: np.ndarray,
    order: Callable[[BoxArray, np.ndarray], np.ndarray],
) -> List[np.ndarray]:
    """Per level, the group of every row of the initial hierarchy.

    Level-0 grids, walked in ``order`` (indices into the level, from its
    boxes and gids), are cut into contiguous capacity-proportional runs
    (Eq. 5) weighted by each root's *effective* (all-levels) load, so an
    already adapted initial hierarchy starts balanced.  Descendant grids
    inherit their root's group (children stay with parents).
    """
    h = ctx.hierarchy
    eff = effective_level0_loads(ctx)
    total = sum(eff.tolist())
    if total <= 0:
        eff = h.level_workloads(0)
        total = sum(eff.tolist())
    targets = group_targets(ctx.system, total, w0)
    gids = h.level_gids(0)
    ordered = order(h.level_boxes(0), gids)
    groups = [np.empty(len(gids), dtype=np.int64)]
    groups[0][ordered] = contiguous_segments(eff[ordered].tolist(), targets.tolist())
    for level in range(1, h.max_levels):
        groups.append(groups[-1][h.parent_rows(level)])
    return groups


class _GroupPartition:
    """A partition with a global phase on every multi-group system."""

    def active(self, ctx: BalanceContext) -> bool:
        return ctx.system.ngroups >= 2

    def execute(
        self, ctx: BalanceContext, plan: GlobalPlan, predicted_cost: float
    ) -> float:
        _moved, _cells, delta = execute_global_redistribution(
            ctx, plan, predicted_cost=predicted_cost
        )
        return delta


class ContiguousGroupPartition(_GroupPartition):
    """Eq. 5: capacity-proportional split across contiguous group subdomains.

    Level-0 grids are sorted along axis 0 and dealt to groups in contiguous
    runs so each group owns a compact subdomain -- the paper's groups own
    contiguous halves of the domain (Fig. 6).  The global phase shifts that
    boundary via :func:`plan_global_redistribution`.
    """

    def initial_distribution(
        self, ctx: BalanceContext, weights: WeightPolicy
    ) -> None:
        """Capacity-proportional split across groups, LPT within each group,
        level by level."""
        w0 = weights.processor_weights(ctx.system, 0.0)
        h = ctx.hierarchy
        # lower corners, axis 0 first, ties by gid
        groups = _root_group_cut(
            ctx, w0, lambda boxes, gids: np.lexsort((gids, *boxes.lo.T[::-1]))
        )
        for level in range(h.max_levels):
            gids = h.level_gids(level)
            work = h.level_workloads(level)
            by_group = _by_group(groups[level], np.arange(len(gids)))
            placed: Dict[int, int] = {}
            for group in ctx.system.groups:
                rows = by_group.get(group.group_id)
                if rows is None:
                    continue
                loads = work[rows].tolist()
                pids, shares = _group_shares(group, sum(loads), w0)
                placed.update(lpt_assign(dict(zip(gids[rows].tolist(), loads)),
                                         dict(zip(pids, shares))))
            ctx.assignment.assign(level, list(placed), list(placed.values()))

    def plan(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> GlobalPlan:
        return plan_global_redistribution(ctx, weights)


class SFCPartition(_GroupPartition):
    """Eq. 5's capacity-proportional split along a space-filling curve.

    Identical cut rule to :class:`ContiguousGroupPartition` -- contiguous
    capacity-proportional segments with the midpoint straddle rule -- but
    the ordering is a Morton or Hilbert curve over grid centroids instead
    of an axis-0 sort, so every group (and every processor within it) owns
    a subdomain that is compact in *all* dimensions.  This is the
    extreme-scale formulation (Schornbaum & Ruede): no central data
    structure beyond the sorted key array, and the global phase is a re-cut
    of the same curve.

    The gain/cost invocation gate is untouched: planning only proposes the
    cross-group moves implied by the new cut, and
    :class:`~repro.core.composed.ComposedScheme` runs the plan through the
    decision policy (Eqs. 1-4) before :meth:`execute` is invoked.

    Parameters
    ----------
    curve:
        ``"morton"`` or ``"hilbert"``.
    """

    def __init__(self, curve: str = "morton") -> None:
        self.curve = _check_curve(curve)

    def initial_distribution(
        self, ctx: BalanceContext, weights: WeightPolicy
    ) -> None:
        """Curve-cut across groups, then curve-cut per level within each:
        curve-contiguous processor segments instead of LPT, so neighbouring
        grids land on neighbouring processors."""
        w0 = weights.processor_weights(ctx.system, 0.0)
        h = ctx.hierarchy
        groups = _root_group_cut(
            ctx, w0, lambda boxes, gids: curve_order(boxes, gids, self.curve)
        )
        for level in range(h.max_levels):
            gids = h.level_gids(level)
            if not len(gids):
                continue
            work = h.level_workloads(level)
            order = curve_order(h.level_boxes(level), gids, self.curve)
            owners = np.empty(len(gids), dtype=np.int64)
            for group_id, rows in _by_group(groups[level], order).items():
                loads = work[rows].tolist()
                pids, shares = _group_shares(ctx.system.groups[group_id],
                                             sum(loads), w0)
                owners[rows] = np.asarray(pids)[contiguous_segments(loads, shares)]
            ctx.assignment.assign(level, gids, owners)

    def plan(
        self, ctx: BalanceContext, weights: np.ndarray
    ) -> GlobalPlan:
        """Re-cut the level-0 curve; moves are the grids that change group.

        Grids staying in their group keep their processor (within-group
        placement is the local policy's job); incoming grids are steered to
        the processor whose segment of the destination group's new cut they
        fall into, cut in proportion to ``weights``.
        """
        plan = GlobalPlan()
        eff = effective_level0_loads(ctx)
        total = sum(eff.tolist())
        if total <= 0:
            return plan
        targets = group_targets(ctx.system, total, weights)
        h = ctx.hierarchy
        gids = h.level_gids(0)
        owners = ctx.assignment.owners(0)
        ncells = h.level_boxes(0).ncells()
        ordered = curve_order(h.level_boxes(0), gids, self.curve)
        cut = np.empty(len(gids), dtype=np.int64)
        cut[ordered] = contiguous_segments(eff[ordered].tolist(), targets.tolist())
        for group_id, rows in _by_group(cut, ordered).items():
            loads = eff[rows].tolist()
            pids, shares = _group_shares(ctx.system.groups[group_id],
                                         sum(loads), weights)
            pseg = contiguous_segments(loads, shares)
            stays = ctx.system.pid_groups[owners[rows]] == group_id
            for i, load, si, stay in zip(rows.tolist(), loads, pseg.tolist(),
                                         stays.tolist()):
                if stay:
                    continue
                plan.moves.append((int(gids[i]), int(owners[i]), pids[si]))
                plan.migrate_cells += int(ncells[i])
                plan.effective_moved += load
        return plan


# --------------------------------------------------------------------- #
# local balance policies
# --------------------------------------------------------------------- #


def _rebalance(
    ctx: BalanceContext,
    level: int,
    rows: np.ndarray,
    targets: Mapping[int, float],
) -> None:
    """Move the whole grids at ``rows`` of ``level`` toward per-processor
    ``targets``."""
    gids = ctx.hierarchy.level_gids(level)[rows].tolist()
    moves = plan_rebalance(
        dict(zip(gids, ctx.hierarchy.level_workloads(level)[rows].tolist())),
        dict(zip(gids, ctx.assignment.owners(level)[rows].tolist())),
        targets,
        tolerance=ctx.scheme_params.local_tolerance,
        max_moves=ctx.scheme_params.max_local_moves,
    )
    execute_moves(ctx, moves, level=level, purpose="local-balance")


def _ratio_heap(
    loads: List[float], weights: List[float], pids: Iterable[int]
) -> List[Tuple[float, int]]:
    """Min-heap of ``(load / weight, pid)`` over ``pids``: its top is the
    least weight-normalised load, lowest pid on ties."""
    heap = [(loads[p] / weights[p], p) for p in pids]
    heapq.heapify(heap)
    return heap


def _new_grid_rows(
    ctx: BalanceContext, new_gids: Sequence[int]
) -> Tuple[int, np.ndarray, np.ndarray]:
    """The level of ``new_gids`` (grids of one level), their rows in its
    table and their parents' owners."""
    h = ctx.hierarchy
    level = h.grid(new_gids[0]).level
    rows = np.searchsorted(h.level_gids(level), new_gids)
    parents = ctx.assignment.owners(level - 1)[h.parent_rows(level)[rows]]
    return level, rows, parents


def _place_on_top(
    heap: List[Tuple[float, int]],
    loads: List[float],
    weights: List[float],
    work: float,
) -> int:
    """Charge ``work`` to the heap's top processor and return its pid.

    Only that processor's ratio changes, so replacing the top keeps one
    current entry per pid (the ``lpt_assign`` pattern)."""
    pid = heap[0][1]
    loads[pid] += work
    heapq.heapreplace(heap, (loads[pid] / weights[pid], pid))
    return pid


class GlobalGreedyLocal:
    """Group-oblivious greedy placement + all-processor even rebalancing.

    The ICPP'01 parallel-DLB behaviour: new grids go to the globally
    least-loaded processor (parent locality ignored -- the interpolated
    initial data crosses the network once, the same traffic a migration
    costs), and every level is evenly rebalanced over *all* processors.
    """

    def place_new_grids(
        self,
        ctx: BalanceContext,
        new_gids: Sequence[int],
        weights: WeightPolicy,
    ) -> None:
        if not new_gids:
            return
        level, rows, parents = _new_grid_rows(ctx, new_gids)
        work = ctx.hierarchy.level_workloads(level)[rows]
        cells = ctx.hierarchy.level_boxes(level).ncells()[rows].tolist()
        loads = ctx.assignment.level_loads(level).tolist()
        w = weights.processor_weights(ctx.system, ctx.sim.clock).tolist()
        heap = _ratio_heap(loads, w, range(ctx.system.nprocs))
        placed: List[int] = []
        srcs: List[int] = []
        dsts: List[int] = []
        nbytes: List[float] = []
        # heaviest first, ties in the given order
        order = np.argsort(-work, kind="stable").tolist()
        for k in order:
            pid = _place_on_top(heap, loads, w, float(work[k]))
            placed.append(pid)
            parent_pid = int(parents[k])
            if parent_pid != pid:
                srcs.append(parent_pid)
                dsts.append(pid)
                nbytes.append(cells[k] * ctx.sim_params.bytes_per_cell)
        ctx.assignment.assign(level, [new_gids[k] for k in order], placed)
        if srcs:
            ctx.sim.run_comm(
                MessageBatch.of_kind(srcs, dsts, nbytes, MessageKind.MIGRATION),
                level=level, purpose="placement", count_as_balance=True)

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        n = len(ctx.hierarchy.level_gids(level))
        if not n:
            return
        total = sum(ctx.hierarchy.level_workloads(level).tolist())
        targets = processor_targets(
            ctx.system, total, weights.processor_weights(ctx.system, time)
        )
        _rebalance(ctx, level, np.arange(n), _by_pid(targets))


class GroupLocal:
    """Group-confined placement and rebalancing (paper Section 4.1).

    New grids start on the least-loaded processor of the *parent's* group
    -- "children grids are always located at the same group as their parent
    grids" -- and each level is evenly rebalanced per group, so grids never
    cross a group boundary outside the global phase.
    """

    def place_new_grids(
        self,
        ctx: BalanceContext,
        new_gids: Sequence[int],
        weights: WeightPolicy,
    ) -> None:
        if not new_gids:
            return
        level, rows, parents = _new_grid_rows(ctx, new_gids)
        work = ctx.hierarchy.level_workloads(level)[rows]
        group_of = ctx.system.pid_groups[parents].tolist()
        loads = ctx.assignment.level_loads(level).tolist()
        w = weights.processor_weights(ctx.system, ctx.sim.clock).tolist()
        # one heap per receiving group, built on first use: a group's loads
        # change only through its own placements
        heaps: Dict[int, List[Tuple[float, int]]] = {}
        placed: List[int] = []
        # heaviest first, ties in the given order
        order = np.argsort(-work, kind="stable").tolist()
        for k in order:
            group_id = group_of[k]
            heap = heaps.get(group_id)
            if heap is None:
                heap = heaps[group_id] = _ratio_heap(
                    loads, w, ctx.system.groups[group_id].pids)
            placed.append(_place_on_top(heap, loads, w, float(work[k])))
        ctx.assignment.assign(level, [new_gids[k] for k in order], placed)

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        n = len(ctx.hierarchy.level_gids(level))
        if not n:
            return
        w = weights.processor_weights(ctx.system, time)
        work = ctx.hierarchy.level_workloads(level)
        # grids never leave their group here, so one bucketing serves
        # every group's pass
        by_group = _by_group(ctx.system.pid_groups[ctx.assignment.owners(level)],
                             np.arange(n))
        for group in ctx.system.groups:
            rows = by_group.get(group.group_id)
            if rows is None:
                continue
            pids, shares = _group_shares(group, sum(work[rows].tolist()), w)
            _rebalance(ctx, level, rows, dict(zip(pids, shares)))


class _ParentPlacement:
    """New grids start on their parent's processor: no movement, no cost."""

    def place_new_grids(
        self,
        ctx: BalanceContext,
        new_gids: Sequence[int],
        weights: WeightPolicy,
    ) -> None:
        if not new_gids:
            return
        level, _rows, parents = _new_grid_rows(ctx, new_gids)
        ctx.assignment.assign(level, new_gids, parents)


class StickyLocal(_ParentPlacement):
    """Zero-information placement, no rebalancing (the static control).

    Children inherit the parent's processor, so all adaptation-induced
    imbalance accumulates on whichever processors own the refining regions.
    """

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        return None


class _Diffusion(_ParentPlacement):
    """The diffusion family: one balancing body, one targets kernel each.

    New grids stay on the parent's processor; the next diffusion sweeps
    spread them out.  This is how diffusion schemes are actually used:
    adaptation dumps load locally, diffusion erodes the pile.  Each variant
    diffuses per-processor loads in capacity-normalised space (the
    heterogeneous generalization of Elsasser et al.) to per-processor
    *targets*, and whole grids move toward them through
    :func:`plan_rebalance`.
    """

    def __init__(self, sweeps: int) -> None:
        if sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {sweeps}")
        self.sweeps = int(sweeps)

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        n = len(ctx.hierarchy.level_gids(level))
        if not n:
            return
        w = weights.processor_weights(ctx.system, time)
        targets = self._targets(ctx.system, ctx.assignment.level_loads(level), w)
        if targets is not None:
            _rebalance(ctx, level, np.arange(n), _by_pid(targets))

    def _targets(
        self,
        system: "DistributedSystem",
        loads: np.ndarray,
        weights: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Pid-indexed load targets from pid-indexed ``loads`` and
        ``weights``, or ``None`` to hold this time."""
        raise NotImplementedError


class DiffusionLocal(_Diffusion):
    """First-order diffusive rebalancing on the complete processor graph
    (Cybenko): uniform weights ``alpha = 1/n``, ignoring the topology.

    Parameters
    ----------
    sweeps:
        Diffusion sweeps applied per balancing opportunity (each sweep is
        one neighbourhood-averaging step; more sweeps converge faster at
        the price of more migration churn).
    """

    def __init__(self, sweeps: int = 1) -> None:
        super().__init__(sweeps)

    def _targets(
        self,
        system: "DistributedSystem",
        loads: np.ndarray,
        weights: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Loads after ``sweeps`` neighbourhood-averaging steps.

        On the complete graph with uniform alpha = 1/n each sweep moves the
        normalised loads a fraction ``(n-1)/n`` of the way to the mean.
        The total adds left to right, the order the pinned results use.
        """
        n = len(loads)
        if n <= 1:
            return loads.copy()
        alpha = 1.0 / n
        norm = loads / weights
        for _ in range(self.sweeps):
            total = sum(norm.tolist())
            norm = norm + alpha * (total - n * norm)
        return norm * weights


class _TopologyDiffusionLocal(_Diffusion):
    """Shared machinery of the topology-aware diffusion variants.

    The processor neighbourhood graph is drawn from the system's
    :class:`~repro.distsys.topology.NetworkTopology`: processors of one
    group are fully connected, and processors of topology-adjacent groups
    (groups whose route crosses no other group's node) are connected
    across.  On the degenerate star/mesh of a two-level system every group
    pair is adjacent, recovering the complete-graph neighbourhood.

    Indivisibility is honoured the Demirel & Sbalzarini way: the continuous
    scheme produces targets and the transfers are whole grids.
    ``hysteresis`` suppresses the balancing action entirely while the
    normalised imbalance is within ``(1 + hysteresis) * mean``, so
    quantization residue cannot make grids oscillate between balance
    opportunities.
    """

    def __init__(self, sweeps: int, hysteresis: float) -> None:
        super().__init__(sweeps)
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        self.hysteresis = float(hysteresis)

    def _targets(
        self,
        system: "DistributedSystem",
        loads: np.ndarray,
        weights: np.ndarray,
    ) -> Optional[np.ndarray]:
        if len(weights) <= 1:
            return None
        pids = list(range(len(loads)))
        norm = loads / weights
        mean = float(norm.sum()) / len(pids)
        if float(norm.max()) <= (1.0 + self.hysteresis) * mean:
            return None  # within the hysteresis band: moving grids would churn
        return self._diffuse(system, pids, norm) * weights

    def _diffuse(self, system: Any, pids: List[int],
                 norm: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _group_structure(system: Any, pids: List[int]):
        """Per-group pid index lists and the group adjacency sets."""
        pos = {p: i for i, p in enumerate(pids)}
        members: List[List[int]] = [[] for _ in system.groups]
        for p in pids:
            members[system.processor(p).group_id].append(pos[p])
        neighbors = [
            tuple(h for h in system.group_neighbors(g) if members[h])
            for g in range(len(system.groups))
        ]
        return members, neighbors


class SOSDiffusionLocal(_TopologyDiffusionLocal):
    """Second-order (SOS) diffusion on the topology's neighbourhood graph.

    Demirel & Sbalzarini's second-order scheme over Cybenko's first-order
    diffusion matrix ``M = I - alpha*L``: the first sweep is a plain
    first-order step ``x1 = M x0``, every later sweep extrapolates

        ``x_{t+1} = beta * M x_t + (1 - beta) * x_{t-1}``

    with ``beta`` in ``[1, 2)``, which converges asymptotically faster than
    first-order diffusion on graphs with large diameter (tori, rings).
    ``alpha = 1 / (max_degree + 1)`` keeps ``M`` doubly stochastic, so the
    total (normalised) load is conserved exactly.

    The neighbour sums are computed group-wise (same-group processors are
    fully connected; cross-group terms sum over topology-adjacent groups),
    costing ``O(P + G^2)`` per sweep rather than building the ``P x P``
    matrix.
    """

    def __init__(self, sweeps: int = 2, beta: float = 1.6,
                 hysteresis: float = 0.02) -> None:
        super().__init__(sweeps, hysteresis)
        if not 1.0 <= beta < 2.0:
            raise ValueError(f"beta must be in [1, 2), got {beta}")
        self.beta = float(beta)

    def _diffuse(self, system: Any, pids: List[int],
                 norm: np.ndarray) -> np.ndarray:
        members, neighbors = self._group_structure(system, pids)
        degree = np.empty(len(pids))
        for g, idxs in enumerate(members):
            if not idxs:
                continue
            deg = len(idxs) - 1 + sum(len(members[h]) for h in neighbors[g])
            degree[idxs] = deg
        alpha = 1.0 / (float(degree.max()) + 1.0)

        def step(x: np.ndarray) -> np.ndarray:
            """One first-order sweep ``M x``: per-group totals make the
            neighbour sum ``(S_g - x_i) + sum over adjacent groups S_h``."""
            gsum = np.array([
                x[idxs].sum() if idxs else 0.0 for idxs in members
            ])
            nbr = np.empty_like(x)
            for g, idxs in enumerate(members):
                if not idxs:
                    continue
                cross = sum(gsum[h] for h in neighbors[g])
                nbr[idxs] = (gsum[g] - x[idxs]) + cross
            return x + alpha * (nbr - degree * x)

        prev = norm
        x = step(norm)
        for _ in range(self.sweeps - 1):
            x, prev = self.beta * step(x) + (1.0 - self.beta) * prev, x
        return x


class DimexDiffusionLocal(_TopologyDiffusionLocal):
    """Dimension-exchange diffusion on the topology's neighbourhood graph.

    Where SOS averages over *all* neighbours simultaneously, dimension
    exchange sweeps one matching (one "dimension") at a time, each matched
    pair averaging its normalised loads -- Demirel & Sbalzarini's DE
    scheme, which converges in ``d`` sweeps on a ``d``-cube.  Dimensions
    are derived deterministically from the structure:

    * *intra-group*: hypercube-style pairings by local rank (bit ``2^d``
      partners), covering each group's complete subgraph in ``log2(n)``
      dimensions;
    * *cross-group*: the group adjacency graph's edges, greedily coloured
      (stable order), one dimension per colour; the k-th processors of the
      two groups pair up.
    """

    def __init__(self, sweeps: int = 1, hysteresis: float = 0.02) -> None:
        super().__init__(sweeps, hysteresis)

    def _diffuse(self, system: Any, pids: List[int],
                 norm: np.ndarray) -> np.ndarray:
        members, neighbors = self._group_structure(system, pids)
        dims: List[List[Tuple[int, int]]] = []
        # intra-group hypercube dimensions
        max_size = max((len(idxs) for idxs in members), default=0)
        bit = 1
        while bit < max_size:
            pairs = []
            for idxs in members:
                for k in range(len(idxs)):
                    partner = k ^ bit
                    if k < partner < len(idxs):
                        pairs.append((idxs[k], idxs[partner]))
            if pairs:
                dims.append(pairs)
            bit <<= 1
        # cross-group dimensions: greedy edge colouring of the group graph
        gedges = sorted(
            (g, h)
            for g in range(len(members))
            for h in neighbors[g]
            if g < h and members[g]
        )
        colors: List[List[Tuple[int, int]]] = []
        busy: List[set] = []
        for g, h in gedges:
            for c, used in enumerate(busy):
                if g not in used and h not in used:
                    colors[c].append((g, h))
                    used.update((g, h))
                    break
            else:
                colors.append([(g, h)])
                busy.append({g, h})
        for group_pairs in colors:
            pairs = []
            for g, h in group_pairs:
                for a, b in zip(members[g], members[h]):
                    pairs.append((a, b))
            dims.append(pairs)

        x = norm.copy()
        for _ in range(self.sweeps):
            for pairs in dims:
                for i, j in pairs:
                    avg = 0.5 * (x[i] + x[j])
                    x[i] = avg
                    x[j] = avg
        return x


class SFCLocal(_ParentPlacement):
    """Within-group curve re-cut at every balancing opportunity.

    New grids inherit the parent's processor (the curve cut at the next
    balance point is what spreads them -- the extreme-scale pattern, where
    placement *is* the next cut rather than a separate greedy step);
    rebalancing re-cuts each group's curve-ordered grids into
    weight-proportional contiguous processor segments and moves only the
    grids whose owner changed.  Grids never cross a group boundary outside
    the global phase, like :class:`GroupLocal`.

    Parameters
    ----------
    curve:
        ``"morton"`` or ``"hilbert"``.
    """

    def __init__(self, curve: str = "morton") -> None:
        self.curve = _check_curve(curve)

    def local_balance(
        self,
        ctx: BalanceContext,
        level: int,
        time: float,
        weights: WeightPolicy,
    ) -> None:
        h = ctx.hierarchy
        gids = h.level_gids(level)
        if not len(gids):
            return
        w = weights.processor_weights(ctx.system, time)
        work = h.level_workloads(level)
        order = curve_order(h.level_boxes(level), gids, self.curve)
        # grids never leave their group here, so the owners read before the
        # first group's moves still hold for every later group's rows
        owners = ctx.assignment.owners(level)
        for group_id, rows in _by_group(ctx.system.pid_groups[owners], order).items():
            loads = work[rows].tolist()
            pids, shares = _group_shares(ctx.system.groups[group_id], sum(loads), w)
            seg = contiguous_segments(loads, shares)
            moves: List[Move] = [
                (gid, src, pids[si])
                for gid, src, si in zip(gids[rows].tolist(), owners[rows].tolist(),
                                        seg.tolist())
                if src != pids[si]
            ]
            if moves:
                execute_moves(ctx, moves, level=level, purpose="local-balance")


# --------------------------------------------------------------------- #
# component registries + builder
# --------------------------------------------------------------------- #

WEIGHT_POLICIES: Dict[str, Type[Any]] = {
    "nominal": NominalWeights,
    "measured": MeasuredWeights,
}

DECISION_POLICIES: Dict[str, Type[Any]] = {
    "never": NeverRedistribute,
    "gain-cost": GainCostDecision,
}

GLOBAL_POLICIES: Dict[str, Type[Any]] = {
    "flat": FlatPartition,
    "proportional": ContiguousGroupPartition,
    "sfc": SFCPartition,
}

LOCAL_POLICIES: Dict[str, Type[Any]] = {
    "greedy": GlobalGreedyLocal,
    "group": GroupLocal,
    "sticky": StickyLocal,
    "diffusion": DiffusionLocal,
    "diffusion-sos": SOSDiffusionLocal,
    "diffusion-dimex": DimexDiffusionLocal,
    "sfc": SFCLocal,
}

#: axis name -> component table, for introspection and extension
POLICY_REGISTRIES: Dict[str, Dict[str, Type[Any]]] = {
    "weights": WEIGHT_POLICIES,
    "decision": DECISION_POLICIES,
    "global_partition": GLOBAL_POLICIES,
    "local": LOCAL_POLICIES,
}


def _lookup(axis: str, name: str) -> Type[Any]:
    table = POLICY_REGISTRIES[axis]
    if name not in table:
        known = ", ".join(sorted(table))
        raise ValueError(
            f"unknown {axis} policy {name!r}; known: {known}"
        )
    return table[name]


def _instantiate(cls: Type[Any], options: Mapping[str, Any],
                 consumed: set) -> Any:
    params = inspect.signature(cls.__init__).parameters
    kwargs = {k: v for k, v in options.items() if k in params and k != "self"}
    consumed.update(kwargs)
    return cls(**kwargs)


def build_policies(spec: "SchemeSpec") -> Dict[str, Any]:
    """Instantiate one policy per axis from a scheme spec.

    ``spec.options`` entries are routed to whichever policy constructors
    accept a parameter of that name; an option no constructor accepts is an
    error (it would otherwise be silently ignored -- and silently change
    the cache key).
    """
    consumed: set = set()
    built = {
        "weights": _instantiate(
            _lookup("weights", spec.weights), spec.options, consumed),
        "decision": _instantiate(
            _lookup("decision", spec.decision), spec.options, consumed),
        "global_partition": _instantiate(
            _lookup("global_partition", spec.global_partition),
            spec.options, consumed),
        "local": _instantiate(
            _lookup("local", spec.local), spec.options, consumed),
    }
    leftover = set(spec.options) - consumed
    if leftover:
        raise ValueError(
            f"scheme {spec.name!r}: options {sorted(leftover)} not accepted "
            f"by any of its policies"
        )
    return built
