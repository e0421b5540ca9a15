"""`ComposedScheme`: a DLB scheme assembled from four policy components.

Every scheme in this package -- the built-ins of
:data:`~repro.core.registry.BUILTIN_SPECS` included -- is a composition of
one :class:`~repro.core.policies.WeightPolicy`, one
:class:`~repro.core.policies.DecisionPolicy`, one
:class:`~repro.core.policies.GlobalPartitionPolicy` and one
:class:`~repro.core.policies.LocalBalancePolicy`, described by a
serializable :class:`~repro.core.registry.SchemeSpec`.  The composition
fixes *orchestration* (the Fig. 4 control flow below); the policies fix
*behaviour*.

The scheme's ``name`` comes from the spec's display label, so observability
span attributes, ``RunResult.scheme`` and cache metadata all agree on what
ran without any scheme-specific code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..distsys.events import GlobalDecisionEvent
from .base import BalanceContext, DLBScheme
from .decision import Decision
from .policies import (
    DecisionPolicy,
    GlobalPartitionPolicy,
    LocalBalancePolicy,
    WeightPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from .registry import SchemeSpec

__all__ = ["ComposedScheme"]


class ComposedScheme(DLBScheme):
    """One policy per axis, orchestrated as the paper's Fig. 4 loop.

    The global phase runs once per coarse step: skip unless the partition
    is active on this system, detect imbalance and estimate Gain (Eqs. 2-4),
    plan the redistribution (its level-0 cell count is the ``W`` of Eq. 1),
    gate it through the decision policy, and execute only on ``invoke`` --
    feeding the measured overhead back into the decision's cost model.
    """

    def __init__(
        self,
        spec: "SchemeSpec",
        *,
        weights: WeightPolicy,
        decision: DecisionPolicy,
        global_partition: GlobalPartitionPolicy,
        local: LocalBalancePolicy,
    ) -> None:
        self.spec = spec
        #: display label; feeds ``RunResult.scheme`` and obs span attrs
        self.name = spec.label
        self.weight_policy = weights
        self.decision_policy = decision
        self.global_policy = global_partition
        self.local_policy = local

    @property
    def decisions(self) -> List[Decision]:
        """Gate-evaluation history (for ablations and the Fig. 4 trace)."""
        return self.decision_policy.decisions

    # ------------------------------------------------------------------ #
    # DLBScheme hooks: delegate to the policies
    # ------------------------------------------------------------------ #

    def initial_distribution(self, ctx: BalanceContext) -> None:
        self.global_policy.initial_distribution(ctx, self.weight_policy)

    def place_new_grids(
        self, ctx: BalanceContext, new_gids: Sequence[int]
    ) -> None:
        self.local_policy.place_new_grids(ctx, new_gids, self.weight_policy)

    def local_balance(
        self, ctx: BalanceContext, level: int, time: float
    ) -> None:
        self.local_policy.local_balance(ctx, level, time, self.weight_policy)

    def global_balance(self, ctx: BalanceContext, time: float) -> None:
        if not self.global_policy.active(ctx):
            return
        # ask the weight policy once: imbalance detection, gain and the
        # redistribution targets all see its weights for this instant, so
        # under re-measured weights an externally slowed group reads as
        # overloaded even when its workload share is nominal
        weights = self.weight_policy.processor_weights(
            ctx.system, ctx.sim.clock)
        imbalanced = self.decision_policy.imbalance_exists(ctx, weights)
        gain = self.decision_policy.estimate_gain(ctx, weights)
        if not imbalanced or gain <= 0.0:
            ctx.sim.log.record(
                GlobalDecisionEvent(
                    time=ctx.sim.clock,
                    gain=gain,
                    cost=0.0,
                    gamma=ctx.scheme_params.gamma,
                    imbalance_detected=imbalanced,
                    invoked=False,
                )
            )
            return
        # plan the boundary shift; its level-0 cell count is the W of Eq. 1
        plan = self.global_policy.plan(ctx, weights)
        if plan.empty:
            ctx.sim.log.record(
                GlobalDecisionEvent(
                    time=ctx.sim.clock,
                    gain=gain,
                    cost=0.0,
                    gamma=ctx.scheme_params.gamma,
                    imbalance_detected=True,
                    invoked=False,
                )
            )
            return
        decision = self.decision_policy.evaluate(ctx, plan, gain)
        ctx.sim.log.record(
            GlobalDecisionEvent(
                time=ctx.sim.clock,
                gain=decision.gain,
                cost=decision.cost,
                gamma=decision.gamma,
                imbalance_detected=True,
                invoked=decision.invoke,
            )
        )
        if not decision.invoke:
            return
        delta = self.global_policy.execute(
            ctx, plan, predicted_cost=decision.cost
        )
        self.decision_policy.record_overhead(delta)
