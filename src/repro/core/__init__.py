"""The paper's contribution: distributed DLB, its models, and the baseline.

Schemes are compositions of four policy protocols (:mod:`.policies`)
orchestrated by :class:`.composed.ComposedScheme`, described by the
:data:`.registry.BUILTIN_SPECS` table and built by name with
:func:`.registry.make_scheme` -- see ``docs/SCHEMES.md`` for the paper
mapping.
"""

from .base import BalanceContext, Move, execute_moves
from .composed import ComposedScheme
from .cost import CostEstimate, CostModel
from .decision import Decision, decide
from .gain import CoarseStepRecord, WorkloadHistory, estimate_gain
from .global_phase import (
    GlobalPlan,
    effective_level0_loads,
    execute_global_redistribution,
    plan_global_redistribution,
)
from .local_phase import lpt_assign, plan_rebalance
from .policies import (
    POLICY_REGISTRIES,
    DecisionPolicy,
    GlobalPartitionPolicy,
    LocalBalancePolicy,
    WeightPolicy,
)
from .registry import (
    BUILTIN_SPECS,
    SEQUENTIAL,
    SchemeSpec,
    available_schemes,
    get_scheme_spec,
    make_scheme,
    register_scheme,
    scheme_cache_payload,
    unregister_scheme,
)

__all__ = [
    "BalanceContext",
    "Move",
    "execute_moves",
    "ComposedScheme",
    "CostEstimate",
    "CostModel",
    "Decision",
    "decide",
    "CoarseStepRecord",
    "WorkloadHistory",
    "estimate_gain",
    "GlobalPlan",
    "execute_global_redistribution",
    "effective_level0_loads",
    "plan_global_redistribution",
    "lpt_assign",
    "plan_rebalance",
    # policy protocols + component tables
    "WeightPolicy",
    "DecisionPolicy",
    "GlobalPartitionPolicy",
    "LocalBalancePolicy",
    "POLICY_REGISTRIES",
    # scheme registry
    "SEQUENTIAL",
    "BUILTIN_SPECS",
    "SchemeSpec",
    "register_scheme",
    "unregister_scheme",
    "available_schemes",
    "get_scheme_spec",
    "make_scheme",
    "scheme_cache_payload",
]
