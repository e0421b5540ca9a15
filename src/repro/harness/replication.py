"""Replication: run a configuration across traffic seeds and summarise.

The paper ran each configuration once, back to back, and attributed the
difference to the scheme ("the two executions would have the similar
network environments").  On a simulator we can do better: replicate the
paired run over independent traffic realisations and report the
improvement's spread, so a reader can tell signal from network luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..exec import ExecStats, Executor
from ..obs import Tracer
from .experiment import ExperimentConfig
from .sweep import DEFAULT_SCHEMES, PairedResult, _run_pairs

__all__ = ["ReplicatedResult", "replicate"]


@dataclass
class ReplicatedResult:
    """Paired-improvement statistics across traffic seeds."""

    config: ExperimentConfig
    seeds: List[int]
    pairs: List[PairedResult]
    #: how the replicates were executed (jobs, cache hits, wall-clock);
    #: ``None`` for hand-assembled or reloaded results
    exec_stats: Optional[ExecStats] = None

    @property
    def improvements(self) -> List[float]:
        return [p.improvement for p in self.pairs]

    @property
    def mean_improvement(self) -> float:
        vals = self.improvements
        return sum(vals) / len(vals)

    @property
    def std_improvement(self) -> float:
        """Sample standard deviation (0 for a single replicate)."""
        vals = self.improvements
        n = len(vals)
        if n < 2:
            return 0.0
        mean = self.mean_improvement
        return math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))

    @property
    def min_improvement(self) -> float:
        return min(self.improvements)

    @property
    def max_improvement(self) -> float:
        return max(self.improvements)

    def summary(self) -> str:
        return (
            f"{self.config.app_name} {self.config.label}: improvement "
            f"{self.mean_improvement:.1%} +/- {self.std_improvement:.1%} "
            f"(range {self.min_improvement:.1%}..{self.max_improvement:.1%}, "
            f"{len(self.seeds)} traffic seeds)"
        )


def replicate(
    config: ExperimentConfig,
    *,
    seeds: Optional[Sequence[int]] = None,
    traffic_kind: str = "bursty",
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    executor: Optional[Executor] = None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> ReplicatedResult:
    """Run the paired experiment once per traffic seed.

    ``schemes`` names the (baseline, treatment) pair replicated at every
    seed; any registered scheme names work.

    ``traffic_kind`` defaults to bursty because only seeded traffic models
    vary between replicates; with constant traffic every replicate is
    identical (the simulation itself is deterministic).  All replicates are
    submitted as one executor batch, so a parallel executor overlaps them.

    ``seeds`` lists the traffic seeds explicitly; when it is omitted,
    ``seed`` anchors a run of three consecutive seeds (``seed``,
    ``seed + 1``, ``seed + 2``), and with neither given the historical
    default ``(1, 2, 3)`` applies.
    """
    if seeds is None:
        seeds = (seed, seed + 1, seed + 2) if seed is not None else (1, 2, 3)
    elif not seeds:
        raise ValueError("seeds must be non-empty")
    configs = [
        replace(config, traffic_kind=traffic_kind, traffic_seed=int(s))
        for s in seeds
    ]
    pairs, stats = _run_pairs(configs, schemes, executor=executor,
                              tracer=tracer)
    return ReplicatedResult(config=config, seeds=list(seeds), pairs=pairs,
                            exec_stats=stats)
