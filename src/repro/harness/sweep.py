"""Configuration sweeps: the paper's 1+1 ... 8+8 series, run paired.

"Five configurations (1+1, 2+2, 4+4, 6+6, and 8+8) are tested."  Each
configuration runs both schemes against the same pinned workload and the
same traffic realisation, so the difference is attributable to the scheme
alone (Section 5's back-to-back methodology).

All entry points describe their runs as :class:`repro.exec.ExecTask`
batches and submit them through an :class:`repro.exec.Executor` -- the
default is in-process serial execution (the historical behaviour), but a
:class:`~repro.exec.ParallelExecutor` fans a whole sweep out over worker
processes and a :class:`~repro.exec.ResultCache` serves repeated runs
without touching the simulator.  Every run is deterministic, so the three
paths produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import FaultParams
from ..core.registry import SEQUENTIAL
from ..exec import ExecStats, ExecTask, Executor, get_default_executor
from ..metrics.efficiency import efficiency
from ..metrics.timing import RunResult
from ..obs import Tracer
from .experiment import (
    ExperimentConfig,
    _apply_seed,
    resolve_trace_config,
    sequential_config,
)


__all__ = ["PairedResult", "SweepResult", "run_paired", "run_sweep",
           "run_fault_scenarios", "PAPER_CONFIGS", "DEFAULT_SCHEMES",
           "FAULT_SWEEP_SCENARIOS"]


def _scheme_pair(schemes: Sequence[str]) -> "Tuple[str, str]":
    """Validate a (baseline, treatment) pair against the registry.

    Resolving the names up front turns a typo into an immediate error
    naming the registered schemes, instead of a mid-batch worker failure.
    """
    pair = tuple(schemes)
    if len(pair) != 2:
        raise ValueError(f"schemes must name exactly two schemes, got {pair!r}")
    from ..core.registry import get_scheme_spec

    for name in pair:
        get_scheme_spec(name)  # raises ValueError for unknown names
    return pair

#: the paper's processor configurations (procs per group)
PAPER_CONFIGS = (1, 2, 4, 6, 8)

#: the paper's pairing: the ICPP'01 baseline vs the contributed scheme
DEFAULT_SCHEMES: Tuple[str, str] = ("parallel", "distributed")

#: the fault scenarios the resilience sweep runs ("none" is the control)
FAULT_SWEEP_SCENARIOS = ("none", "slowdown", "dropout", "cpu-load",
                         "link-degraded", "mixed")


@dataclass
class PairedResult:
    """Both schemes on one configuration (plus the sequential reference).

    The fields keep their historical names -- ``parallel`` is the baseline
    (first) run and ``distributed`` the treatment (second) run -- even when
    ``scheme_names`` records a different registered pairing, e.g.
    ``run_paired(cfg, schemes=("parallel", "diffusion"))``.
    """

    config: ExperimentConfig
    parallel: RunResult
    distributed: RunResult
    sequential: Optional[RunResult] = None
    #: which registered schemes the two runs actually used
    scheme_names: Tuple[str, str] = DEFAULT_SCHEMES

    @property
    def improvement(self) -> float:
        """Relative execution-time improvement of the treatment (second)
        scheme over the baseline (first) scheme."""
        return self.distributed.improvement_over(self.parallel)

    @property
    def nprocs(self) -> int:
        if self.config.system is not None:
            return self.config.system.nprocs
        return 2 * self.config.procs_per_group

    def efficiency_of(self, result: RunResult) -> float:
        """Fig. 8's ``E(1)/(E*P)`` for one of the runs."""
        if self.sequential is None:
            raise ValueError("sweep was run without sequential reference")
        return efficiency(self.sequential.total_time, result.total_time, self.nprocs)

    @property
    def parallel_efficiency(self) -> float:
        return self.efficiency_of(self.parallel)

    @property
    def distributed_efficiency(self) -> float:
        return self.efficiency_of(self.distributed)


@dataclass
class SweepResult:
    """A full configuration sweep."""

    pairs: List[PairedResult]
    #: how the sweep was executed (jobs, cache hits, wall-clock); ``None``
    #: for hand-assembled or reloaded sweeps
    exec_stats: Optional[ExecStats] = None

    @property
    def improvements(self) -> List[float]:
        return [p.improvement for p in self.pairs]

    @property
    def average_improvement(self) -> float:
        vals = self.improvements
        return sum(vals) / len(vals) if vals else 0.0


def _run_pairs(
    configs: Sequence[ExperimentConfig],
    schemes: Sequence[str],
    *,
    executor: Optional[Executor],
    tracer: Optional[Tracer],
    sequential: Optional[ExperimentConfig] = None,
    need_events: bool = False,
) -> Tuple[List[PairedResult], ExecStats]:
    """Run the (baseline, treatment) pair ``schemes`` on every config as
    one executor batch.

    The batch holds the baseline and treatment task of each config in
    order, then the ``E(1)`` task of ``sequential`` when given, shared by
    every pair.  ``need_events`` keeps the treatment runs off the cache's
    read path.  Traced runs never read the cache; their spans are merged
    into ``tracer`` in submission order.  Returns the pairs and the batch's
    :class:`ExecStats`.
    """
    pair = _scheme_pair(schemes)
    ex = executor if executor is not None else get_default_executor()
    trace = tracer is not None
    tasks: List[ExecTask] = []
    for cfg in configs:
        tasks.append(ExecTask(cfg, pair[0], use_cache=not trace, trace=trace))
        tasks.append(ExecTask(cfg, pair[1],
                              use_cache=not (need_events or trace), trace=trace))
    if sequential is not None:
        tasks.append(ExecTask(sequential_config(sequential), SEQUENTIAL,
                              use_cache=not trace, trace=trace))
    results = ex.run_tasks(tasks)
    if tracer is not None:
        for r in results:
            if r.spans:
                tracer.extend(r.spans)
    seq = results[-1] if sequential is not None else None
    pairs = [
        PairedResult(config=cfg, parallel=results[2 * i],
                     distributed=results[2 * i + 1], sequential=seq,
                     scheme_names=pair)
        for i, cfg in enumerate(configs)
    ]
    return pairs, ex.last_stats


def run_paired(
    config: ExperimentConfig,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    with_sequential: bool = False,
    executor: Optional[Executor] = None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> PairedResult:
    """Run a baseline/treatment scheme pair on one pinned configuration.

    All options are keyword-only: ``schemes`` names the (baseline,
    treatment) pair -- any two registered scheme names, defaulting to the
    paper's parallel-vs-distributed pairing -- ``with_sequential`` adds the
    ``E(1)`` reference run, ``executor`` overrides the default execution
    engine, ``tracer`` traces every run (spans merged into it, one track
    per run), and ``seed`` overrides the config's traffic seed.
    """
    cfg = resolve_trace_config(_apply_seed(config, seed))
    pairs, _ = _run_pairs([cfg], schemes, executor=executor, tracer=tracer,
                          sequential=cfg if with_sequential else None)
    return pairs[0]


def run_sweep(
    config: ExperimentConfig,
    *,
    procs_per_group: Sequence[int] = PAPER_CONFIGS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    with_sequential: bool = False,
    executor: Optional[Executor] = None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> SweepResult:
    """Run the paired experiment over a series of configurations.

    The sweep varies ``procs_per_group`` of the two-level system, so a
    config with a ``system`` spec raises :class:`ValueError` (run one
    :func:`run_paired` per spec instead).  ``schemes`` names the
    (baseline, treatment) pair run on every configuration; any registered
    scheme names work.  The sequential reference (needed for Fig. 8) is
    workload-identical across configurations, so it is run once and
    shared.  The whole series -- both schemes of every configuration plus
    the sequential reference -- is submitted as one batch, so a parallel
    executor overlaps everything.
    """
    if config.system is not None:
        raise ValueError(
            f"run_sweep varies procs_per_group, which a system spec "
            f"({config.system.label}) ignores; run one run_paired per spec "
            f"instead"
        )
    base = resolve_trace_config(_apply_seed(config, seed))
    pairs, stats = _run_pairs(
        [replace(base, procs_per_group=n) for n in procs_per_group], schemes,
        executor=executor, tracer=tracer,
        sequential=base if with_sequential else None)
    return SweepResult(pairs=pairs, exec_stats=stats)


def run_fault_scenarios(
    config: ExperimentConfig,
    *,
    scenarios: Sequence[str] = FAULT_SWEEP_SCENARIOS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    executor: Optional[Executor] = None,
    need_events: bool = True,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> Dict[str, PairedResult]:
    """Paired runs of one configuration across fault scenarios.

    Every scenario reuses the window/severity/seed of ``base.fault`` (or
    the :class:`FaultParams` defaults when the base has none), varying only
    the scenario kind -- so the sweep isolates *what kind* of perturbation
    hits, with everything else pinned.  ``"none"`` rows run fault-free and
    serve as the control.

    ``need_events`` keeps the distributed runs out of the result cache's
    *read* path (cached results carry no event log, and the resilience
    metrics are computed from events); pass ``False`` when only the timing
    totals matter and cache hits are welcome.
    """
    base = resolve_trace_config(_apply_seed(config, seed))
    template = base.fault if base.fault is not None else FaultParams()
    configs = [
        replace(base, fault=None if scenario == "none"
                else replace(template, scenario=scenario))
        for scenario in scenarios
    ]
    pairs, _ = _run_pairs(configs, schemes, executor=executor, tracer=tracer,
                          need_events=need_events)
    return dict(zip(scenarios, pairs))
