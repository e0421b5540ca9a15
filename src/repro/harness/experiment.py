"""Experiment configuration and single-run execution.

An :class:`ExperimentConfig` pins everything a run needs -- application,
system shape, network weather, scheme knobs -- so paired runs (parallel DLB
vs distributed DLB) see the identical workload and the identical traffic,
mirroring the paper's methodology: "For each configuration, the distributed
scheme was executed immediately following the parallel scheme [...] so that
the two executions would have the similar network environments."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..amr.applications import AMR64, AMRApplication, BlastWave, ShockPool3D
from ..config import (
    FaultParams,
    SchemeParams,
    ServiceConfig,
    SimParams,
    TraceParams,
    _check_floats,
)
from ..core.registry import SEQUENTIAL, make_scheme
from ..distsys import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    DistributedSystem,
    NoTraffic,
    SystemSpec,
    TrafficModel,
    build_system,
    lan_spec,
    parallel_spec,
    wan_spec,
)
from ..faults import (
    CpuLoadFault,
    DropoutFault,
    FaultSchedule,
    LinkDegradationFault,
    SlowdownFault,
)
from ..metrics.timing import RunResult
from ..obs import MetricsRegistry, Tracer
from ..runtime import SAMRRunner

__all__ = ["ExperimentConfig", "make_app", "make_system", "make_traffic",
           "make_scheme", "make_faults", "run_experiment", "run_sequential",
           "execute_scheme", "sequential_config", "resolve_trace_config"]

#: calibrated so a mid-size run sits in the paper's regime: on the WAN
#: system, communication is a large minority of the parallel-DLB runtime
DEFAULT_BASE_SPEED = 2.0e4


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully pinned experiment.

    ``procs_per_group`` follows the paper's "n + n" notation: the
    distributed systems have two groups of that size; the parallel-machine
    reference uses ``2 * procs_per_group`` processors in one group.  A
    ``system`` spec replaces that shape, label included.

    ``gamma`` is the gain/cost gate's γ.  When ``scheme_params`` is set it
    carries its own γ, which must equal ``gamma`` -- a config that sets the
    two differently raises :class:`ValueError` rather than silently running
    with one of them.  ``gamma = inf`` is a gate that never fires.

    A NaN float field (``base_speed``, ``traffic_level``, ``gamma``)
    raises a :class:`ValueError` that names it.  ``base_speed`` must also be
    finite and positive, and ``traffic_level`` must lie in ``[0, 1]``
    whatever the ``traffic_kind``.
    """

    app_name: str = "shockpool3d"
    network: str = "wan"  # "wan" | "lan" | "parallel"
    procs_per_group: int = 2
    steps: int = 4
    domain_cells: int = 16
    max_levels: int = 3
    base_speed: float = DEFAULT_BASE_SPEED
    traffic_kind: str = "constant"  # "none" | "constant" | "diurnal" | "bursty"
    traffic_level: float = 0.3
    traffic_seed: int = 7
    gamma: float = 2.0
    scheme_params: Optional[SchemeParams] = None
    sim_params: SimParams = field(default_factory=SimParams)
    #: optional fault scenario; both schemes of a paired run see the same one
    fault: Optional[FaultParams] = None
    #: optional workload trace source; when set, the harness replays the
    #: trace through the cluster simulator instead of running the AMR
    #: solver (see ``docs/TRACES.md``) -- ``app_name`` is then ignored
    trace: Optional[TraceParams] = None
    #: optional serving-simulator workload; when set, the harness runs the
    #: shard/replica request router of :mod:`repro.service` instead of the
    #: AMR solver (see ``docs/SERVICE.md``) -- ``app_name`` is then ignored
    #: and the scheme under test becomes the shard migration policy.
    #: Mutually exclusive with ``trace``.  Plain dicts (wire form) coerce.
    service: Optional[ServiceConfig] = None
    #: optional declarative system shape; when set, ``network`` and
    #: ``procs_per_group`` are ignored by :func:`make_system` and the spec
    #: is resolved instead (its ``base_speed=None`` groups inherit
    #: ``base_speed``).  Plain dicts (wire/CLI form) are coerced.
    system: Optional[SystemSpec] = None

    def __post_init__(self) -> None:
        _check_floats(self)
        if math.isinf(self.base_speed):
            raise ValueError(f"base_speed must be finite, got {self.base_speed!r}")
        if self.base_speed <= 0:
            raise ValueError(f"base_speed must be positive, got {self.base_speed!r}")
        if not 0.0 <= self.traffic_level <= 1.0:
            raise ValueError(
                f"traffic_level must be in [0, 1], got {self.traffic_level!r}")
        if isinstance(self.system, dict):
            object.__setattr__(self, "system",
                               SystemSpec.from_dict(self.system))
        if isinstance(self.service, dict):
            object.__setattr__(self, "service",
                               ServiceConfig(**self.service))
        if self.service is not None and self.trace is not None:
            raise ValueError(
                "service and trace are mutually exclusive: a run replays a "
                "trace or serves requests, not both"
            )
        if self.app_name not in ("shockpool3d", "amr64", "blastwave"):
            raise ValueError(f"unknown app {self.app_name!r}")
        if self.network not in ("wan", "lan", "parallel"):
            raise ValueError(f"unknown network {self.network!r}")
        if self.procs_per_group < 1:
            raise ValueError("procs_per_group must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if (self.scheme_params is not None
                and self.scheme_params.gamma != self.gamma):
            raise ValueError(
                f"scheme_params.gamma ({self.scheme_params.gamma!r}) != gamma "
                f"({self.gamma!r}): set both to the same gate threshold"
            )

    @property
    def label(self) -> str:
        """The paper's configuration label, e.g. ``"4+4"`` (the spec's own
        label, e.g. ``"2+2+2"``, when ``system`` is set)."""
        if self.system is not None:
            return self.system.label
        return f"{self.procs_per_group}+{self.procs_per_group}"

    def effective_scheme_params(self) -> SchemeParams:
        if self.scheme_params is not None:
            return self.scheme_params
        return SchemeParams(gamma=self.gamma)


def make_traffic(cfg: ExperimentConfig) -> TrafficModel:
    """Background-traffic model from the config."""
    if cfg.traffic_kind == "none":
        return NoTraffic()
    if cfg.traffic_kind == "constant":
        return ConstantTraffic(cfg.traffic_level)
    if cfg.traffic_kind == "diurnal":
        return DiurnalTraffic(mean=cfg.traffic_level, amplitude=cfg.traffic_level * 0.7)
    if cfg.traffic_kind == "bursty":
        # bucket length of a few seconds: several independent bursts per
        # coarse step, so distinct seeds give genuinely different weather
        return BurstyTraffic(seed=cfg.traffic_seed, base=cfg.traffic_level * 0.4,
                             burst=min(0.9, cfg.traffic_level * 2.2),
                             bucket_seconds=5.0)
    raise ValueError(f"unknown traffic kind {cfg.traffic_kind!r}")


def make_app(cfg: ExperimentConfig) -> AMRApplication:
    """Application instance from the config."""
    kwargs = dict(domain_cells=cfg.domain_cells, max_levels=cfg.max_levels)
    if cfg.app_name == "shockpool3d":
        return ShockPool3D(**kwargs)
    if cfg.app_name == "amr64":
        return AMR64(**kwargs)
    return BlastWave(**kwargs)


def make_system(cfg: ExperimentConfig) -> DistributedSystem:
    """System instance from the config.

    An explicit ``cfg.system`` spec wins; otherwise ``"parallel"`` builds
    one dedicated machine with ``2n`` processors (the Section 3 reference)
    and ``"wan"``/``"lan"`` build the two-group federations.  Specs (and
    groups) without a pinned ``base_speed`` inherit ``cfg.base_speed``.
    """
    if cfg.system is not None:
        spec = cfg.system
        if spec.base_speed is None:
            spec = replace(spec, base_speed=cfg.base_speed)
        traffic = make_traffic(cfg) if spec.ngroups > 1 else None
        return build_system(spec, traffic=traffic)
    if cfg.network == "parallel":
        return build_system(
            parallel_spec(2 * cfg.procs_per_group, base_speed=cfg.base_speed))
    traffic = make_traffic(cfg)
    spec = (wan_spec(cfg.procs_per_group, base_speed=cfg.base_speed)
            if cfg.network == "wan"
            else lan_spec(cfg.procs_per_group, base_speed=cfg.base_speed))
    return build_system(spec, traffic=traffic)


def make_faults(cfg: ExperimentConfig) -> Optional[FaultSchedule]:
    """Expand the config's :class:`FaultParams` into a fault schedule.

    Returns ``None`` for no faults.  Scenario vocabulary (``fp`` is the
    params; occupancy-style scenarios use ``fp.stolen_share = 1 - 1/severity``
    so one severity knob means "this resource is ``severity`` times slower"
    everywhere):

    ``"slowdown"``
        Group ``fp.group`` runs ``fp.severity`` times slower during the
        window -- the canonical "someone started a big job on site B" case.
    ``"dropout"``
        Group ``fp.group`` is effectively gone during the window and
        rejoins at its end.
    ``"cpu-load"``
        Continuous bursty external CPU load on group ``fp.group``, seeded
        by ``fp.seed`` -- non-dedicated-cluster weather rather than a
        discrete incident.
    ``"link-degraded"``
        Every inter-group link loses ``fp.stolen_share`` of its bandwidth
        during the window (near 1: an outage).
    ``"mixed"``
        The slowdown window plus a half-bandwidth link window plus mild
        bursty CPU weather on processor 0 -- the everything-goes-wrong case.
    """
    fp = cfg.fault
    if fp is None and cfg.system is not None:
        # the spec's fault-schedule hook: a system that declares its own
        # weather applies it unless the config pins a scenario itself
        fp = cfg.system.fault
    if fp is None or fp.scenario == "none":
        return None
    if fp.scenario == "slowdown":
        faults = [
            SlowdownFault(group=fp.group, start=fp.start, end=fp.end,
                          factor=fp.severity),
        ]
    elif fp.scenario == "dropout":
        faults = [DropoutFault(group=fp.group, start=fp.start, end=fp.end)]
    elif fp.scenario == "cpu-load":
        faults = [
            CpuLoadFault(
                group=fp.group,
                model=BurstyTraffic(
                    seed=fp.seed,
                    base=fp.stolen_share * 0.25,
                    burst=fp.stolen_share,
                    burst_probability=0.25,
                    bucket_seconds=5.0,
                ),
            ),
        ]
    elif fp.scenario == "link-degraded":
        faults = [
            LinkDegradationFault(start=fp.start, end=fp.end,
                                 occupancy=fp.stolen_share),
        ]
    elif fp.scenario == "mixed":
        faults = [
            SlowdownFault(group=fp.group, start=fp.start, end=fp.end,
                          factor=fp.severity),
            LinkDegradationFault(start=fp.start, end=fp.end, occupancy=0.5),
            CpuLoadFault(
                pids=(0,),
                model=BurstyTraffic(seed=fp.seed, base=0.05, burst=0.4,
                                    burst_probability=0.25,
                                    bucket_seconds=5.0),
            ),
        ]
    else:  # pragma: no cover - FaultParams validates the vocabulary
        raise ValueError(f"unknown fault scenario {fp.scenario!r}")
    return FaultSchedule(faults, seed=fp.seed)


def _apply_seed(cfg: ExperimentConfig, seed: Optional[int]) -> ExperimentConfig:
    """``seed`` overrides the config's stochastic inputs: the traffic seed
    and, for service runs, the arrival/router seeds; ``None`` leaves the
    config untouched."""
    if seed is None:
        return cfg
    cfg = replace(cfg, traffic_seed=int(seed))
    if cfg.service is not None:
        cfg = replace(cfg, service=replace(cfg.service,
                                           arrival_seed=int(seed),
                                           router_seed=int(seed)))
    return cfg


def resolve_trace_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Pin the config's trace source to its content hash.

    File sources with an empty ``content_hash`` get it filled in from the
    file bytes, so everything downstream -- most importantly the executor's
    content-addressed cache keys -- is bound to the trace *content*, not
    its path.  Synthetic sources and already-pinned hashes pass through
    unchanged (a non-empty hash is verified at load time instead, the
    stale-trace guard).
    """
    tp = cfg.trace
    if tp is None or tp.is_synthetic or tp.content_hash:
        return cfg
    from ..traces.schema import trace_file_hash

    return replace(cfg, trace=replace(tp, content_hash=trace_file_hash(tp.source)))


def _run(
    cfg: ExperimentConfig,
    scheme: str,
    tracer: Optional[Tracer],
    *,
    system: Optional[DistributedSystem] = None,
    trace=None,
    strict: Optional[bool] = None,
    recorder=None,
) -> RunResult:
    """Run ``cfg`` under ``scheme`` in-process: the one place a config
    becomes a runner, whichever entry point asked.

    A replay when ``trace`` (an in-memory :class:`~repro.traces.Trace`) or
    ``cfg.trace`` is set, else a serving-simulator run when ``cfg.service``
    is set, else an AMR solver run.  Every kind runs on ``system`` (default
    :func:`make_system`) under :func:`make_faults`; a replay covers
    ``min(cfg.steps, trace.nsteps)`` coarse steps and is strict when
    ``strict`` says so (default ``cfg.trace.strict``); ``recorder`` observes
    a solver run (see :func:`repro.traces.record_run`).

    Untraced (``tracer=None``) is the zero-cost path.  Traced, the run gets
    a fresh :class:`~repro.obs.MetricsRegistry` and the result carries the
    spans ``tracer`` recorded while it ran.
    """
    if system is None:
        system = make_system(cfg)
    if trace is None and cfg.trace is not None:
        from ..traces.replay import load_trace_source

        trace = load_trace_source(cfg)
    metrics = MetricsRegistry() if tracer is not None else None
    start_count = tracer.record_count if tracer is not None else 0
    if trace is not None:
        from ..traces.replay import TraceReplayRunner

        result = TraceReplayRunner(
            trace,
            system,
            make_scheme(scheme),
            sim_params=cfg.sim_params,
            scheme_params=cfg.effective_scheme_params(),
            fault_schedule=make_faults(cfg),
            tracer=tracer,
            metrics=metrics,
            strict=cfg.trace.strict if strict is None else strict,
        ).run(min(cfg.steps, trace.nsteps))
    elif cfg.service is not None:
        # looked up at call time: the serving simulator imports the harness
        from .. import service

        result = service.simulate_service(cfg, scheme, tracer=tracer,
                                          metrics=metrics, system=system)
    else:
        result = SAMRRunner(
            make_app(cfg),
            system,
            make_scheme(scheme),
            sim_params=cfg.sim_params,
            scheme_params=cfg.effective_scheme_params(),
            fault_schedule=make_faults(cfg),
            tracer=tracer,
            metrics=metrics,
            recorder=recorder,
        ).run(cfg.steps)
    if tracer is not None:
        result.spans = tracer.records()[start_count:]
    return result


def run_experiment(
    config: ExperimentConfig,
    scheme: str = "distributed",
    *,
    executor=None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> RunResult:
    """Execute one (config, scheme) run and return its result.

    Parameters
    ----------
    config / scheme:
        What to run: the pinned experiment and the DLB policy -- any name
        from :func:`repro.core.registry.available_schemes`
        (``"distributed"`` by default; the built-ins are ``"parallel"``,
        ``"static"`` and ``"diffusion"``).
    executor:
        Optional :class:`repro.exec.Executor` to submit through (cache +
        worker pool); ``None`` runs in-process.
    tracer:
        Optional enabled :class:`~repro.obs.Tracer`.  The run is traced
        (spans + a metrics snapshot land on the result, and the spans are
        merged into ``tracer``); traced runs never come from the cache.
        ``None`` is the zero-cost path -- results are bit-identical to an
        un-instrumented run.
    seed:
        Optional traffic-seed override (see :func:`ExperimentConfig`).
    """
    cfg = resolve_trace_config(_apply_seed(config, seed))
    if executor is not None:
        from ..exec import ExecTask

        task = ExecTask(cfg, scheme, use_cache=tracer is None,
                        trace=tracer is not None)
        result = executor.run_tasks([task])[0]
        if tracer is not None and result.spans:
            tracer.extend(result.spans)
        return result
    return _run(cfg, scheme, tracer)


def sequential_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Normalise ``cfg`` to the fields the sequential reference depends on.

    The sequential reference runs on one dedicated processor with no
    network, so the system shape, group size, traffic weather and fault
    scenario (the spec's fault hook included) do not apply to it: two
    configs differing only in those fields have the *same* sequential run.
    :func:`run_sequential` runs the normalised config, and normalising
    before building an execution task makes the content address of the
    sequential reference stable across a whole sweep.
    """
    return replace(cfg, network="parallel", procs_per_group=1,
                   traffic_kind="none", traffic_level=0.0, traffic_seed=0,
                   fault=None, system=None)


def execute_scheme(
    config: ExperimentConfig,
    scheme: str,
    *,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Task dispatcher for :mod:`repro.exec` workers.

    ``scheme`` is any registered scheme name or the pseudo-scheme
    ``"sequential"`` for the ``E(1)`` reference.
    """
    if scheme == SEQUENTIAL:
        return run_sequential(config, tracer=tracer)
    return run_experiment(config, scheme, tracer=tracer)


def run_sequential(
    config: ExperimentConfig,
    *,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
) -> RunResult:
    """The ``E(1)`` reference: the same workload on one processor.

    One processor, no network: every grid lives on pid 0, so communication
    and balancing vanish and the total time is pure compute -- the paper's
    "sequential execution time on one processor".  The run is that of
    :func:`sequential_config`, so ``E(1)`` is one function of the config
    however it is requested: directly, through an executor, or as the
    reference of a paired run or sweep.
    """
    cfg = sequential_config(resolve_trace_config(_apply_seed(config, seed)))
    # the sequential reference replays under a different scheme and system
    # than recorded, where strict cross-checks legitimately diverge
    return _run(cfg, "parallel", tracer, strict=False,
                system=build_system(parallel_spec(1, base_speed=cfg.base_speed)))
