"""The blessed import surface: ``from repro.api import ...``.

Everything a user of the reproduction needs -- configs, entry points,
executors, observability, persistence and reporting -- re-exported from
one module with one stable ``__all__``.  Internal module layout may move
between releases; names listed here will not.  ``tests/test_api_surface.py``
pins the list.

All ``run_*`` entry points share one call shape::

    run_*(config, *, executor=None, tracer=None, seed=None, ...)

``executor`` overrides the execution engine (serial / process-pool /
cached), ``tracer`` records spans for every simulated run (see
:mod:`repro.obs` and ``docs/OBSERVABILITY.md``), and ``seed`` overrides the
config's traffic seed.
"""

from __future__ import annotations

# -- configuration ---------------------------------------------------------
from .config import (
    ExecParams,
    FaultParams,
    SchemeParams,
    ServiceConfig,
    SimParams,
    TraceParams,
)
from .harness.experiment import ExperimentConfig, sequential_config

# -- system construction ---------------------------------------------------
from .distsys import (
    LINK_PRESETS,
    EdgeSpec,
    GroupSpec,
    NetworkTopology,
    Route,
    SystemSpec,
    TopologySpec,
    build_system,
    fat_tree,
    from_edges,
    lan_spec,
    multi_site_spec,
    parallel_spec,
    ring,
    star,
    torus,
    wan_mesh,
    wan_spec,
)

# -- schemes: policy protocols + registry ----------------------------------
from .core.policies import (
    DecisionPolicy,
    GlobalPartitionPolicy,
    LocalBalancePolicy,
    WeightPolicy,
)
from .core.registry import (
    SchemeSpec,
    available_schemes,
    make_scheme,
    register_scheme,
)

# -- entry points ----------------------------------------------------------
from . import quick_run
from .harness.experiment import execute_scheme, run_experiment, run_sequential
from .harness.replication import replicate
from .harness.sweep import (
    FAULT_SWEEP_SCENARIOS,
    PAPER_CONFIGS,
    run_fault_scenarios,
    run_paired,
    run_sweep,
)

# -- results ---------------------------------------------------------------
from .harness.replication import ReplicatedResult
from .harness.sweep import PairedResult, SweepResult
from .metrics import RunResult, efficiency

# -- execution engines -----------------------------------------------------
from .exec import (
    ExecStats,
    ExecTask,
    Executor,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    get_default_executor,
    set_default_executor,
)

# -- observability ---------------------------------------------------------
from .obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    flame_summary,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)

# -- serving daemon --------------------------------------------------------
from .serve import (
    AsyncServeClient,
    JobResult,
    QueueFullError,
    ServeClient,
    ServeError,
    ServeServer,
)

# -- workload traces -------------------------------------------------------
from .traces import (
    SyntheticWorkload,
    Trace,
    TraceFormatError,
    TraceReplayError,
    TraceReplayRunner,
    available_synth_workloads,
    make_synth_workload,
    read_trace,
    record_run,
    register_synth_workload,
    replay_trace,
    write_trace,
)

# -- serving simulator (DLB as a request router) ---------------------------
from .service import (
    LatencyHistogram,
    ServiceReport,
    available_arrival_presets,
    available_router_policies,
    format_service_report,
    make_router_policy,
    register_router_policy,
    report_hash,
    simulate_service,
)

# -- persistence -----------------------------------------------------------
from .harness.persist import (
    load_fault_scenarios,
    load_replicated,
    load_run,
    load_sweep,
    save_fault_scenarios,
    save_replicated,
    save_run,
    save_sweep,
)

# -- reporting and timelines -----------------------------------------------
from .harness.report import comparison_block, format_percent, format_table
from .harness.timeline import (
    render_event_listing,
    render_step_timeline,
    step_timeline,
)

__all__ = [
    # configuration
    "ExperimentConfig",
    "SimParams",
    "SchemeParams",
    "FaultParams",
    "ExecParams",
    "TraceParams",
    "ServiceConfig",
    "sequential_config",
    # system construction
    "SystemSpec",
    "GroupSpec",
    "LINK_PRESETS",
    "build_system",
    "parallel_spec",
    "lan_spec",
    "wan_spec",
    "multi_site_spec",
    # network topologies
    "NetworkTopology",
    "TopologySpec",
    "EdgeSpec",
    "Route",
    "star",
    "ring",
    "torus",
    "fat_tree",
    "wan_mesh",
    "from_edges",
    # schemes: policy protocols + registry
    "WeightPolicy",
    "DecisionPolicy",
    "GlobalPartitionPolicy",
    "LocalBalancePolicy",
    "SchemeSpec",
    "register_scheme",
    "available_schemes",
    "make_scheme",
    # entry points
    "quick_run",
    "run_experiment",
    "run_sequential",
    "run_paired",
    "run_sweep",
    "run_fault_scenarios",
    "replicate",
    "execute_scheme",
    "PAPER_CONFIGS",
    "FAULT_SWEEP_SCENARIOS",
    # results
    "RunResult",
    "PairedResult",
    "SweepResult",
    "ReplicatedResult",
    "efficiency",
    # execution engines
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ExecTask",
    "ExecStats",
    "ResultCache",
    "get_default_executor",
    "set_default_executor",
    # observability
    "Tracer",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
    "flame_summary",
    "validate_chrome_trace",
    "prometheus_text",
    # serving daemon
    "ServeServer",
    "ServeClient",
    "AsyncServeClient",
    "JobResult",
    "ServeError",
    "QueueFullError",
    # workload traces
    "Trace",
    "TraceFormatError",
    "TraceReplayError",
    "TraceReplayRunner",
    "record_run",
    "replay_trace",
    "read_trace",
    "write_trace",
    "SyntheticWorkload",
    "register_synth_workload",
    "available_synth_workloads",
    "make_synth_workload",
    # serving simulator (DLB as a request router)
    "simulate_service",
    "ServiceReport",
    "LatencyHistogram",
    "report_hash",
    "format_service_report",
    "register_router_policy",
    "available_router_policies",
    "make_router_policy",
    "available_arrival_presets",
    # persistence
    "save_run",
    "load_run",
    "save_sweep",
    "load_sweep",
    "save_replicated",
    "load_replicated",
    "save_fault_scenarios",
    "load_fault_scenarios",
    # reporting and timelines
    "format_table",
    "format_percent",
    "comparison_block",
    "step_timeline",
    "render_step_timeline",
    "render_event_listing",
]
