"""The repro.api facade: a stable, importable surface with one call shape.

``EXPECTED_API`` is a frozen copy of ``repro.api.__all__``: removing or
renaming an entry is a breaking change and must fail here first.  Adding a
name is fine -- extend this list in the same change.
"""

import inspect

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    ExperimentConfig,
    replicate,
    run_experiment,
    run_fault_scenarios,
    run_paired,
    run_sequential,
    run_sweep,
)

EXPECTED_API = [
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

SMALL = ExperimentConfig(procs_per_group=1, steps=2)


class TestSurface:
    def test_all_is_frozen(self):
        assert api.__all__ == EXPECTED_API

    def test_every_name_importable_and_bound(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))


class TestWeightPolicyArrays:
    """A weight policy answers with one pid-indexed ``float64`` array."""

    @pytest.mark.parametrize("name", ["nominal", "measured"])
    def test_builtin_policies_return_float64_by_pid(self, name):
        from repro.core.policies import WEIGHT_POLICIES

        system = api.build_system(api.multi_site_spec([2, 3], group_weights=[1.0, 2.5]))
        weights = WEIGHT_POLICIES[name]().processor_weights(system, 1.0)
        assert isinstance(weights, np.ndarray)
        assert weights.dtype == np.float64
        assert weights.shape == (system.nprocs,)
        assert weights.tolist() == [1.0, 1.0, 2.5, 2.5, 2.5]

    def test_nominal_weights_are_read_only(self):
        from repro.core.policies import MeasuredWeights, NominalWeights

        system = api.build_system(api.wan_spec(2))
        nominal = NominalWeights().processor_weights(system, 0.0)
        with pytest.raises(ValueError):
            nominal[0] = 2.0
        # the measured policy hands out its own copy
        measured = MeasuredWeights().processor_weights(system, 0.0)
        measured[0] = 2.0
        assert NominalWeights().processor_weights(system, 0.0)[0] == 1.0


class TestCallShape:
    """Every run_* entry point takes (config, ..., *, executor, tracer, seed)."""

    @pytest.mark.parametrize("fn", [run_experiment, run_sequential,
                                    run_paired, run_sweep,
                                    run_fault_scenarios, replicate])
    def test_unified_keywords(self, fn):
        params = inspect.signature(fn).parameters
        for name in ("executor", "tracer", "seed"):
            if fn in (run_sequential,) and name == "executor":
                continue  # sequential runs in-process by design
            assert name in params, f"{fn.__name__} lacks {name}="
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is None

    def test_first_parameter_is_config(self):
        for fn in (run_experiment, run_sequential, run_paired, run_sweep,
                   run_fault_scenarios, replicate):
            first = next(iter(inspect.signature(fn).parameters))
            assert first == "config", fn.__name__


class TestSeedOverride:
    def test_seed_overrides_traffic_seed(self):
        cfg = ExperimentConfig(procs_per_group=1, steps=2,
                               traffic_kind="bursty", traffic_seed=1)
        base = run_experiment(cfg, "distributed")
        reseeded = run_experiment(cfg, "distributed", seed=99)
        explicit = run_experiment(
            ExperimentConfig(procs_per_group=1, steps=2,
                             traffic_kind="bursty", traffic_seed=99),
            "distributed")
        assert reseeded.total_time == explicit.total_time
        assert reseeded.total_time != base.total_time

    def test_replicate_seed_anchors_consecutive_seeds(self):
        rep = replicate(SMALL, seed=5)
        assert rep.seeds == [5, 6, 7]


class TestLegacyShims:
    """The deprecation shims for the pre-``repro.api`` call forms are gone:
    those forms now fail like any other bad call."""

    @pytest.mark.parametrize("call", [
        lambda: run_paired(SMALL, True),
        lambda: run_sweep(SMALL, (1,)),
        lambda: run_fault_scenarios(SMALL, ("none",)),
        lambda: replicate(SMALL, (3,)),
        lambda: run_experiment(SMALL, scheme_name="parallel"),
    ], ids=["run_paired", "run_sweep", "run_fault_scenarios", "replicate",
            "run_experiment-scheme_name"])
    def test_old_call_form_raises(self, call):
        with pytest.raises(TypeError):
            call()

    def test_too_many_positionals_raise(self):
        with pytest.raises(TypeError):
            run_paired(SMALL, True, None, "extra")

    def test_positional_keyword_collision_raises(self):
        with pytest.raises(TypeError):
            run_paired(SMALL, True, with_sequential=True)
