"""Every entry point that turns a config into a run agrees with the others.

``run_experiment``, an executor task, ``record_run``, ``replay_trace``,
``run_sequential``, the paired harness and ``quick_run`` all build their
runner in one place (``repro.harness.experiment._run``).  These tests pin
that a run does not depend on which of them asked for it: the same config
gives the same ``RunResult``, field for field and event for event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import repro
from repro.config import FaultParams, ServiceConfig, TraceParams
from repro.distsys import multi_site_spec
from repro.distsys.system import DEFAULT_BASE_SPEED
from repro.exec import ExecTask, SerialExecutor
from repro.harness import (
    ExperimentConfig,
    run_experiment,
    run_paired,
    run_sequential,
)
from repro.harness.persist import run_result_to_dict
from repro.traces import record_run, replay_trace, write_trace


def _hash(result) -> str:
    """Digest of everything a run reports, its full event log included."""
    payload = run_result_to_dict(result)
    payload["events"] = [repr(e) for e in result.events]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


_BASE = dict(procs_per_group=2, steps=2, domain_cells=16, max_levels=3)

#: one config per kind of run: the AMR solver, a synthetic-trace replay and
#: the serving simulator
RUN_KINDS = {
    "solver": ExperimentConfig(traffic_kind="bursty", **_BASE),
    "synth": ExperimentConfig(trace=TraceParams(source="synth:hotspot"),
                              **_BASE),
    "service": ExperimentConfig(service=ServiceConfig(duration_seconds=20),
                                fault=FaultParams(scenario="dropout"),
                                **_BASE),
}

#: configs whose E(1) once depended on how it was requested: a synthetic
#: trace generated for the config's processor count, and a service whose
#: system spec carries a fault hook
SEQUENTIAL_CONFIGS = {
    "synth": ExperimentConfig(steps=2, procs_per_group=4,
                              trace=TraceParams(source="synth:hotspot")),
    "fault-hook": ExperimentConfig(
        system=replace(multi_site_spec([2, 2]),
                       fault=FaultParams(scenario="slowdown", group=0)),
        service=ServiceConfig(duration_seconds=20)),
}


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
@pytest.mark.parametrize("scheme", ["parallel", "distributed"])
def test_in_process_and_executor_runs_agree(kind, scheme):
    cfg = RUN_KINDS[kind]
    direct = run_experiment(cfg, scheme)
    task = SerialExecutor().run_tasks([ExecTask(cfg, scheme)])[0]
    assert _hash(task) == _hash(direct)
    if kind == "solver":
        recorded, _ = record_run(cfg, scheme)
        assert _hash(recorded) == _hash(direct)


@pytest.mark.parametrize("steps", [2, 5], ids=["within", "beyond"])
@pytest.mark.parametrize("scheme", ["distributed", "static"])
def test_file_and_in_memory_replays_agree(tmp_path, steps, scheme):
    """A replay covers ``min(config.steps, trace.nsteps)`` steps wherever
    the trace lives."""
    _, trace = record_run(RUN_KINDS["solver"], "distributed")
    path = tmp_path / "t.trace.jsonl.gz"
    write_trace(trace, path)
    cfg = replace(RUN_KINDS["solver"], steps=steps)
    from_file = replay_trace(path, cfg, scheme)
    in_memory = replay_trace(trace, cfg, scheme)
    assert from_file.nsteps == in_memory.nsteps == trace.nsteps
    assert _hash(in_memory) == _hash(from_file)


@pytest.mark.parametrize("name", sorted(SEQUENTIAL_CONFIGS))
def test_sequential_reference_does_not_depend_on_the_route(name):
    """E(1) requested directly equals the one the paired harness submits."""
    cfg = SEQUENTIAL_CONFIGS[name]
    direct = run_sequential(cfg)
    paired = run_paired(cfg, with_sequential=True,
                        executor=SerialExecutor()).sequential
    assert _hash(direct) == _hash(paired)


@pytest.mark.parametrize("app", ["shockpool3d", "amr64", "blastwave"])
def test_quick_run_is_its_run_experiment_form(app):
    quick = repro.quick_run(app, procs_per_group=2, steps=2)
    cfg = ExperimentConfig(app_name=app,
                           network="lan" if app == "amr64" else "wan",
                           procs_per_group=2, steps=2,
                           base_speed=DEFAULT_BASE_SPEED)
    assert _hash(quick) == _hash(run_experiment(cfg, "distributed"))


@pytest.mark.parametrize("kind", ["synth", "service"])
def test_record_run_only_records_solver_runs(kind):
    with pytest.raises(ValueError, match="cannot record"):
        record_run(RUN_KINDS[kind], "distributed")
