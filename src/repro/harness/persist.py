"""Persistence: save and reload experiment results as JSON.

Sweeps take minutes; analysis and plotting should not have to re-run them.
``RunResult`` and the sweep containers serialize to plain JSON (the event
log, which can hold tens of thousands of records, is summarised to per-type
counts rather than dumped).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Union

from ..config import (
    FaultParams,
    SchemeParams,
    ServiceConfig,
    SimParams,
    TraceParams,
)
from ..metrics.timing import RunResult
from .replication import ReplicatedResult
from .sweep import PairedResult, SweepResult

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "save_sweep",
    "load_sweep",
    "save_run",
    "load_run",
    "save_replicated",
    "load_replicated",
    "save_fault_scenarios",
    "load_fault_scenarios",
]

_FORMAT_VERSION = 1


def run_result_to_dict(result: RunResult) -> Dict:
    """JSON-safe dict of a run result (events summarised, not dumped)."""
    out = {
        "scheme": result.scheme,
        "app": result.app,
        "system": result.system,
        "nsteps": result.nsteps,
        "total_time": result.total_time,
        "compute_time": result.compute_time,
        "comm_time": result.comm_time,
        "balance_overhead": result.balance_overhead,
        "probe_time": result.probe_time,
        "local_comm_busy": result.local_comm_busy,
        "remote_comm_busy": result.remote_comm_busy,
        "comm_by_purpose": dict(result.comm_by_purpose),
        "remote_bytes_by_kind": dict(result.remote_bytes_by_kind),
        "final_grids": result.final_grids,
        "final_cells": result.final_cells,
        "redistributions": result.redistributions,
        "decisions": result.decisions,
        "faults": result.faults,
    }
    if result.events is not None:
        counts: Dict[str, int] = {}
        for e in result.events:
            name = type(e).__name__
            counts[name] = counts.get(name, 0) + 1
        out["event_counts"] = counts
    # the metrics snapshot is already JSON-safe; spans are not persisted
    # here (export them with repro.obs.write_chrome_trace / write_span_jsonl)
    if result.metrics is not None:
        out["metrics"] = result.metrics
    if result.service is not None:
        out["service"] = result.service
    return out


def run_result_from_dict(data: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` (without its event log)."""
    fields = {
        k: data[k]
        for k in (
            "scheme", "app", "system", "nsteps", "total_time", "compute_time",
            "comm_time", "balance_overhead", "probe_time", "local_comm_busy",
            "remote_comm_busy", "comm_by_purpose", "remote_bytes_by_kind",
            "final_grids", "final_cells", "redistributions", "decisions",
        )
    }
    # added after format version 1 files were first written; default for old files
    fields["faults"] = data.get("faults", 0)
    fields["metrics"] = data.get("metrics")
    fields["service"] = data.get("service")
    return RunResult(events=None, **fields)


def save_run(result: RunResult, path: Union[str, Path]) -> None:
    """Write one run result to ``path`` as JSON."""
    payload = {"format": _FORMAT_VERSION, "kind": "run", "run": run_result_to_dict(result)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_run(path: Union[str, Path]) -> RunResult:
    payload = json.loads(Path(path).read_text())
    _check(payload, "run")
    return run_result_from_dict(payload["run"])


def save_sweep(sweep: SweepResult, path: Union[str, Path]) -> None:
    """Write a sweep (full configs + all three runs per pair) to JSON."""
    payload = {"format": _FORMAT_VERSION, "kind": "sweep",
               "pairs": [_paired_to_dict(p) for p in sweep.pairs]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_sweep(path: Union[str, Path]) -> SweepResult:
    """Reload a sweep; improvements/efficiencies recompute transparently.

    Older files that kept only each config's headline fields still load;
    the fields they lack take their defaults.
    """
    payload = json.loads(Path(path).read_text())
    _check(payload, "sweep")
    return SweepResult(pairs=[_paired_from_dict(p) for p in payload["pairs"]])


def _config_to_dict(cfg) -> Dict:
    """Full JSON form of an :class:`ExperimentConfig`, nested params included.

    Captures everything -- ``traffic_seed``, ``base_speed``, ``sim_params``,
    ``scheme_params``, ``fault``, ``trace``, ``service`` and ``system`` --
    so reloaded configs compare equal to the originals.  Every persisted
    result uses it, and it is the wire form ``repro.daemon`` jobs carry
    their configs in.
    """
    out = {
        "app_name": cfg.app_name,
        "network": cfg.network,
        "procs_per_group": cfg.procs_per_group,
        "steps": cfg.steps,
        "domain_cells": cfg.domain_cells,
        "max_levels": cfg.max_levels,
        "base_speed": cfg.base_speed,
        "traffic_kind": cfg.traffic_kind,
        "traffic_level": cfg.traffic_level,
        "traffic_seed": cfg.traffic_seed,
        "gamma": cfg.gamma,
        "scheme_params": (
            asdict(cfg.scheme_params) if cfg.scheme_params is not None else None
        ),
        "sim_params": asdict(cfg.sim_params),
        "fault": asdict(cfg.fault) if cfg.fault is not None else None,
        "trace": asdict(cfg.trace) if cfg.trace is not None else None,
        "system": cfg.system.to_dict() if cfg.system is not None else None,
    }
    # Omitted when absent so pre-service trace headers / persisted files
    # keep their exact bytes (the loader tolerates the missing key).
    if cfg.service is not None:
        out["service"] = asdict(cfg.service)
    return out


def _config_from_dict(data: Dict):
    """Rebuild an :class:`ExperimentConfig` from :func:`_config_to_dict`."""
    from .experiment import ExperimentConfig

    fields = dict(data)
    if fields.get("scheme_params") is not None:
        fields["scheme_params"] = SchemeParams(**fields["scheme_params"])
    if fields.get("sim_params") is not None:
        fields["sim_params"] = SimParams(**fields["sim_params"])
    else:
        fields.pop("sim_params", None)
    if fields.get("fault") is not None:
        fields["fault"] = FaultParams(**fields["fault"])
    if fields.get("trace") is not None:
        fields["trace"] = TraceParams(**fields["trace"])
    else:
        fields.pop("trace", None)  # absent in pre-trace files
    if fields.get("service") is not None:
        fields["service"] = ServiceConfig(**fields["service"])
    else:
        fields.pop("service", None)  # absent in pre-service files
    if fields.get("system") is not None:
        from ..distsys import SystemSpec

        fields["system"] = SystemSpec.from_dict(fields["system"])
    else:
        fields.pop("system", None)  # absent in pre-spec files
    return ExperimentConfig(**fields)


def _scheme_names(data: Dict):
    """The pair's scheme names; pre-registry files default to the paper's
    parallel/distributed pairing (which is all they could hold)."""
    from .sweep import DEFAULT_SCHEMES

    names = data.get("scheme_names")
    return tuple(names) if names is not None else DEFAULT_SCHEMES


def _paired_to_dict(pair: PairedResult) -> Dict:
    return {
        "config": _config_to_dict(pair.config),
        "scheme_names": list(pair.scheme_names),
        "parallel": run_result_to_dict(pair.parallel),
        "distributed": run_result_to_dict(pair.distributed),
        "sequential": (
            run_result_to_dict(pair.sequential)
            if pair.sequential is not None
            else None
        ),
    }


def _paired_from_dict(data: Dict) -> PairedResult:
    return PairedResult(
        config=_config_from_dict(data["config"]),
        parallel=run_result_from_dict(data["parallel"]),
        distributed=run_result_from_dict(data["distributed"]),
        sequential=(
            run_result_from_dict(data["sequential"])
            if data.get("sequential") is not None
            else None
        ),
        scheme_names=_scheme_names(data),
    )


def save_replicated(rep: ReplicatedResult, path: Union[str, Path]) -> None:
    """Write a :class:`ReplicatedResult` (config + per-seed pairs) to JSON."""
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "replicated",
        "config": _config_to_dict(rep.config),
        "seeds": list(rep.seeds),
        "pairs": [_paired_to_dict(p) for p in rep.pairs],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_replicated(path: Union[str, Path]) -> ReplicatedResult:
    """Reload a replicated result; the spread statistics recompute
    transparently from the per-seed pairs."""
    payload = json.loads(Path(path).read_text())
    _check(payload, "replicated")
    return ReplicatedResult(
        config=_config_from_dict(payload["config"]),
        seeds=[int(s) for s in payload["seeds"]],
        pairs=[_paired_from_dict(p) for p in payload["pairs"]],
    )


def save_fault_scenarios(
    results: Dict[str, PairedResult], path: Union[str, Path]
) -> None:
    """Write a :func:`~repro.harness.sweep.run_fault_scenarios` result dict.

    Scenario order is preserved (entries are a list, not an object), so the
    reloaded dict iterates in the same order as the original.
    """
    payload = {
        "format": _FORMAT_VERSION,
        "kind": "fault-scenarios",
        "scenarios": [
            {"scenario": name, **_paired_to_dict(pair)}
            for name, pair in results.items()
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_fault_scenarios(path: Union[str, Path]) -> Dict[str, PairedResult]:
    payload = json.loads(Path(path).read_text())
    _check(payload, "fault-scenarios")
    out: Dict[str, PairedResult] = {}
    for entry in payload["scenarios"]:
        out[entry["scenario"]] = _paired_from_dict(entry)
    return out


def _check(payload: Dict, kind: str) -> None:
    if payload.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported file format {payload.get('format')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} file, got {payload.get('kind')!r}")
