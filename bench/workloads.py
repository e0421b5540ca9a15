"""The benchmark workloads: inputs from a seed, one timed unit, a digest.

A *unit* is one timed call into the program.  ``setup`` builds everything
the unit needs from the seed (this is what ``setup_s`` times, together with
importing ``repro``); ``unit`` returns the run's
:class:`~repro.metrics.timing.RunResult`; ``digest`` fingerprints it so the
benchmark can check every unit against the pinned seed-0 result.

Why these four (see README.md for the measured layer shares):

* ``amr-shockpool`` -- the full solver path; regrid and clustering dominate,
  the service layer is bypassed.
* ``replay-diffusion-4096`` -- trace replay at 4096 processors where the
  diffusion scheme's O(grids x procs) LPT placement dominates.
* ``replay-distributed-4096`` -- the same trace and layers under the paper's
  scheme: many small per-group LPT calls, sibling adjacency and the global
  phase, so a change that helps the diffusion replay must not hurt here.
* ``service-flash`` -- the serving simulator under a flash crowd; no AMR
  code runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict

import repro
from repro.config import ServiceConfig
from repro.core.registry import make_scheme
from repro.distsys import build_system, multi_site_spec
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.persist import run_result_to_dict
from repro.service.report import report_hash
from repro.traces import synth
from repro.traces.replay import TraceReplayRunner


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool], Any]
    unit: Callable[[Any], Any]


def _amr_setup(seed: int, quick: bool):
    # bursty weather: the seed picks the traffic bursts the balancer reacts to
    cfg = ExperimentConfig(app_name="shockpool3d", network="wan",
                           procs_per_group=2 if quick else 4,
                           steps=2 if quick else 8,
                           domain_cells=16 if quick else 32, max_levels=3,
                           traffic_kind="bursty")
    return cfg, seed


def _experiment_unit(inputs):
    cfg, seed = inputs
    return run_experiment(cfg, "distributed", seed=seed)


def _replay_setup(scheme: str):
    def setup(seed: int, quick: bool):
        nprocs, ngroups = (256, 8) if quick else (4096, 32)
        workload = synth.make_synth_workload(
            "hotspot", domain_cells=16 if quick else 32, max_levels=3,
            ndim=3, seed=seed)
        # looked up on the module so the traced run's wrapper sees the call
        trace = synth.generate_trace(workload, steps=2, nprocs=nprocs)
        return trace, [nprocs // ngroups] * ngroups, scheme
    return setup


def _replay_unit(inputs):
    # runner construction is inside the unit: every replay pays it, and it
    # holds the scheme's initial distribution
    trace, groups, scheme = inputs
    runner = TraceReplayRunner(trace, build_system(multi_site_spec(groups)),
                               make_scheme(scheme))
    return runner.run(2)


def _service_setup(seed: int, quick: bool):
    if quick:
        svc = ServiceConfig(nshards=32, replication=3, duration_seconds=60,
                            router="ewma")
        return ExperimentConfig(procs_per_group=4, service=svc), seed
    svc = ServiceConfig(nshards=256, replication=3, requests_per_second=20000,
                        service_rate=1500, duration_seconds=1200, router="ewma")
    return ExperimentConfig(procs_per_group=16, service=svc), seed


WORKLOADS: Dict[str, Workload] = {
    "amr-shockpool": Workload(_amr_setup, _experiment_unit),
    "replay-diffusion-4096": Workload(_replay_setup("diffusion"), _replay_unit),
    "replay-distributed-4096": Workload(_replay_setup("distributed"), _replay_unit),
    "service-flash": Workload(_service_setup, _experiment_unit),
}


def check_source(root: Path) -> None:
    """Refuse to measure a ``repro`` imported from outside ``root/src``."""
    src = (root / "src").resolve()
    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"repro imported from {where}, expected under {src}")


def check_result(result) -> None:
    """Invariants every unit's result must satisfy, whatever the seed."""
    times = (result.total_time, result.compute_time, result.comm_time,
             result.balance_overhead, result.probe_time)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError(f"non-finite or negative simulated time in {times}")
    if result.total_time <= 0.0 or result.final_grids <= 0:
        raise ValueError("empty run: no simulated time or no grids")
    svc = result.service
    if svc is not None:
        if svc["total_requests"] != svc["latency"]["total"]:
            raise ValueError("service requests are not conserved")
        if not svc["p50"] <= svc["p95"] <= svc["p99"]:
            raise ValueError("service latency quantiles are not ordered")


def digest(result) -> str:
    """sha256 of the canonical :func:`run_result_to_dict`; service runs
    append the report's own :func:`report_hash`."""
    blob = json.dumps(run_result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    out = hashlib.sha256(blob.encode()).hexdigest()
    if result.service is not None:
        out += "/" + report_hash(result.service)
    return out


def sim_metrics(result) -> Dict[str, float]:
    """The simulated outputs reported beside the per-layer metrics."""
    p99 = result.service["p99"] if result.service is not None else 0.0
    return {"sim.makespan_s": result.total_time, "sim.p99_s": p99}
