"""Recording the workload signal of a live SAMR run.

:class:`TraceRecorder` is a pure observer the runner notifies from its
integrator hooks (``SAMRRunner(recorder=...)``): it copies out per-substep
per-grid workloads and regrid cluster boxes, and never feeds anything back
-- a recorded run is bit-identical to an unrecorded one.  Message volumes
are not recorded: they are geometry, which the replayer derives from its
own hierarchy.

Design note: regrids are recorded as *cluster boxes* in coarse coordinates
(the pre-clipping output of Berger--Rigoutsos), not as the realized fine
grids.  The realized grids depend on how the scheme has split the level-0
grids; the cluster boxes depend only on the application's flags.  Replay
re-clips them against its own level-0 grids, which makes the same trace
(a) bit-for-bit exact under the recorded system+scheme and (b) a faithful
workload signal under any other scheme/system/γ/fault schedule.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..amr.box import Box
from ..amr.boxarray import BoxArray
from ..amr.integrator import SubStep
from ..obs import get_default_metrics
from .schema import Trace, build_header, encode_box, write_trace

__all__ = ["TraceRecorder", "record_run"]


class TraceRecorder:
    """Observes one :class:`~repro.runtime.SAMRRunner` run into a trace.

    Parameters
    ----------
    config:
        Optional :class:`~repro.harness.experiment.ExperimentConfig` the
        run was built from; its canonical serialization and hash land in
        the trace header for provenance.
    scheme_name:
        Registry name of the scheme driving the recorded run.
    """

    def __init__(self, config=None, scheme_name: str = "") -> None:
        self.config = config
        self.scheme_name = scheme_name
        self.records: List[Dict[str, Any]] = []
        self.runner = None
        self._root_boxes: Optional[BoxArray] = None
        self._root_wpc = 1.0
        self._nglobals = 0

    # -- runner hooks (called by SAMRRunner) -------------------------------

    def attach(self, runner) -> None:
        """Called once by the runner, right after the root grids exist."""
        self.runner = runner
        self._root_boxes = runner.hierarchy.level_boxes(0)
        self._root_wpc = float(runner.hierarchy.level_work_per_cell(0)[0])

    def on_global(self, time: float) -> None:
        self.records.append({"op": "global", "t": time, "s": self._nglobals})
        self._nglobals += 1

    def on_solve(self, step: SubStep) -> None:
        w = self.runner.hierarchy.level_workloads(step.level).tolist()
        self.records.append({"op": "solve", "l": step.level, "q": step.seq,
                             "w": w})

    def on_regrid(self, level: int, time: float, boxes: List[Box],
                  wpc: float) -> None:
        self.records.append({
            "op": "regrid", "l": level, "t": time,
            "b": [encode_box(b) for b in boxes], "wpc": wpc,
        })

    def on_local(self, level: int, time: float) -> None:
        self.records.append({"op": "local", "l": level, "t": time})

    # -- finishing ---------------------------------------------------------

    def finish(self) -> Trace:
        """Assemble the trace after the run completed."""
        if self.runner is None:
            raise RuntimeError("recorder was never attached to a runner")
        config_payload, config_hash = _config_payload(self.config)
        header = build_header(
            app=self.runner.app.name,
            scheme=self.scheme_name or self.runner.scheme.name,
            nsteps=self.runner.integrator.coarse_steps_done,
            dt0=self.runner.integrator.dt0,
            domain=self.runner.hierarchy.domain,
            refinement_ratio=self.runner.hierarchy.refinement_ratio,
            max_levels=self.runner.hierarchy.max_levels,
            root_boxes=self._root_boxes,
            root_wpc=self._root_wpc,
            min_piece_cells=self.runner.regrid_params.min_piece_cells,
            seed=getattr(self.config, "traffic_seed", 0),
            config=config_payload,
            config_hash=config_hash,
        )
        return Trace(header=header, records=self.records)


def _config_payload(config) -> Tuple[Any, str]:
    """Canonical (payload, sha256) of the recorded config, for the header."""
    if config is None:
        return None, ""
    from ..exec.cache import canonical_json, canonical_value

    return canonical_value(config), hashlib.sha256(
        canonical_json(config).encode("utf-8")).hexdigest()


def record_run(
    config,
    scheme: Optional[str] = None,
    *,
    out=None,
    tracer=None,
    seed: Optional[int] = None,
):
    """Run one experiment while recording its workload trace.

    Same shape as :func:`~repro.harness.experiment.run_experiment` (always
    in-process -- recording needs the live runner, so there is no executor
    path), plus:

    ``out``
        Optional path; when given the trace is also written there as
        deterministic gzipped JSONL (conventionally ``*.trace.jsonl.gz``).

    Returns ``(RunResult, Trace)``.  The result is bit-identical to
    ``run_experiment(config, scheme)`` -- recording is observation only.
    Only solver runs record: a ``trace`` or ``service`` config raises
    :class:`ValueError`.
    """
    from ..harness.experiment import _apply_seed, _run

    if scheme is None:
        scheme = "distributed"
    cfg = _apply_seed(config, seed)
    if cfg.trace is not None:
        raise ValueError(
            "cannot record a replayed run: config.trace must be None"
        )
    if cfg.service is not None:
        raise ValueError(
            "cannot record a service run: config.service must be None"
        )
    recorder = TraceRecorder(config=cfg, scheme_name=scheme)
    result = _run(cfg, scheme, tracer, recorder=recorder)
    trace = recorder.finish()
    m = get_default_metrics()
    m.counter("trace.recorded_runs").inc()
    m.counter("trace.recorded_records").inc(len(trace.records))
    if out is not None:
        nbytes = write_trace(trace, out)
        m.gauge("trace.file_bytes").set(nbytes)
    return result, trace
