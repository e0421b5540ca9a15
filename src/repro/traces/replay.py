"""Trace-driven execution: re-balance a recorded workload without the solver.

:class:`TraceReplayRunner` is an :class:`~repro.runtime.SAMRRunner` whose
workload signal comes from a trace instead of an AMR application: the root
tiling and initial refinement come from the trace header, and every regrid
installs the recorded cluster boxes (clipped against the replay's own
level-0 grids and validated like a live regrid, so overlapping boxes raise
:exc:`ValueError`).  Everything else -- the ghost and parent/child message
geometry of the replayed hierarchy, the cluster simulator, the scheme,
faults, background traffic -- is the real machinery, so the same trace can
be re-balanced under different systems, schemes, γ values and fault
schedules at a ≥2x speedup over the full solve.

Fidelity contract: under the *same* system and scheme the trace was
recorded with, replay reproduces the recorded run's DLB decisions and
``RunResult`` bit-for-bit (pinned by ``tests/test_trace_replay.py``).
Under a different scheme or system the hierarchy may evolve differently
(global redistribution splits level-0 grids), so recorded cluster boxes
are re-clipped against the actual grids and messages follow the replayed
layout.  This is the standard trace-driven approximation of the DLB
literature.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from ..amr.grid import Grid
from ..amr.integrator import SubStep
from ..amr.regrid import RegridParams, apply_cluster_boxes
from ..config import SchemeParams, SimParams
from ..core.composed import ComposedScheme
from ..distsys.events import EventLog
from ..distsys.system import DistributedSystem
from ..faults.schedule import FaultSchedule
from ..metrics.timing import RunResult
from ..obs import MetricsRegistry, Tracer, get_default_metrics
from ..runtime.runner import SAMRRunner
from .schema import Trace, TraceReplayError, decode_box, read_trace

__all__ = ["TraceReplayRunner", "replay_trace", "load_trace_source",
           "default_replay_steps"]


class _TraceApp:
    """Application shim during replay: carries the recorded identity
    (name/domain/levels) so ``RunResult`` fields match the recorded run;
    the solver entry points must never be reached."""

    def __init__(self, trace: Trace) -> None:
        self.name = trace.app
        self.domain = trace.domain
        self.refinement_ratio = trace.refinement_ratio
        self.max_levels = trace.max_levels

    def flags(self, level, box, time):  # pragma: no cover - guard
        raise RuntimeError("trace replay must not evaluate application flags")

    def work_per_cell(self, level):  # pragma: no cover - guard
        raise RuntimeError("trace replay takes work-per-cell from the trace")


class TraceReplayRunner(SAMRRunner):
    """Feed a recorded trace through the simulator + any registry scheme.

    Parameters mirror :class:`~repro.runtime.SAMRRunner` minus the
    application (the trace stands in for it); ``strict=True`` additionally
    verifies every recorded per-grid workload vector against the replayed
    hierarchy and raises :class:`TraceReplayError` on the first divergence
    -- the mode the golden equivalence tests run in.
    """

    def __init__(
        self,
        trace: Union[Trace, str, Path],
        system: DistributedSystem,
        scheme: ComposedScheme,
        sim_params: Optional[SimParams] = None,
        scheme_params: Optional[SchemeParams] = None,
        log: Optional[EventLog] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        strict: bool = False,
    ) -> None:
        if not isinstance(trace, Trace):
            trace = read_trace(trace)
        # the record stream must exist before the base class's initial
        # adaptation reads it
        self.trace = trace
        self.strict = strict
        self._records = trace.records
        self._cursor = 0
        super().__init__(
            _TraceApp(trace),
            system,
            scheme,
            dt0=trace.dt0,
            sim_params=sim_params,
            scheme_params=scheme_params,
            regrid_params=RegridParams(min_piece_cells=trace.min_piece_cells),
            log=log,
            fault_schedule=fault_schedule,
            tracer=tracer,
            metrics=metrics,
        )

    # -- record stream ----------------------------------------------------- #

    def _next_record(self, op: str) -> dict:
        """Advance to the next record, which must be ``op``."""
        if self._cursor >= len(self._records):
            raise TraceReplayError(
                f"trace exhausted while expecting a {op!r} record "
                f"(the trace holds {self.trace.nsteps} coarse steps)"
            )
        rec = self._records[self._cursor]
        self._cursor += 1
        if rec["op"] != op:
            raise TraceReplayError(
                f"replay desynchronised at record {self._cursor - 1}: "
                f"expected {op!r}, trace holds {rec['op']!r}"
            )
        return rec

    # -- overridden hooks --------------------------------------------------- #

    def _create_root_grids(self, blocks_per_axis) -> None:
        self.hierarchy.create_root_grids(
            self.trace.root_boxes, work_per_cell=self.trace.root_work_per_cell
        )

    def _rebuild_fine_level(self, level: int, time: float) -> List[Grid]:
        rec = self._next_record("regrid")
        if rec["l"] != level or rec["t"] != time:
            raise TraceReplayError(
                f"replay desynchronised: regrid of level {level + 1} at "
                f"t={time} found recorded regrid of level {rec['l'] + 1} "
                f"at t={rec['t']}"
            )
        boxes = [decode_box(b) for b in rec["b"]]
        # validated like a live regrid: overlapping recorded cluster boxes
        # raise ValueError instead of installing overlapping grids
        return apply_cluster_boxes(self.hierarchy, level, boxes, rec["wpc"],
                                   min_piece_cells=self.regrid_params.min_piece_cells)

    def solve(self, step: SubStep) -> None:
        rec = self._next_record("solve")
        if rec["l"] != step.level or rec["q"] != step.seq:
            raise TraceReplayError(
                f"replay desynchronised: solve level={step.level} "
                f"seq={step.seq} found recorded solve level={rec['l']} "
                f"seq={rec['q']}"
            )
        if self.strict:
            w = self.hierarchy.level_workloads(step.level).tolist()
            if w != rec["w"]:
                raise TraceReplayError(
                    f"strict replay divergence at level {step.level} "
                    f"seq {step.seq}: replayed workloads != recorded "
                    f"({len(w)} vs {len(rec['w'])} grids)"
                )
        super().solve(step)

    def local_balance(self, level: int, time: float) -> None:
        rec = self._next_record("local")
        if rec["l"] != level:
            raise TraceReplayError(
                f"replay desynchronised: local balance at level {level} "
                f"found recorded level {rec['l']}"
            )
        super().local_balance(level, time)

    def global_balance(self, time: float) -> None:
        rec = self._next_record("global")
        if rec["s"] != self.integrator.coarse_steps_done:
            raise TraceReplayError(
                f"replay desynchronised: coarse step "
                f"{self.integrator.coarse_steps_done} found recorded "
                f"step {rec['s']}"
            )
        super().global_balance(time)

    # -- driving ------------------------------------------------------------ #

    def run(self, ncoarse_steps: int) -> RunResult:
        if ncoarse_steps > self.trace.nsteps:
            raise TraceReplayError(
                f"trace holds {self.trace.nsteps} coarse steps; cannot "
                f"replay {ncoarse_steps} (re-record with more steps or "
                f"lower config.steps)"
            )
        result = super().run(ncoarse_steps)
        m = get_default_metrics()
        m.counter("trace.replayed_runs").inc()
        m.counter("trace.replayed_records").inc(self._cursor)
        return result


def default_replay_steps(source) -> int:
    """How many coarse steps a replay of ``source`` covers by default.

    Synthetic generators have no inherent length, so they get the
    harness's default of 4; file traces replay in full.  Raises
    :class:`TraceFormatError` for unreadable files -- callers (the
    ``repro replay`` / ``repro submit`` commands) surface it as a usage
    error.
    """
    from .synth import parse_synth_source

    if parse_synth_source(str(source)) is not None:
        return 4
    return max(1, read_trace(source).nsteps)


def load_trace_source(cfg) -> Trace:
    """Resolve an :class:`ExperimentConfig`'s trace source to a
    :class:`Trace`: either a recorded file or a registered ``synth:<name>``
    generator (parameterised by the config's domain/levels/steps and the
    trace params' seed/intensity)."""
    from ..harness.experiment import make_system
    from .schema import TraceFormatError, trace_file_hash
    from .synth import generate_trace, make_synth_workload, parse_synth_source

    tp = cfg.trace
    if tp is None:
        raise ValueError("config has no trace source")
    name = parse_synth_source(tp.source)
    if name is not None:
        workload = make_synth_workload(
            name,
            domain_cells=cfg.domain_cells,
            max_levels=cfg.max_levels,
            seed=tp.seed,
            intensity=tp.intensity,
        )
        return generate_trace(workload, steps=cfg.steps,
                              nprocs=make_system(cfg).nprocs)
    if tp.content_hash:
        actual = trace_file_hash(tp.source)
        if actual != tp.content_hash:
            raise TraceFormatError(
                f"{tp.source}: content changed since the run was keyed "
                f"(expected sha256 {tp.content_hash[:12]}…, found "
                f"{actual[:12]}…)"
            )
    return read_trace(tp.source)


def replay_trace(
    source,
    config=None,
    scheme: Optional[str] = None,
    *,
    executor=None,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
    strict: bool = False,
):
    """Re-balance a workload trace under ``config``'s system and ``scheme``.

    ``source`` is a trace file path, a ``"synth:<name>"`` generator spec, or
    an in-memory :class:`Trace`.  ``config`` pins the system/traffic/fault
    side of the run (``None`` uses the defaults with ``steps`` taken from
    the trace); its ``app_name``/``domain_cells``/``max_levels`` fields are
    ignored for file traces -- the trace fixes the workload.  File and synth
    sources go through :func:`~repro.harness.experiment.run_experiment`, so
    ``executor`` (worker pools + the content-addressed cache, keyed by the
    trace file's sha256) works exactly as for solver runs; an in-memory
    ``Trace`` always runs in-process and is never cached.

    Returns the replayed :class:`~repro.metrics.RunResult`.
    """
    from ..harness.experiment import ExperimentConfig, _apply_seed, _run, run_experiment

    if scheme is None:
        scheme = "distributed"
    in_memory = isinstance(source, Trace)
    if config is None:
        steps = source.nsteps if in_memory else read_trace(source).nsteps
        config = ExperimentConfig(steps=steps)
    if not in_memory:
        from dataclasses import replace

        from ..config import TraceParams

        cfg = replace(config, trace=TraceParams(source=str(source),
                                                strict=strict))
        return run_experiment(cfg, scheme, executor=executor, tracer=tracer,
                              seed=seed)
    if executor is not None:
        raise ValueError(
            "an in-memory Trace cannot go through an executor; write it "
            "with write_trace() and replay the file instead"
        )
    return _run(_apply_seed(config, seed), scheme, tracer, trace=source,
                strict=strict)
