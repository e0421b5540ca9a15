"""Command-line interface: run experiments without writing Python.

Subcommands
-----------
``run``      one (application, system, scheme) experiment, print its summary
``compare``  both schemes on one pinned configuration, print the verdict
``sweep``    the paper's 1+1 .. 8+8 sweep with improvement/efficiency table
``faults``   paired runs across fault scenarios with resilience metrics
``trace``    run schemes under the tracer, export Chrome trace / JSONL / flame
``record``   run one experiment while recording its workload trace to a file
``replay``   re-balance a recorded (or synthetic) trace, no AMR solver
``route``    serve a request stream: DLB schemes as shard migration policies
``figure``   regenerate one of the paper's figures (fig1 .. fig8)
``cache``    inspect or clear the content-addressed result cache
``serve``    start the long-running job daemon (local JSON API)
``submit``   send an experiment / replay / sweep job to the daemon
``jobs``     list the daemon's jobs, or dump its metrics / trace spans
``cancel``   cancel a queued or running daemon job

Workload traces
---------------
``record`` writes the run's workload signal to ``*.trace.jsonl.gz``;
``replay`` feeds it back through the cluster simulator under any scheme /
system / gamma / fault scenario -- an order of magnitude faster than the
full run, and bit-for-bit identical under the recorded scheme + system.
``--source synth:hotspot`` (or ``synth:bursty`` / ``synth:adversarial``)
replays a generated workload instead.  See docs/TRACES.md.

Observability
-------------
The experiment commands accept ``--trace`` (print a flame summary of every
span after the run) and ``--trace-out PATH`` (also export a Chrome
trace-event JSON, loadable at https://ui.perfetto.dev; implies ``--trace``).
The dedicated ``trace`` subcommand runs one configuration under both (or
one) scheme(s) purely for its trace.  See docs/OBSERVABILITY.md.

Execution engine
----------------
The experiment commands share execution flags (see docs/PERFORMANCE.md):
``--jobs N`` fans independent runs out over N worker processes with
deterministic result ordering; results are cached content-addressed on disk
(default ``.repro_cache``, override with ``--cache-dir``, disable with
``--no-cache``), so repeating a sweep serves it from disk instead of the
simulator.  ``--exec-stats`` prints the per-run execution breakdown and
``--profile`` wraps the command in cProfile and prints the top-20
cumulative hotspots.

Serving daemon
--------------
``serve`` keeps the simulator warm behind a unix socket (or TCP port):
``submit`` sends jobs to it -- same flags as ``run``/``replay`` -- and
streams the result back, bit-for-bit identical to running in-process.
Repeated submissions hit the daemon's shared result cache without
consuming a worker slot.  SIGINT/SIGTERM drains in-flight jobs and exits
cleanly; a second signal force-cancels.  See docs/DAEMON.md.

Examples
--------
    python -m repro run --app shockpool3d --network wan --procs 2 --steps 4
    python -m repro compare --app amr64 --network lan --procs 4
    python -m repro compare --fault slowdown --fault-start 2 --fault-duration 6
    python -m repro sweep --app shockpool3d --configs 1 2 4 --jobs 4
    python -m repro sweep --configs 1 2 4 --jobs 4 --exec-stats   # warm: all hits
    python -m repro faults --procs 2 --steps 6
    python -m repro compare --procs 2 --trace-out pair.json
    python -m repro trace --procs 2 --steps 3 --out trace.json
    python -m repro record --app blastwave --steps 4 --out blast.trace.jsonl.gz
    python -m repro replay blast.trace.jsonl.gz --scheme static --gamma 4
    python -m repro replay synth:adversarial --procs 4 --steps 6
    python -m repro route --scheme distributed --arrivals flash-crowd
    python -m repro route --router ewma --duration 120 --rps 5000 --shards 64
    python -m repro figure fig2
    python -m repro cache --clear
    python -m repro serve --workers 4 &
    python -m repro submit --source synth:hotspot --steps 2
    python -m repro submit --sweep 1 2 4 --no-wait
    python -m repro jobs --metrics
    python -m repro cancel j0003
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .config import ExecParams, FaultParams, TraceParams
from .core.registry import SEQUENTIAL, available_schemes
from .exec import ExecTask, get_default_executor, make_executor, set_default_executor
from .obs import Tracer, flame_summary, write_chrome_trace
from .harness import (
    DEFAULT_SCHEMES,
    FAULT_SWEEP_SCENARIOS,
    ExperimentConfig,
    format_percent,
    format_table,
    run_fault_scenarios,
    run_paired,
    run_sweep,
)

__all__ = ["main", "build_parser"]


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--app", default="shockpool3d",
                   choices=["shockpool3d", "amr64", "blastwave"],
                   help="workload (default: shockpool3d)")
    p.add_argument("--network", default="wan", choices=["wan", "lan", "parallel"],
                   help="system shape (default: wan)")
    p.add_argument("--system", default=None, metavar="SPEC",
                   help="declarative SystemSpec: inline JSON or a path to a "
                        "JSON file; overrides --network/--procs "
                        "(see EXPERIMENTS.md)")
    p.add_argument("--procs", type=int, default=2, metavar="N",
                   help="processors per group, the paper's N+N (default: 2)")
    p.add_argument("--steps", type=int, default=4,
                   help="coarse (level-0) time steps (default: 4)")
    p.add_argument("--domain", type=int, default=16,
                   help="root cells per axis (default: 16)")
    p.add_argument("--levels", type=int, default=3,
                   help="maximum refinement levels (default: 3)")
    p.add_argument("--traffic", default="constant",
                   choices=["none", "constant", "diurnal", "bursty"],
                   help="background-traffic model (default: constant)")
    p.add_argument("--traffic-level", type=float, default=0.3,
                   help="background occupancy level (default: 0.3)")
    p.add_argument("--gamma", type=float, default=2.0,
                   help="gain/cost gate factor (default: 2.0, as in the paper)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the result(s) to PATH as JSON")
    fg = p.add_argument_group("fault injection")
    fg.add_argument("--fault", default="none",
                    choices=list(FAULT_SWEEP_SCENARIOS),
                    help="fault scenario to inject (default: none)")
    fg.add_argument("--fault-group", type=int, default=1, metavar="G",
                    help="group the fault targets (default: 1)")
    fg.add_argument("--fault-start", type=float, default=2.0, metavar="T",
                    help="fault window start, simulated seconds (default: 2)")
    fg.add_argument("--fault-duration", type=float, default=6.0, metavar="D",
                    help="fault window length, simulated seconds (default: 6)")
    fg.add_argument("--fault-severity", type=float, default=4.0, metavar="F",
                    help="slowdown factor of the affected resource (default: 4)")
    fg.add_argument("--fault-seed", type=int, default=0,
                    help="seed for stochastic fault load models (default: 0)")


def _arrival_preset_names() -> List[str]:
    from .service import available_arrival_presets

    return available_arrival_presets()


def _router_policy_names() -> List[str]:
    from .service import available_router_policies

    return available_router_policies()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_exec_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("execution engine")
    g.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes for independent runs (default: 1, "
                        "serial; results are identical either way)")
    g.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory "
                        "(default: $REPRO_CACHE_DIR or .repro_cache)")
    g.add_argument("--no-cache", action="store_true",
                   help="do not read or write the result cache")
    g.add_argument("--exec-stats", action="store_true",
                   help="print the per-run execution breakdown table")
    g.add_argument("--profile", action="store_true",
                   help="profile the command (cProfile) and print the "
                        "top-20 cumulative hotspots")


def _add_connect_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("daemon endpoint")
    g.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket of the daemon (default: "
                        "$REPRO_SERVE_SOCKET or .repro-serve.sock)")
    g.add_argument("--host", default=None, metavar="HOST",
                   help="listen on / connect to TCP instead of the unix "
                        "socket")
    g.add_argument("--port", type=int, default=0, metavar="PORT",
                   help="TCP port (with --host; default: 0 = ephemeral "
                        "for serve)")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument("--trace", action="store_true",
                   help="trace every run and print a flame summary")
    g.add_argument("--trace-out", default=None, metavar="PATH",
                   help="export the spans as Chrome trace-event JSON to PATH "
                        "(implies --trace; load at https://ui.perfetto.dev)")


def _tracer_from(args: argparse.Namespace) -> Optional[Tracer]:
    """The command's tracer, or ``None`` when tracing was not requested."""
    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        return Tracer()
    return None


def _finish_trace(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    """Print the flame summary and export the Chrome trace, as requested."""
    if tracer is None:
        return
    print()
    print(flame_summary(tracer.records()))
    out = getattr(args, "trace_out", None)
    if out:
        write_chrome_trace(tracer.records(), out)
        print(f"\n{tracer.record_count} spans written to {out} "
              "(chrome trace-event format)")


def _run_one(cfg: ExperimentConfig, args: argparse.Namespace):
    """Run ``args.scheme`` on ``cfg`` as one task of the default executor.

    Returns ``(result, tracer)``; the tracer (``None`` unless tracing was
    requested) holds the run's spans.  ``--timeline`` needs the event log
    and ``--trace`` the spans, neither of which a cache hit can provide, so
    either makes the task execute; the fresh result is still written back
    to the cache for other commands.
    """
    tracer = _tracer_from(args)
    trace = tracer is not None
    task = ExecTask(cfg, args.scheme, trace=trace,
                    use_cache=not (getattr(args, "timeline", False) or trace))
    result = get_default_executor().run_tasks([task])[0]
    if trace and result.spans:
        tracer.extend(result.spans)
    return result, tracer


def _finish_run(result, tracer: Optional[Tracer], args: argparse.Namespace) -> int:
    """Print ``--timeline``, write ``--json`` and export the trace, as
    requested."""
    if getattr(args, "timeline", False):
        from .harness import render_step_timeline

        print()
        print(render_step_timeline(result.events))
    if args.json:
        from .harness import save_run

        save_run(result, args.json)
        print(f"result written to {args.json}")
    _finish_trace(tracer, args)
    return 0


def _exec_params_from(args: argparse.Namespace) -> ExecParams:
    return ExecParams(
        jobs=getattr(args, "jobs", 1),
        use_cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
    )


class _FlagError(ValueError):
    """A flag value a config rejects; :func:`main` prints it as
    ``error: ...`` and exits 2."""


def _fault_from(args: argparse.Namespace) -> Optional[FaultParams]:
    if args.fault == "none":
        return None
    return FaultParams(
        scenario=args.fault,
        group=args.fault_group,
        start=args.fault_start,
        duration=args.fault_duration,
        severity=args.fault_severity,
        seed=args.fault_seed,
    )


def _system_from(args: argparse.Namespace):
    """Parse ``--system``: inline JSON or a path to a JSON file."""
    import json
    from pathlib import Path

    from .distsys import SystemSpec

    text = getattr(args, "system", None)
    if text is None:
        return None
    raw = text.strip()
    if not raw.startswith("{"):
        raw = Path(text).read_text()
    return SystemSpec.from_dict(json.loads(raw))


def _trace_from(args: argparse.Namespace) -> Optional[TraceParams]:
    """The trace a replay's ``source`` and generator flags describe."""
    source = getattr(args, "source", None)
    if source is None:
        return None
    return TraceParams(source=source, seed=args.seed,
                       intensity=args.intensity, strict=args.strict)


def _config_from(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """The experiment config a command's flags describe, plus ``fields``.

    Every command that runs something builds its config here, so a flag
    value a config rejects (NaN, out of range, a malformed ``--system``)
    raises :class:`_FlagError` here whatever the command.
    """
    try:
        return ExperimentConfig(
            app_name=args.app,
            network=args.network,
            procs_per_group=args.procs,
            steps=args.steps,
            domain_cells=args.domain,
            max_levels=args.levels,
            traffic_kind=args.traffic,
            traffic_level=args.traffic_level,
            gamma=args.gamma,
            fault=_fault_from(args),
            trace=_trace_from(args),
            system=_system_from(args),
            **fields,
        )
    except ValueError as err:
        raise _FlagError(str(err)) from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAMR distributed-DLB reproduction (Lan/Taylor/Bryan, SC'01)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_experiment_args(p_run)
    _add_exec_args(p_run)
    _add_trace_args(p_run)
    # choices come from the registry: any scheme registered (built-in or
    # user-supplied) is runnable by name, plus the E(1) pseudo-scheme
    p_run.add_argument("--scheme", default="distributed",
                       choices=[*available_schemes(), SEQUENTIAL],
                       help="DLB scheme (default: distributed)")
    p_run.add_argument("--timeline", action="store_true",
                       help="print the per-coarse-step activity table")

    p_cmp = sub.add_parser("compare", help="run both schemes, report improvement")
    _add_experiment_args(p_cmp)
    _add_exec_args(p_cmp)
    _add_trace_args(p_cmp)

    p_sweep = sub.add_parser("sweep", help="paired sweep over configurations")
    _add_experiment_args(p_sweep)
    _add_exec_args(p_sweep)
    _add_trace_args(p_sweep)
    p_sweep.add_argument("--configs", type=int, nargs="+", default=[1, 2, 4, 6, 8],
                         metavar="N", help="processors per group (default: 1 2 4 6 8)")
    p_sweep.add_argument("--efficiency", action="store_true",
                         help="also run the sequential reference for Fig. 8 style output")

    p_faults = sub.add_parser(
        "faults", help="paired runs across fault scenarios, resilience table"
    )
    _add_experiment_args(p_faults)
    _add_exec_args(p_faults)
    _add_trace_args(p_faults)
    p_faults.add_argument(
        "--scenarios", nargs="+", default=list(FAULT_SWEEP_SCENARIOS),
        choices=list(FAULT_SWEEP_SCENARIOS), metavar="S",
        help="scenarios to run (default: all, with 'none' as control)")

    p_trace = sub.add_parser(
        "trace", help="run under the tracer and export the spans"
    )
    _add_experiment_args(p_trace)
    _add_exec_args(p_trace)
    p_trace.add_argument("--scheme", default="both",
                         choices=["both", *available_schemes()],
                         help="scheme(s) to trace ('both' is the paper's "
                              "parallel+distributed pair; default: both)")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="output file (default: trace.json)")
    p_trace.add_argument("--format", default="chrome",
                         choices=["chrome", "jsonl", "flame"],
                         help="chrome trace-event JSON (Perfetto-loadable), "
                              "span-per-line JSONL, or the text flame "
                              "summary (default: chrome)")

    p_rec = sub.add_parser(
        "record", help="run one experiment, record its workload trace"
    )
    _add_experiment_args(p_rec)
    _add_trace_args(p_rec)
    p_rec.add_argument("--scheme", default="distributed",
                       choices=available_schemes(),
                       help="DLB scheme for the recorded run "
                            "(default: distributed)")
    p_rec.add_argument("--out", default=None, metavar="PATH",
                       help="trace file to write (default: "
                            "<app>.trace.jsonl.gz)")

    p_replay = sub.add_parser(
        "replay", help="re-balance a recorded or synthetic workload trace"
    )
    p_replay.add_argument("source", metavar="SOURCE",
                          help="trace file (*.trace.jsonl.gz) or synthetic "
                               "generator reference 'synth:<name>'")
    _add_experiment_args(p_replay)
    _add_exec_args(p_replay)
    _add_trace_args(p_replay)
    # replay covers the whole trace unless --steps caps it; the app/domain/
    # levels flags are ignored (the trace pins the workload)
    p_replay.set_defaults(steps=None)
    p_replay.add_argument("--scheme", default="distributed",
                          choices=available_schemes(),
                          help="DLB scheme to replay under "
                               "(default: distributed)")
    p_replay.add_argument("--strict", action="store_true",
                          help="cross-check recorded workloads against the "
                               "replayed hierarchy (same-scheme replays only)")
    p_replay.add_argument("--seed", type=int, default=0,
                          help="synthetic generator seed (default: 0)")
    p_replay.add_argument("--intensity", type=float, default=1.0,
                          help="synthetic workload intensity (default: 1.0)")
    p_replay.add_argument("--timeline", action="store_true",
                          help="print the per-coarse-step activity table")

    p_route = sub.add_parser(
        "route",
        help="serve a request stream: DLB schemes as shard migration policies",
    )
    _add_experiment_args(p_route)
    _add_exec_args(p_route)
    _add_trace_args(p_route)
    p_route.add_argument("--scheme", default="distributed",
                         choices=[*available_schemes(), SEQUENTIAL],
                         help="shard migration scheme (default: distributed)")
    sg = p_route.add_argument_group("serving workload")
    sg.add_argument("--shards", type=_positive_int, default=32, metavar="S",
                    help="number of shards (default: 32)")
    sg.add_argument("--replication", type=_positive_int, default=2, metavar="R",
                    help="replicas per shard, within the primary's group "
                         "(default: 2)")
    sg.add_argument("--rps", type=float, default=2000.0, metavar="RATE",
                    help="aggregate request rate at traffic saturation "
                         "(default: 2000)")
    sg.add_argument("--service-rate", type=float, default=150.0, metavar="MU",
                    help="requests/second one nominal processor serves "
                         "(default: 150)")
    sg.add_argument("--duration", type=float, default=60.0, metavar="SECONDS",
                    help="simulated serving time (default: 60)")
    sg.add_argument("--arrivals", default="flash-crowd",
                    choices=_arrival_preset_names(),
                    help="arrival-shape preset (default: flash-crowd)")
    sg.add_argument("--arrival-seed", type=int, default=0,
                    help="seed of the arrival process (default: 0)")
    sg.add_argument("--router", default="round-robin",
                    choices=_router_policy_names(),
                    help="replica-selection policy (default: round-robin)")
    sg.add_argument("--router-seed", type=int, default=0,
                    help="seed of sampling routers (default: 0)")
    sg.add_argument("--zipf", type=float, default=1.1, metavar="S",
                    help="key-popularity Zipf exponent, 0 = uniform "
                         "(default: 1.1)")
    sg.add_argument("--balance-every", type=float, default=10.0,
                    metavar="SECONDS",
                    help="balance-point interval (default: 10)")
    sg.add_argument("--slo-ms", type=float, default=250.0, metavar="MS",
                    help="latency objective (default: 250)")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name",
                       choices=[f"fig{i}" for i in range(1, 9)],
                       help="which figure to regenerate")
    _add_exec_args(p_fig)

    p_topo = sub.add_parser(
        "topology",
        help="describe a system's network topology (text or Graphviz DOT)",
    )
    p_topo.add_argument("--system", default=None, metavar="SPEC",
                        help="SystemSpec as inline JSON or a path to a JSON "
                             "file (default: the paper's two-site WAN testbed)")
    p_topo.add_argument("--dot", action="store_true",
                        help="emit Graphviz DOT instead of the text description")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or .repro_cache)")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached result")

    p_serve = sub.add_parser(
        "serve", help="start the long-running job daemon"
    )
    _add_connect_args(p_serve)
    p_serve.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                         help="worker processes, the max jobs executing "
                              "concurrently (default: 2)")
    p_serve.add_argument("--queue-size", type=_positive_int, default=16,
                         metavar="N",
                         help="bounded queue capacity; submissions past it "
                              "get the typed queue_full rejection "
                              "(default: 16)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result cache shared with the batch commands "
                              "(default: $REPRO_CACHE_DIR or .repro_cache)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the result cache (every job "
                              "executes fresh)")

    p_submit = sub.add_parser(
        "submit", help="send one experiment / replay / sweep job to the daemon"
    )
    _add_experiment_args(p_submit)
    _add_connect_args(p_submit)
    # no steps given: 4 for experiments and synthetic traces, the full
    # trace for file replays (same rule as `repro replay`)
    p_submit.set_defaults(steps=None)
    p_submit.add_argument("--scheme", default="distributed",
                          choices=[*available_schemes(), SEQUENTIAL],
                          help="DLB scheme (default: distributed)")
    p_submit.add_argument("--source", default=None, metavar="SOURCE",
                          help="make it a trace-replay job: a trace file "
                               "(*.trace.jsonl.gz) or 'synth:<name>'")
    p_submit.add_argument("--seed", type=int, default=0,
                          help="synthetic generator seed (default: 0)")
    p_submit.add_argument("--intensity", type=float, default=1.0,
                          help="synthetic workload intensity (default: 1.0)")
    p_submit.add_argument("--strict", action="store_true",
                          help="cross-check recorded workloads on replay")
    p_submit.add_argument("--sweep", type=_positive_int, nargs="+", default=None,
                          metavar="N",
                          help="make it a sweep job over these processors "
                               "per group (server-side fan-out)")
    p_submit.add_argument("--sweep-schemes", nargs="+",
                          default=list(DEFAULT_SCHEMES),
                          choices=available_schemes(), metavar="S",
                          help="schemes of a --sweep job "
                               "(default: parallel distributed)")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority, lower runs first (default: 0)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job id and return instead of "
                               "streaming the result")
    p_submit.add_argument("--no-cache", action="store_true",
                          help="skip the daemon's result cache for this job")

    p_jobs = sub.add_parser(
        "jobs", help="list the daemon's jobs / metrics / trace spans"
    )
    _add_connect_args(p_jobs)
    p_jobs.add_argument("--metrics", action="store_true",
                        help="print the live metrics (Prometheus text) "
                             "instead of the job table")
    p_jobs.add_argument("--spans", default=None, metavar="PATH",
                        help="write the traced jobs' spans to PATH as "
                             "Chrome trace-event JSON (one track per job)")

    p_cancel = sub.add_parser("cancel", help="cancel a daemon job")
    p_cancel.add_argument("job_id", metavar="JOB_ID",
                          help="job to cancel (as printed by submit/jobs)")
    _add_connect_args(p_cancel)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    result, tracer = _run_one(_config_from(args), args)
    print(result.summary())
    return _finish_run(result, tracer, args)


def _cmd_compare(args: argparse.Namespace) -> int:
    tracer = _tracer_from(args)
    pair = run_paired(_config_from(args), tracer=tracer)
    print(pair.parallel.summary())
    print()
    print(pair.distributed.summary())
    print()
    print(
        f"distributed DLB vs parallel DLB: {format_percent(pair.improvement)} "
        f"improvement ({pair.parallel.total_time:.3f}s -> "
        f"{pair.distributed.total_time:.3f}s)"
    )
    _finish_trace(tracer, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    tracer = _tracer_from(args)
    try:
        sweep = run_sweep(_config_from(args), procs_per_group=tuple(args.configs),
                          with_sequential=args.efficiency, tracer=tracer)
    except ValueError as err:  # a --system spec: the sweep varies --configs
        print(f"error: {err}")
        return 2
    rows = []
    for p in sweep.pairs:
        row: List[object] = [
            p.config.label,
            p.parallel.total_time,
            p.distributed.total_time,
            format_percent(p.improvement),
        ]
        if args.efficiency:
            row.extend([f"{p.parallel_efficiency:.3f}",
                        f"{p.distributed_efficiency:.3f}"])
        rows.append(tuple(row))
    headers = ["config", "parallel [s]", "distributed [s]", "improvement"]
    if args.efficiency:
        headers.extend(["eff (par)", "eff (dist)"])
    print(format_table(headers, rows, title=f"{args.app} on {args.network}"))
    print(f"average improvement: {format_percent(sweep.average_improvement)}")
    if args.json:
        from .harness import save_sweep

        save_sweep(sweep, args.json)
        print(f"sweep written to {args.json}")
    _finish_trace(tracer, args)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import resilience_report

    # the window/severity flags form a template fault; each scenario swaps
    # only its kind ("none" rows drop it entirely)
    args.fault = "slowdown"
    cfg = _config_from(args)
    tracer = _tracer_from(args)
    results = run_fault_scenarios(cfg, scenarios=tuple(args.scenarios),
                                  tracer=tracer)
    rows = []
    for name, pair in results.items():
        rep = resilience_report(pair.distributed.events)
        ttr = rep.mean_time_to_rebalance
        rows.append(
            (
                name,
                pair.parallel.total_time,
                pair.distributed.total_time,
                format_percent(pair.improvement),
                pair.distributed.redistributions,
                f"{ttr:.3f}s" if ttr is not None else "-",
            )
        )
    headers = ["scenario", "parallel [s]", "distributed [s]", "improvement",
               "redistr", "t-rebalance"]
    print(format_table(
        headers, rows,
        title=f"{args.app} on {args.network}, fault severity "
              f"{args.fault_severity:g}x over [{args.fault_start:g}, "
              f"{args.fault_start + args.fault_duration:g})s",
    ))
    if args.json:
        from .harness import save_fault_scenarios

        save_fault_scenarios(results, args.json)
        print(f"results written to {args.json}")
    _finish_trace(tracer, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import write_span_jsonl

    tracer = Tracer()
    cfg = _config_from(args)
    schemes = (list(DEFAULT_SCHEMES) if args.scheme == "both"
               else [args.scheme])
    tasks = [ExecTask(cfg, scheme, use_cache=False, trace=True)
             for scheme in schemes]
    results = get_default_executor().run_tasks(tasks)
    for result in results:
        if result.spans:
            tracer.extend(result.spans)
        print(result.summary())
        print()
    print(flame_summary(tracer.records()))
    if args.format == "chrome":
        write_chrome_trace(tracer.records(), args.out)
        note = "chrome trace-event format; load at https://ui.perfetto.dev"
    elif args.format == "jsonl":
        write_span_jsonl(tracer.records(), args.out)
        note = "one span per line"
    else:
        from pathlib import Path

        Path(args.out).write_text(flame_summary(tracer.records()) + "\n")
        note = "text flame summary"
    print(f"\n{tracer.record_count} spans written to {args.out} ({note})")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .traces import record_run

    tracer = _tracer_from(args)
    out = args.out or f"{args.app}.trace.jsonl.gz"
    result, trace = record_run(_config_from(args), args.scheme, out=out,
                               tracer=tracer)
    print(result.summary())
    print()
    print(f"trace written to {out}")
    print(f"  {trace.describe()}")
    _finish_trace(tracer, args)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .traces import TraceFormatError, TraceReplayError, default_replay_steps

    if args.steps is None:
        try:
            args.steps = default_replay_steps(args.source)
        except TraceFormatError as err:
            print(f"error: {err}")
            return 2
    cfg = _config_from(args)
    try:
        result, tracer = _run_one(cfg, args)
    except (TraceFormatError, TraceReplayError, ValueError) as err:
        # TraceFormatError: corrupt / stale trace file; TraceReplayError:
        # desync or a --strict divergence; ValueError: an unknown synthetic
        # workload name or overlapping recorded cluster boxes
        print(f"error: {err}")
        return 2
    print(result.summary())
    return _finish_run(result, tracer, args)


def _cmd_route(args: argparse.Namespace) -> int:
    from .service import ServiceReport, format_service_report

    # a plain dict: the config builds (and checks) the ServiceConfig
    svc = dict(
        nshards=args.shards,
        replication=args.replication,
        requests_per_second=args.rps,
        service_rate=args.service_rate,
        duration_seconds=args.duration,
        arrivals=args.arrivals,
        arrival_seed=args.arrival_seed,
        zipf_exponent=args.zipf,
        router=args.router,
        router_seed=args.router_seed,
        balance_every_seconds=args.balance_every,
        slo_ms=args.slo_ms,
    )
    result, tracer = _run_one(_config_from(args, service=svc), args)
    report = ServiceReport.from_run(result)
    print(format_service_report(report))
    print(f"  report hash {report.hash}")
    return _finish_run(result, tracer, args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from .exec import ResultCache

    try:
        cache = ResultCache(args.cache_dir)
    except ValueError as err:
        print(f"error: {err}")
        return 2
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.cache_dir}")
        return 0
    print(f"cache dir: {cache.cache_dir}")
    print(f"entries:   {cache.entry_count()}")
    print(f"bytes:     {cache.total_bytes()}")
    lifetime = cache.lifetime_metrics()
    if any(lifetime.values()):
        print("lifetime executor metrics (all processes using this cache dir):")
        for name in sorted(lifetime):
            print(f"  {name}: {lifetime[name]}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    import json

    from .distsys import SystemSpec, build_system, wan_spec

    try:
        spec = _system_from(args)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}")
        return 2
    if spec is None:
        spec = wan_spec(2)
    # round-trip validation: the spec must survive its own JSON form
    restored = SystemSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    if restored != spec:
        print("error: SystemSpec does not round-trip through its JSON form")
        return 2
    system = build_system(spec)
    topo = system.topology
    # determinism check: an independent rebuild must yield the same routes
    if build_system(spec).topology.route_table() != topo.route_table():
        print("error: route table differs across rebuilds (nondeterministic)")
        return 2
    if args.dot:
        print(topo.to_dot())
        return 0
    print(system.describe())
    print()
    npairs = sum(1 for (a, b) in topo.route_table() if a < b)
    print(f"validated: spec round-trips, route table deterministic "
          f"({npairs} group pair(s))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .daemon import ServeServer

    try:
        server = ServeServer(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    except ValueError as err:
        print(f"error: {err}")
        return 2
    return asyncio.run(server.run())


def _serve_client(args: argparse.Namespace):
    from .daemon import ServeClient

    return ServeClient(socket_path=args.socket, host=args.host,
                       port=args.port)


def _daemon_unreachable(args: argparse.Namespace, err: OSError) -> int:
    where = (f"{args.host}:{args.port}" if args.host
             else args.socket or "the default socket")
    print(f"error: cannot reach the serve daemon at {where} ({err}); "
          "is `repro serve` running?")
    return 2


def _cmd_submit(args: argparse.Namespace) -> int:
    from .daemon import ServeError

    if args.source is not None:
        from .traces import TraceFormatError, default_replay_steps

        if args.steps is None:
            try:
                args.steps = default_replay_steps(args.source)
            except TraceFormatError as err:
                print(f"error: {err}")
                return 2
    elif args.steps is None:
        args.steps = 4
    cfg = _config_from(args)
    client = _serve_client(args)
    try:
        if args.sweep is not None:
            out = client.submit_sweep(
                cfg, procs=args.sweep, schemes=tuple(args.sweep_schemes),
                priority=args.priority, use_cache=not args.no_cache,
                wait=not args.no_wait)
        else:
            out = client.submit(
                cfg, scheme=args.scheme, priority=args.priority,
                use_cache=not args.no_cache, wait=not args.no_wait)
    except ServeError as err:
        print(f"error ({err.code}): {err.message}")
        return 1
    except OSError as err:
        return _daemon_unreachable(args, err)
    if args.no_wait:
        print(f"submitted {out} (repro jobs to watch, "
              f"repro cancel {out} to stop)")
        return 0
    return _print_job_result(out, args)


def _print_job_result(res, args: argparse.Namespace) -> int:
    """Render a finished job; nonzero for failed/cancelled."""
    if res.status != "done":
        detail = (f": {res.error['message']}" if res.error else "")
        print(f"job {res.job_id} {res.status}{detail}")
        return 1
    marker = " (cache hit)" if res.cached else ""
    if res.runs is not None:  # sweep parent
        rows = [
            (f"{r['procs']}+{r['procs']}", r["scheme"],
             f"{r['run']['total_time']:.3f}", "hit" if r["cached"] else "run")
            for r in res.runs
        ]
        print(format_table(
            ["config", "scheme", "total [s]", "cache"], rows,
            title=f"sweep {res.job_id}{marker}"))
        return 0
    result = res.result()
    print(result.summary())
    print(f"\njob {res.job_id} done{marker}")
    if args.json:
        from .harness import save_run

        save_run(result, args.json)
        print(f"result written to {args.json}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    try:
        if args.metrics:
            print(client.metrics_text(), end="")
            return 0
        if args.spans:
            import json as _json

            trace = client.spans()
            with open(args.spans, "w") as fh:
                _json.dump(trace, fh, indent=2, sort_keys=True)
            njobs = len(trace.get("otherData", {}).get("jobs", []))
            print(f"spans of {njobs} traced job(s) written to {args.spans} "
                  "(chrome trace-event format)")
            return 0
        state = client.state()
        jobs = client.jobs()
    except OSError as err:
        return _daemon_unreachable(args, err)
    workers = state["workers"]
    queue = state["queue"]
    drain = " [draining]" if state["draining"] else ""
    print(f"workers {workers['busy']}/{workers['total']} busy, "
          f"queue {queue['depth']}/{queue['capacity']}{drain}")
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        (j["job_id"], j["kind"], j["client"], j["scheme"],
         str(j["priority"]), j["status"],
         "hit" if j["cached"] else ("-" if j["kind"] == "sweep" else "run"))
        for j in jobs
    ]
    print(format_table(
        ["job", "kind", "client", "scheme", "prio", "status", "cache"], rows))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .daemon import ServeError

    client = _serve_client(args)
    try:
        status = client.cancel(args.job_id)
    except ServeError as err:
        print(f"error ({err.code}): {err.message}")
        return 1
    except OSError as err:
        return _daemon_unreachable(args, err)
    print(f"job {args.job_id}: {status}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .harness import figures

    fn = {
        "fig1": figures.fig1_hierarchy,
        "fig2": figures.fig2_integration_order,
        "fig3": figures.fig3_parallel_vs_distributed,
        "fig4": figures.fig4_flowchart_trace,
        "fig5": figures.fig5_balance_points,
        "fig6": figures.fig6_global_redistribution,
        "fig7": figures.fig7_execution_time,
        "fig8": figures.fig8_efficiency,
    }[args.name]
    print(fn().render())
    return 0


def _run_profiled(fn, args: argparse.Namespace) -> int:
    """Run ``fn(args)`` under cProfile; print the top-20 cumulative hotspots."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    rc = profiler.runcall(fn, args)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(20)
    print()
    print("profile (top 20 by cumulative time)")
    print(stream.getvalue().rstrip())
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _FlagError as err:
        print(f"error: {err}")
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command under its executor."""
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "faults": _cmd_faults,
        "trace": _cmd_trace,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "route": _cmd_route,
        "figure": _cmd_figure,
        "topology": _cmd_topology,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "cancel": _cmd_cancel,
    }
    handler = handlers[args.command]
    # commands that never execute runs in-process skip the executor setup:
    # cache only touches disk, topology just describes a spec, and the
    # serve family talks to the daemon (or IS the daemon, which owns its
    # own worker pool)
    if args.command in ("topology", "cache", "serve", "submit", "jobs",
                        "cancel"):
        return handler(args)

    # install the command's executor as the session default so every
    # harness call -- including the ones inside figure benches -- submits
    # through it; restore the previous default afterwards (tests call
    # main() repeatedly in one process)
    try:
        executor = make_executor(_exec_params_from(args))
    except ValueError as err:
        print(f"error: {err}")
        return 2
    previous = set_default_executor(executor)
    try:
        if getattr(args, "profile", False):
            rc = _run_profiled(handler, args)
        else:
            rc = handler(args)
    finally:
        set_default_executor(previous)
    stats = executor.stats
    if rc == 0 and stats is not None and stats.ntasks:
        print()
        if getattr(args, "exec_stats", False):
            from .harness import exec_stats_table

            print(exec_stats_table(stats))
        else:
            print(stats.summary())
    return rc
