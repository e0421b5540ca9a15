"""The serving event loop: ticks, queues, routers and balance points.

:func:`simulate_service` is the service-side analogue of the SAMR runner:
a deterministic discrete-event loop that serves a request stream against
shards placed on a :class:`~repro.distsys.system.DistributedSystem`.  Each
tick it

1. draws per-shard Poisson arrivals (traffic-shaped rate, Zipf key skew),
2. lets the configured :class:`~repro.service.router.RouterPolicy` split
   each shard's requests across its replicas,
3. serves every processor's batch through a fluid FIFO queue -- request
   ``j`` of a tick arrives ``j/n`` of the way in, departs when the
   backlog ahead of it has drained at the processor's *effective* service
   rate (nominal speed x availability, so CPU faults and dropout windows
   stretch exactly the ticks that overlap them), and its latency also
   carries the inter-group route time when the replica sits outside the
   gateway group plus the in-flight stall when its shard is mid-migration,
4. accumulates latencies into a fixed log-bucket histogram.

At each balance interval the observed per-shard work goes to the
:class:`~repro.service.migration.MigrationEngine`, which runs the DLB
scheme's own hooks unchanged; migrations are priced by the cluster
simulator over topology routes and degrade the moved shards while the
state transfer is in flight.

Unit discipline: one *request* is ``mean(speed) / service_rate`` work
units, so a processor's requests/second equals its work-units/second
divided by work-per-request -- the scheme's gain (seconds of imbalance
removed) and cost (seconds of state transfer) stay in the same currency
they have in an AMR run.

Every random draw is a counter-based Philox hash of ``(seed, tick)``:
same config + seed => bit-identical report, in process, across executor
workers, and under the serving daemon.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

import numpy as np

from ..config import ServiceConfig
from ..core.registry import make_scheme
from ..distsys.events import FaultEvent
from ..distsys.simulator import ClusterSimulator
from ..metrics.timing import RunResult
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from .arrivals import RequestArrivals, ZipfPopularity, make_arrival_model
from .migration import MigrationEngine
from .report import LatencyHistogram, ServiceReport
from .router import RouterState, make_router_policy
from .shards import ShardMap, build_shard_hierarchy

__all__ = ["simulate_service"]

#: decorrelates the Poisson count stream from the traffic models' draws,
#: which hash the same user seed with tick-scale counters
_COUNT_STREAM_OFFSET = 1_000_000_007

#: effective service-rate floor (requests/second): a dropped-out processor
#: keeps a vanishing residual rate so latencies stay finite (and land in
#: the histogram's overflow bucket) instead of dividing by zero
_MIN_RATE = 1e-9


def simulate_service(
    config,
    scheme: str = "distributed",
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    system=None,
) -> RunResult:
    """Run the serving simulator for ``config.service`` under ``scheme``.

    ``config`` is an :class:`~repro.harness.experiment.ExperimentConfig`
    whose ``service`` field is set; the system, traffic weather and fault
    schedule come from the ordinary harness factories, so a paired
    comparison of migration schemes sees identical weather -- and a
    ``dropout`` fault scenario is a replica dropout: the affected
    processors' effective service rate collapses for the window.

    ``system`` overrides the config-built system (the sequential
    reference runs the same workload on one processor).  Returns a
    :class:`~repro.metrics.timing.RunResult` whose ``service`` field
    carries the :class:`~repro.service.report.ServiceReport` dict.
    """
    svc: ServiceConfig = config.service
    if svc is None:
        raise ValueError("config.service is not set")
    # function-level import: the harness imports repro.service for dispatch
    from ..harness.experiment import make_faults, make_system

    trc = tracer if tracer is not None else NULL_TRACER
    schedule = make_faults(config)
    if system is None:
        system = make_system(config)
    if schedule is not None:
        system = schedule.apply(system)
    if svc.gateway_group >= system.ngroups:
        raise ValueError(
            f"gateway_group {svc.gateway_group} out of range "
            f"for {system.ngroups} group(s)"
        )
    sim = ClusterSimulator(system, fault_schedule=schedule, tracer=trc)
    trc.bind_clock(lambda: sim.clock)

    scheme_obj = make_scheme(scheme)
    hierarchy = build_shard_hierarchy(svc.nshards, svc.shard_side)
    shard_map = ShardMap(hierarchy, system, svc.replication)
    engine = MigrationEngine(
        shard_map, sim, scheme_obj,
        config.sim_params, config.effective_scheme_params(), tracer=trc,
    )
    engine.initial_placement()

    popularity = ZipfPopularity(
        (svc.nshards * svc.shard_side, svc.shard_side),
        exponent=svc.zipf_exponent, seed=svc.zipf_seed,
    )
    arrivals = RequestArrivals(
        make_arrival_model(svc.arrivals, svc.arrival_seed),
        svc.requests_per_second, svc.tick_seconds,
        seed=svc.arrival_seed + _COUNT_STREAM_OFFSET,
    )
    router = make_router_policy(
        svc.router, seed=svc.router_seed, warmup_ticks=svc.warmup_ticks,
    )
    nprocs = system.nprocs
    router.reset(nprocs)
    state = RouterState(nprocs)

    # calibration: requests <-> work units (see module docstring)
    speeds = np.asarray(system.speed_by_pid, dtype=np.float64)
    mean_speed = float(speeds.mean())
    work_per_request = mean_speed / svc.service_rate
    rate_scale = svc.service_rate / mean_speed  # rate = speed * avail * this
    pid_group = np.asarray(system.pid_groups, dtype=np.int64)

    dt = svc.tick_seconds
    nticks = svc.nticks
    slo_seconds = svc.slo_ms / 1e3
    stall_seconds = svc.migration_stall_ms / 1e3

    hist = LatencyHistogram()
    backlog = np.zeros(nprocs, dtype=np.float64)
    total_requests = 0
    slo_violations = 0
    stalled_requests = 0
    migrations = 0
    migration_bytes = 0.0
    migration_stall_total = 0.0
    queue_depth_max = 0.0
    requests_by_gid: Dict[int, int] = {}

    # shard-order caches, refreshed after every balance point (placement,
    # and under splits the shard set itself, change only there)
    gids = shard_map.gids
    shares = popularity.shard_shares(shard_map.boxes())
    rep_pids, rep_mask = shard_map.replica_matrix()
    interval_shard_requests = np.zeros(len(gids), dtype=np.int64)
    interval_pid_requests = np.zeros(nprocs, dtype=np.float64)
    stall_until = -1.0
    stalled = np.zeros(len(gids), dtype=bool)

    with trc.span("service", scheme=scheme_obj.name, router=svc.router,
                  arrivals=svc.arrivals):
        for tick in range(nticks):
            t = tick * dt

            # ---------------------------------------------------- balance
            if tick > 0 and tick % svc.balance_every_ticks == 0:
                _add_shard_requests(requests_by_gid, gids,
                                    interval_shard_requests)
                work_by_shard = interval_shard_requests * work_per_request
                per_pid_work = interval_pid_requests * work_per_request
                with trc.span("service-balance", time=t) as span:
                    outcome = engine.balance(
                        t, work_by_shard, per_pid_work,
                        interval=svc.balance_every_ticks * dt,
                    )
                    span.set_attributes(moves=outcome.migrations,
                                        bytes=outcome.bytes_moved,
                                        duration=outcome.duration)
                migrations += outcome.migrations
                migration_bytes += outcome.bytes_moved
                migration_stall_total += outcome.duration
                stall_until = t + outcome.duration
                if not np.array_equal(shard_map.gids, gids):
                    # a gid's box is fixed at creation and gids are never
                    # reused, so the shares move only when a split does
                    gids = shard_map.gids
                    shares = popularity.shard_shares(shard_map.boxes())
                rep_pids, rep_mask = shard_map.replica_matrix()
                stalled = np.isin(gids, list(outcome.moves))
                interval_shard_requests = np.zeros(len(gids), dtype=np.int64)
                interval_pid_requests = np.zeros(nprocs, dtype=np.float64)

            # ---------------------------------------------------- arrivals
            counts = arrivals.counts_for_tick(tick, shares)
            total_requests += int(counts.sum())
            interval_shard_requests += counts

            # ---------------------------------------------------- routing
            state.tick = tick
            alloc = router.route_tick(counts, rep_pids, rep_mask, state)

            # per-group network latency at this tick's weather
            net_by_group = np.zeros(system.ngroups, dtype=np.float64)
            for g in range(system.ngroups):
                if g != svc.gateway_group:
                    route = system.route_between(svc.gateway_group, g)
                    net_by_group[g] = route.transfer_time(svc.request_bytes, t)

            # ---------------------------------------------------- serving
            avail = np.fromiter(
                (system.processor(p).availability(t) for p in range(nprocs)),
                dtype=np.float64, count=nprocs,
            )
            mu = np.maximum(speeds * avail * rate_scale, _MIN_RATE)
            served = serve_tick(
                alloc, rep_pids, net_by_group[pid_group],
                stalled if t < stall_until else None, stall_seconds,
                backlog, mu, dt, hist=hist, ewma_latency=state.ewma_latency,
                ewma_alpha=svc.ewma_alpha, slo_seconds=slo_seconds,
            )
            slo_violations += served.slo_violations
            stalled_requests += served.stalled_requests
            interval_pid_requests += served.arrived
            backlog = served.backlog
            state.queue_depth = backlog.copy()
            queue_depth_max = max(queue_depth_max, float(backlog.max()))

    _add_shard_requests(requests_by_gid, gids, interval_shard_requests)

    # -------------------------------------------------------------- report
    duration = nticks * dt
    state_cells = shard_map.state_cells()
    primary = shard_map.placement().tolist()
    per_shard = [
        {
            "gid": gid,
            "requests": requests_by_gid.get(gid, 0),
            "primary": primary[i],
            "state_cells": int(state_cells[i]),
            "share": float(shares[i]),
        }
        for i, gid in enumerate(gids.tolist())
    ]
    report = ServiceReport(
        router=svc.router,
        scheme=scheme_obj.name,
        arrivals=svc.arrivals,
        nticks=nticks,
        tick_seconds=dt,
        duration=duration,
        total_requests=total_requests,
        throughput_rps=total_requests / duration,
        latency=hist,
        p50=hist.quantile(0.50),
        p95=hist.quantile(0.95),
        p99=hist.quantile(0.99),
        mean_latency=hist.mean,
        max_latency=hist.max if hist.max is not None else 0.0,
        slo_ms=svc.slo_ms,
        slo_violations=slo_violations,
        stalled_requests=stalled_requests,
        migrations=migrations,
        migration_bytes=migration_bytes,
        migration_stall_seconds=migration_stall_total,
        balance_invocations=engine.balance_invocations,
        redistributions=engine.redistributions,
        decisions=len(engine.decisions),
        queue_depth_max=queue_depth_max,
        final_backlog=float(backlog.sum()),
        per_shard=per_shard,
    )
    if metrics is not None:
        _emit_metrics(metrics, report)
    result = RunResult(
        scheme=scheme_obj.name,
        app=f"service:{svc.arrivals}",
        system="+".join(str(g.nprocs) for g in system.groups) + "procs",
        nsteps=nticks,
        total_time=duration,
        compute_time=sim.compute_time,
        comm_time=sim.comm_time,
        balance_overhead=sim.balance_overhead,
        probe_time=sim.probe_time,
        local_comm_busy=sim.local_comm_busy,
        remote_comm_busy=sim.remote_comm_busy,
        comm_by_purpose=dict(sim.comm_time_by_purpose),
        remote_bytes_by_kind=dict(sim.remote_bytes_by_kind),
        final_grids=shard_map.nshards,
        final_cells=int(state_cells.sum()),
        redistributions=engine.redistributions,
        decisions=len(engine.decisions),
        faults=len(sim.log.of_type(FaultEvent)),
        events=sim.log,
        metrics=metrics.snapshot() if metrics is not None else None,
        service=report.to_dict(),
    )
    return result


class TickServed(NamedTuple):
    """What one tick's serving step did (see :func:`serve_tick`)."""

    #: requests served into each processor's queue this tick
    arrived: np.ndarray
    #: each processor's backlog (requests) at the end of the tick
    backlog: np.ndarray
    slo_violations: int
    stalled_requests: int


def serve_tick(
    alloc: np.ndarray,
    rep_pids: np.ndarray,
    net_by_pid: np.ndarray,
    stalled: Optional[np.ndarray],
    stall_seconds: float,
    backlog: np.ndarray,
    mu: np.ndarray,
    dt: float,
    *,
    hist: LatencyHistogram,
    ewma_latency: np.ndarray,
    ewma_alpha: float,
    slo_seconds: float,
) -> TickServed:
    """Serve one tick's routed requests through per-processor FIFO queues.

    ``alloc[s, r]`` requests of shard ``s`` go to processor
    ``rep_pids[s, r]``.  Each pays the route time ``net_by_pid`` of its
    processor, plus ``stall_seconds`` when ``stalled[s]`` is set
    (``stalled`` is ``None`` outside a migration's in-flight window).  A
    processor's requests queue in row-major (shard, replica) order, and
    request ``j`` of ``n`` arrives ``j/n`` into the tick, behind its
    queue's ``backlog`` plus the ``j`` requests ahead of it, drained at
    rate ``mu``.  Latencies go to ``hist`` in one call, segmented by
    processor in ascending pid order; ``ewma_latency`` is updated in place
    with each served processor's mean latency.
    """
    shard, replica = np.nonzero(alloc)  # row-major: the FIFO order
    # group by serving pid; the stable sort keeps each pid's FIFO order
    order = np.argsort(rep_pids[shard, replica], kind="stable")
    shard, replica = shard[order], replica[order]
    pids = rep_pids[shard, replica]
    k = alloc[shard, replica]
    extra = net_by_pid[pids]
    stalled_requests = 0
    if stalled is not None:
        hit = stalled[shard]
        extra[hit] += stall_seconds
        stalled_requests = int(k[hit].sum())

    per_pid = np.bincount(np.repeat(pids, k), minlength=len(backlog))
    active = np.flatnonzero(per_pid)
    n = per_pid[active]
    ends = np.cumsum(n)
    # request j of its pid's n, with that pid's backlog and rate
    starts = np.repeat(ends - n, n)
    j = (np.arange(len(starts)) - starts).astype(np.float64)
    n_req = np.repeat(n.astype(np.float64), n)
    b0 = np.repeat(backlog[active], n)
    m = np.repeat(mu[active], n)
    # fluid FIFO: request j arrives j/n into the tick, departs once the
    # b0 + j requests ahead of it have drained
    queue_lat = np.maximum((b0 + j + 1.0) / m - (j / n_req) * dt, 1.0 / m)
    lat = queue_lat + np.repeat(extra, k)

    sums = hist.observe_array(lat, ends)
    mean_lat = sums / n  # what ndarray.mean computes for each segment
    prev = ewma_latency[active]
    ewma_latency[active] = np.where(
        prev == 0.0, mean_lat,
        (1.0 - ewma_alpha) * prev + ewma_alpha * mean_lat,
    )
    arrived = per_pid.astype(np.float64)
    # every queue drains for the tick, served-into or not
    return TickServed(
        arrived=arrived,
        backlog=np.maximum(backlog + arrived - mu * dt, 0.0),
        slo_violations=int((lat > slo_seconds).sum()),
        stalled_requests=stalled_requests,
    )


def _add_shard_requests(requests_by_gid: Dict[int, int], gids: np.ndarray,
                        counts: np.ndarray) -> None:
    """Add per-shard request counts (shard order) into the gid totals."""
    for i in np.flatnonzero(counts):
        gid = int(gids[i])
        requests_by_gid[gid] = requests_by_gid.get(gid, 0) + int(counts[i])


def _emit_metrics(registry: MetricsRegistry, report: ServiceReport) -> None:
    """Publish the report's headline numbers as obs metrics."""
    labels = dict(scheme=report.scheme, router=report.router,
                  arrivals=report.arrivals)
    registry.counter("service_requests_total", **labels).inc(
        report.total_requests)
    registry.counter("service_slo_violations_total", **labels).inc(
        report.slo_violations)
    registry.counter("service_migrations_total", **labels).inc(
        report.migrations)
    registry.gauge("service_throughput_rps", **labels).set(
        report.throughput_rps)
    registry.gauge("service_latency_p50_seconds", **labels).set(report.p50)
    registry.gauge("service_latency_p99_seconds", **labels).set(report.p99)
    registry.gauge("service_migration_bytes", **labels).set(
        report.migration_bytes)
    registry.gauge("service_queue_depth_max", **labels).set(
        report.queue_depth_max)
