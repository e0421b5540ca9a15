"""Tests for :mod:`repro.service`: the shard/replica serving simulator.

Five contracts pinned here:

* **router goldens** -- each built-in replica-selection policy allocates a
  known tick exactly as specified (rotation, inverse-priority sampling,
  EWMA warm-up then inverse-response-time apportionment);
* **the vectorised tick** -- :func:`~repro.service.loop.serve_tick` and
  the array-built replica matrix give bit-for-bit what the per-processor
  and per-shard loops they replaced gave, kept here as references;
* **schemes run unmodified** -- every registered DLB scheme works as the
  shard migration policy through its ordinary hooks;
* **paired determinism** -- same config + seed gives the bit-identical
  service report in process, across serial and parallel executors, through
  a warm cache, and under the serving daemon;
* **sweep plumbing** -- a gamma sweep over router x migration-scheme combos
  carries p50/p99/throughput/migration-cost through the executor, the
  cache and ``save_run``/``load_run`` unchanged.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.config import FaultParams, ServiceConfig
from repro.core.registry import available_schemes
from repro.exec import ExecTask, ParallelExecutor, ResultCache, SerialExecutor
from repro.harness.experiment import (
    ExperimentConfig,
    execute_scheme,
    run_experiment,
    run_sequential,
)
from repro.harness.persist import (
    load_run,
    run_result_to_dict,
    save_run,
)
from repro.daemon import ServeClient, ServeError, ServeServer
from repro.service import (
    EwmaRouter,
    InversePriorityRouter,
    LatencyHistogram,
    RoundRobinRouter,
    RouterState,
    ServiceReport,
    available_arrival_presets,
    available_router_policies,
    format_service_report,
    make_arrival_model,
    make_router_policy,
    register_router_policy,
    report_hash,
    simulate_service,
)
from repro.service.arrivals import RequestArrivals, ZipfPopularity
from repro.service.loop import _MIN_RATE, serve_tick
from repro.service.shards import ShardMap, build_shard_hierarchy

#: small but non-trivial: 8 shards on 2x2 procs, ~7k requests over 30 ticks
SVC = ServiceConfig(nshards=8, shard_side=4, requests_per_second=400.0,
                    duration_seconds=30.0, balance_every_seconds=10.0)
CFG = ExperimentConfig(procs_per_group=2, steps=2, service=SVC)


def service_hash(result) -> str:
    assert result.service is not None
    return report_hash(result.service)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


class TestServiceConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(nshards=0),
        dict(replication=0),
        dict(shard_side=1),
        dict(requests_per_second=0.0),
        dict(service_rate=-1.0),
        dict(tick_seconds=0.0),
        dict(duration_seconds=0.0),
        dict(balance_every_seconds=0.0),
        dict(zipf_exponent=-0.1),
        dict(ewma_alpha=0.0),
        dict(ewma_alpha=1.5),
        dict(warmup_ticks=-1),
        dict(gateway_group=-1),
        dict(slo_ms=0.0),
        dict(migration_stall_ms=-1.0),
        # NaN passes every `x <= 0` check, and inf overflows the tick count
        dict(slo_ms=float("nan")),
        dict(slo_ms=float("inf")),
        dict(migration_stall_ms=float("nan")),
        dict(migration_stall_ms=float("inf")),
        dict(request_bytes=float("nan")),
        dict(zipf_exponent=float("nan")),
        dict(requests_per_second=float("nan")),
        dict(service_rate=float("inf")),
        dict(tick_seconds=float("nan")),
        dict(balance_every_seconds=float("nan")),
        dict(duration_seconds=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_floats_rejected_by_name(self, value):
        floats = [f.name for f in dataclasses.fields(ServiceConfig)
                  if f.type == "float"]
        assert "slo_ms" in floats and "ewma_alpha" in floats
        for name in floats:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ServiceConfig(**{name: value})

    def test_tick_properties(self):
        svc = ServiceConfig(duration_seconds=45.0, tick_seconds=2.0,
                            balance_every_seconds=9.0)
        assert svc.nticks == 22
        assert svc.balance_every_ticks == 4
        tiny = ServiceConfig(duration_seconds=0.1, tick_seconds=1.0,
                             balance_every_seconds=0.1)
        assert tiny.nticks == 1
        assert tiny.balance_every_ticks == 1

    def test_experiment_config_coerces_dict(self):
        cfg = ExperimentConfig(service={"nshards": 4, "shard_side": 4})
        assert isinstance(cfg.service, ServiceConfig)
        assert cfg.service.nshards == 4

    def test_service_and_trace_are_exclusive(self):
        from repro.config import TraceParams

        with pytest.raises(ValueError, match="mutually exclusive"):
            ExperimentConfig(service=SVC,
                             trace=TraceParams(source="synth:hotspot"))


# ---------------------------------------------------------------------------
# shards as grids
# ---------------------------------------------------------------------------


class TestShards:
    def test_hierarchy_geometry(self):
        h = build_shard_hierarchy(4, 8)
        grids = h.level_grids(0)
        assert len(grids) == 4
        assert h.level_boxes(0).ncells().tolist() == [64] * 4
        # strips tile [0, 32) x [0, 8) along axis 0, in order
        los = sorted(g.box.lo[0] for g in grids)
        assert los == [0, 8, 16, 24]

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError):
            build_shard_hierarchy(0, 4)
        with pytest.raises(ValueError):
            build_shard_hierarchy(4, 1)

    def test_replicas_stay_in_primary_group(self):
        from repro.harness.experiment import make_system

        system = make_system(CFG)
        h = build_shard_hierarchy(8, 4)
        smap = ShardMap(h, system, replication=2)
        # place shards before reading replicas
        from repro.core.registry import make_scheme
        from repro.service.migration import MigrationEngine
        from repro.distsys.simulator import ClusterSimulator

        sim = ClusterSimulator(system)
        eng = MigrationEngine(smap, sim, make_scheme("distributed"),
                              CFG.sim_params, CFG.effective_scheme_params())
        eng.initial_placement()
        pids, mask = smap.replica_matrix()
        assert pids.shape == (8, 2)
        assert mask.all()  # both groups have >= 2 members
        groups = np.asarray(system.pid_groups)
        # replica 0 is the primary; replica 1 shares its group
        for s in range(8):
            assert pids[s, 0] == smap.assignment.pid_of(int(smap.gids[s]))
            assert groups[pids[s, 0]] == groups[pids[s, 1]]
            assert pids[s, 0] != pids[s, 1]

    def test_update_loads_sets_workloads(self):
        h = build_shard_hierarchy(3, 4)
        from repro.harness.experiment import make_system

        smap = ShardMap(h, make_system(CFG), replication=1)
        work = np.array([4.0, 0.0, 1.5])
        smap.update_loads(work)
        observed = h.level_workloads(0).tolist()
        assert observed[0] == pytest.approx(4.0)
        assert observed[2] == pytest.approx(1.5)
        assert 0 < observed[1] < 1e-6  # idle shards keep a movable floor
        with pytest.raises(ValueError):
            smap.update_loads(np.zeros(2))


# ---------------------------------------------------------------------------
# router goldens
# ---------------------------------------------------------------------------


def _two_replica_setup(nprocs=4):
    replicas = np.array([[0, 1]], dtype=np.int64)
    mask = np.ones((1, 2), dtype=bool)
    return replicas, mask, RouterState(nprocs)


class TestRoundRobinRouter:
    def test_even_split_and_rotating_remainder(self):
        replicas, mask, state = _two_replica_setup()
        r = RoundRobinRouter()
        r.reset(4)
        counts = np.array([5], dtype=np.int64)
        first = r.route_tick(counts, replicas, mask, state)
        assert first.tolist() == [[3, 2]]
        second = r.route_tick(counts, replicas, mask, state)
        # the odd unit rotates to the other replica on the next tick
        assert second.tolist() == [[2, 3]]

    def test_masked_slots_get_nothing(self):
        replicas = np.array([[0, 1, 2]], dtype=np.int64)
        mask = np.array([[True, False, True]])
        r = RoundRobinRouter()
        r.reset(4)
        alloc = r.route_tick(np.array([4]), replicas, mask,
                             RouterState(4))
        assert alloc[0, 1] == 0
        assert alloc.sum() == 4

    def test_shard_count_change_restarts_rotation(self):
        replicas, mask, state = _two_replica_setup()
        r = RoundRobinRouter()
        r.reset(4)
        r.route_tick(np.array([5]), replicas, mask, state)
        # a split doubles the shard rows; the router must not crash
        wide = np.repeat(replicas, 2, axis=0)
        alloc = r.route_tick(np.array([5, 5]), wide,
                             np.ones((2, 2), dtype=bool), state)
        assert alloc.sum(axis=1).tolist() == [5, 5]


class TestInversePriorityRouter:
    def test_deterministic_per_seed_and_tick(self):
        replicas, mask, state = _two_replica_setup()
        counts = np.array([100], dtype=np.int64)
        a = InversePriorityRouter(seed=3).route_tick(counts, replicas, mask, state)
        b = InversePriorityRouter(seed=3).route_tick(counts, replicas, mask, state)
        assert (a == b).all()
        state.tick = 1
        c = InversePriorityRouter(seed=3).route_tick(counts, replicas, mask, state)
        assert not (a == c).all()  # new tick, new multinomial draw

    def test_prefers_shallow_queues(self):
        replicas, mask, state = _two_replica_setup()
        state.queue_depth = np.array([0.0, 99.0, 0.0, 0.0])
        alloc = InversePriorityRouter(seed=0).route_tick(
            np.array([1000]), replicas, mask, state)
        # weights 1 : 1/100 -- the empty replica takes ~99% of the tick
        assert alloc[0, 0] > 900
        assert alloc.sum() == 1000

    def test_row_sums_match_counts(self):
        replicas = np.array([[0, 1], [2, 3]], dtype=np.int64)
        mask = np.ones((2, 2), dtype=bool)
        counts = np.array([7, 0], dtype=np.int64)
        alloc = InversePriorityRouter(seed=1).route_tick(
            counts, replicas, mask, RouterState(4))
        assert alloc.sum(axis=1).tolist() == [7, 0]


class TestEwmaRouter:
    def test_warmup_splits_evenly(self):
        replicas, mask, state = _two_replica_setup()
        state.ewma_latency = np.array([1.0, 100.0, 0.0, 0.0])
        state.tick = 0
        alloc = EwmaRouter(warmup_ticks=5).route_tick(
            np.array([5]), replicas, mask, state)
        # warm-up ignores the (terrible) signal on replica 1
        assert alloc.tolist() == [[3, 2]]

    def test_post_warmup_weights_inverse_response_time(self):
        replicas, mask, state = _two_replica_setup()
        state.ewma_latency = np.array([0.1, 0.3, 0.0, 0.0])
        state.tick = 5
        alloc = EwmaRouter(warmup_ticks=5).route_tick(
            np.array([4]), replicas, mask, state)
        # inverse EWMA 10 : 10/3 -> probs 0.75 : 0.25 -> exactly [3, 1]
        assert alloc.tolist() == [[3, 1]]

    def test_no_signal_falls_back_to_even(self):
        replicas, mask, state = _two_replica_setup()
        state.tick = 10  # past warm-up, but nothing served yet
        alloc = EwmaRouter(warmup_ticks=5).route_tick(
            np.array([6]), replicas, mask, state)
        assert alloc.tolist() == [[3, 3]]

    def test_convergence_shifts_load_to_fast_replica(self):
        """Warm-up even split, then the slow replica's share decays."""
        replicas, mask, state = _two_replica_setup()
        router = EwmaRouter(warmup_ticks=3)
        counts = np.array([100], dtype=np.int64)
        alpha = 0.5
        # replica 0 answers in 10ms, replica 1 in 90ms
        per_req = np.array([0.010, 0.090])
        shares = []
        for tick in range(12):
            state.tick = tick
            alloc = router.route_tick(counts, replicas, mask, state)
            shares.append(alloc[0, 0] / counts[0])
            for p in (0, 1):
                prev = state.ewma_latency[p]
                state.ewma_latency[p] = (
                    per_req[p] if prev == 0.0
                    else (1 - alpha) * prev + alpha * per_req[p]
                )
        assert shares[0] == pytest.approx(0.5)  # warm-up
        # converged: fast replica carries ~ 90/(90+10) = 90% of the load
        assert shares[-1] == pytest.approx(0.9)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            EwmaRouter(warmup_ticks=-1)


class TestRouterRegistry:
    def test_builtins_registered(self):
        assert {"round-robin", "inverse-priority", "ewma"} <= set(
            available_router_policies())

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            make_router_policy("no-such-router")

    def test_duplicate_requires_replace(self):
        register_router_policy("test-dummy-router",
                               lambda **kw: RoundRobinRouter(), replace=True)
        with pytest.raises(ValueError, match="replace=True"):
            register_router_policy("test-dummy-router",
                                   lambda **kw: RoundRobinRouter())
        register_router_policy("test-dummy-router",
                               lambda **kw: RoundRobinRouter(), replace=True)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            register_router_policy("", lambda **kw: RoundRobinRouter())

    @pytest.mark.parametrize("name", ["round-robin", "inverse-priority", "ewma"])
    def test_leftover_options_raise(self, name):
        with pytest.raises(TypeError):
            make_router_policy(name, bogus_option=1)

    def test_factories_tolerate_standard_options(self):
        for name in ("round-robin", "inverse-priority", "ewma"):
            policy = make_router_policy(name, seed=4, warmup_ticks=2)
            assert policy.name == name


# ---------------------------------------------------------------------------
# arrivals + popularity
# ---------------------------------------------------------------------------


class TestArrivals:
    def test_presets_listed(self):
        assert {"steady", "diurnal", "bursty", "flash-crowd",
                "composite"} <= set(available_arrival_presets())

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="available"):
            make_arrival_model("no-such-preset")

    def test_counts_deterministic(self):
        shares = np.full(4, 0.25)
        a = RequestArrivals(make_arrival_model("bursty", 3), 100.0, 1.0, seed=9)
        b = RequestArrivals(make_arrival_model("bursty", 3), 100.0, 1.0, seed=9)
        for tick in (0, 7, 31):
            assert (a.counts_for_tick(tick, shares)
                    == b.counts_for_tick(tick, shares)).all()

    def test_rate_maps_occupancy_to_saturation(self):
        from repro.distsys.network import MAX_OCCUPANCY

        arr = RequestArrivals(make_arrival_model("steady", 0), 950.0, 1.0)
        # the steady preset holds occupancy 0.6
        assert arr.rate(10.0) == pytest.approx(950.0 * 0.6 / MAX_OCCUPANCY)

    def test_validation(self):
        model = make_arrival_model("steady", 0)
        with pytest.raises(ValueError):
            RequestArrivals(model, 0.0, 1.0)
        with pytest.raises(ValueError):
            RequestArrivals(model, 10.0, 0.0)


class TestZipfPopularity:
    def test_shares_partition_unity(self):
        pop = ZipfPopularity((32, 4), exponent=1.1, seed=2)
        boxes = [Box((i * 4, 0), ((i + 1) * 4, 4)) for i in range(8)]
        shares = pop.shard_shares(boxes)
        assert shares.sum() == pytest.approx(1.0)
        assert (shares > 0).all()

    def test_split_conserves_share(self):
        """A split shard's halves inherit exactly the keys they cover."""
        pop = ZipfPopularity((32, 4), exponent=1.2, seed=5)
        parent = Box((8, 0), (16, 4))
        left = Box((8, 0), (12, 4))
        right = Box((12, 0), (16, 4))
        s_parent, s_left, s_right = pop.shard_shares([parent, left, right])
        assert s_left + s_right == pytest.approx(s_parent)

    def test_zero_exponent_is_uniform(self):
        pop = ZipfPopularity((16, 4), exponent=0.0, seed=0)
        boxes = [Box((i * 4, 0), ((i + 1) * 4, 4)) for i in range(4)]
        assert np.allclose(pop.shard_shares(boxes), 0.25)

    def test_seed_permutes_hotspots(self):
        a = ZipfPopularity((16, 4), seed=0)
        b = ZipfPopularity((16, 4), seed=1)
        assert not np.allclose(a.cell_weights, b.cell_weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity((16, 4), exponent=-1.0)
        with pytest.raises(ValueError):
            ZipfPopularity((0, 4))


# ---------------------------------------------------------------------------
# report + histogram
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_quantiles_are_conservative_upper_edges(self):
        h = LatencyHistogram()
        h.observe_array(np.array([0.010] * 90 + [1.0] * 10))
        assert 0.010 <= h.quantile(0.5) <= 0.012  # upper edge of its bucket
        assert h.quantile(0.95) >= 1.0
        assert h.mean == pytest.approx(0.109)
        assert h.total == 100

    def test_underflow_and_overflow(self):
        h = LatencyHistogram()
        h.observe_array(np.array([1e-7]))
        assert h.quantile(0.5) == pytest.approx(float(h.edges[0]))
        h2 = LatencyHistogram()
        h2.observe_array(np.array([500.0, 700.0]))
        # overflow resolves to the exact maximum
        assert h2.quantile(0.99) == pytest.approx(700.0)

    def test_empty(self):
        h = LatencyHistogram()
        assert h.quantile(0.99) == 0.0
        assert h.mean == 0.0

    def test_roundtrip(self):
        h = LatencyHistogram()
        h.observe_array(np.array([0.01, 0.5, 3.0]))
        back = LatencyHistogram.from_dict(h.to_dict())
        assert (back.counts == h.counts).all()
        assert back.quantile(0.5) == h.quantile(0.5)
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({"counts": [1, 2], "total": 3, "sum": 0.1})

    def test_bad_quantile_and_edges(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(edges=np.array([1.0, 1.0]))

    @given(
        lat=st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=300),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=12),
        before=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_segment_ends_equal_one_call_per_segment(self, lat, cuts, before):
        lat = np.asarray(lat, dtype=np.float64)
        ends = sorted(min(c, len(lat)) for c in cuts) + [len(lat)]
        segmented, sequential = LatencyHistogram(), LatencyHistogram()
        for h in (segmented, sequential):
            h.observe_array(np.asarray(before, dtype=np.float64))
        sums = segmented.observe_array(lat, ends)
        start = 0
        for i, end in enumerate(ends):
            sequential.observe_array(lat[start:end])
            assert sums[i] == (lat[start:end].sum() if end > start else 0.0)
            start = end
        _assert_same_histogram(segmented, sequential)

    def test_segment_ends_must_cover_the_batch(self):
        with pytest.raises(ValueError, match="segment ends"):
            LatencyHistogram().observe_array(np.ones(4), [1, 3])


def _assert_same_histogram(a: LatencyHistogram, b: LatencyHistogram) -> None:
    assert a.counts.tolist() == b.counts.tolist()
    assert a.total == b.total
    assert a.sum.hex() == b.sum.hex()
    assert (a.min, a.max) == (b.min, b.max)


def _serve_tick_reference(alloc, rep_pids, net_by_pid, stalled, stall_seconds,
                          backlog, mu, dt, *, hist, ewma_latency, ewma_alpha,
                          slo_seconds, interval_pid_requests):
    """The per-processor loop :func:`serve_tick` replaced, kept as its
    reference: group the tick's allocations by pid in row-major (shard,
    replica) order, then serve each pid's batch with its own histogram
    call and ``lat.mean()``."""
    stalled_requests = 0
    batches: dict = {}
    for s, r in zip(*np.nonzero(alloc)):
        k = int(alloc[s, r])
        pid = int(rep_pids[s, r])
        extra = float(net_by_pid[pid])
        if stalled is not None and stalled[s]:
            extra += stall_seconds
            stalled_requests += k
        batches.setdefault(pid, []).append((k, extra))
    arrived = np.zeros(len(backlog), dtype=np.float64)
    slo_violations = 0
    for pid, parts in sorted(batches.items()):
        n = sum(k for k, _ in parts)
        arrived[pid] = n
        interval_pid_requests[pid] += n
        b0 = backlog[pid]
        m = mu[pid]
        j = np.arange(n, dtype=np.float64)
        queue_lat = np.maximum((b0 + j + 1.0) / m - (j / n) * dt, 1.0 / m)
        extras = np.repeat(
            np.fromiter((e for _, e in parts), dtype=np.float64,
                        count=len(parts)),
            np.fromiter((k for k, _ in parts), dtype=np.int64,
                        count=len(parts)),
        )
        lat = queue_lat + extras
        hist.observe_array(lat)
        slo_violations += int((lat > slo_seconds).sum())
        mean_lat = float(lat.mean())
        prev = ewma_latency[pid]
        ewma_latency[pid] = (
            mean_lat if prev == 0.0
            else (1.0 - ewma_alpha) * prev + ewma_alpha * mean_lat
        )
    backlog = np.maximum(backlog + arrived - mu * dt, 0.0)
    return backlog, slo_violations, stalled_requests


@st.composite
def tick_cases(draw):
    """A run of ticks' routed allocations on a small system."""
    nprocs = draw(st.integers(min_value=1, max_value=6))
    ngroups = draw(st.integers(min_value=1, max_value=min(3, nprocs)))
    pid_group = np.asarray(
        [g % ngroups for g in range(nprocs)], dtype=np.int64)
    # the gateway group's route time is 0; the others pay a nonzero one
    net_by_group = np.asarray(
        [0.0] + draw(st.lists(st.floats(min_value=1e-6, max_value=2.0),
                              min_size=ngroups - 1, max_size=ngroups - 1)))
    S = draw(st.integers(min_value=1, max_value=24))
    R = draw(st.integers(min_value=1, max_value=4))
    one_pid = draw(st.booleans())  # every request on one processor
    pid_values = st.integers(min_value=0, max_value=nprocs - 1)
    if one_pid:
        pid = draw(pid_values)
        rep_pids = np.full((S, R), pid, dtype=np.int64)
    else:
        rep_pids = np.asarray(
            draw(st.lists(st.lists(pid_values, min_size=R, max_size=R),
                          min_size=S, max_size=S)), dtype=np.int64)
    # replica masks shorter than R: each row keeps a prefix of its slots
    nvalid = np.asarray(draw(st.lists(st.integers(min_value=1, max_value=R),
                                      min_size=S, max_size=S)))
    mask = np.arange(R)[None, :] < nvalid[:, None]
    ticks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        counts = st.one_of(st.just(0), st.integers(min_value=0, max_value=40))
        alloc = np.asarray(
            draw(st.lists(st.lists(counts, min_size=R, max_size=R),
                          min_size=S, max_size=S)), dtype=np.int64)
        alloc[draw(st.sampled_from([[], [0], list(range(S))[::2]]))] = 0
        alloc[:, draw(st.sampled_from([[], [R - 1]]))] = 0
        stalled = draw(st.one_of(
            st.none(),
            st.lists(st.booleans(), min_size=S, max_size=S).map(np.asarray)))
        # dropout drives a processor's rate to the floor
        mu = np.asarray(draw(st.lists(
            st.one_of(st.just(_MIN_RATE), st.floats(min_value=0.5,
                                                     max_value=5000.0)),
            min_size=nprocs, max_size=nprocs)))
        ticks.append((np.where(mask, alloc, 0), stalled, mu))
    backlog = np.asarray(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
        min_size=nprocs, max_size=nprocs)))
    ewma = np.asarray(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=50.0)),
        min_size=nprocs, max_size=nprocs)))
    return dict(
        ticks=ticks, rep_pids=rep_pids, net_by_pid=net_by_group[pid_group],
        backlog=backlog, ewma=ewma,
        stall_seconds=draw(st.sampled_from([0.0, 0.05, 0.5])),
        dt=draw(st.sampled_from([1.0, 0.5, 0.1])),
        alpha=draw(st.sampled_from([0.3, 1.0, 0.01])),
        slo=draw(st.sampled_from([0.25, 1e-3, 10.0])),
    )


class TestServeTickMatchesReference:
    """The vectorised tick serves every request exactly as the loop did."""

    @given(case=tick_cases())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_per_processor_loop(self, case):
        nprocs = len(case["backlog"])
        sides = []
        for vectorised in (True, False):
            hist = LatencyHistogram()
            ewma = case["ewma"].copy()
            backlog = case["backlog"].copy()
            interval = np.zeros(nprocs, dtype=np.float64)
            slo = stalled_total = 0
            for alloc, stalled, mu in case["ticks"]:
                args = (alloc, case["rep_pids"], case["net_by_pid"], stalled,
                        case["stall_seconds"], backlog, mu, case["dt"])
                kw = dict(hist=hist, ewma_latency=ewma,
                          ewma_alpha=case["alpha"], slo_seconds=case["slo"])
                if vectorised:
                    served = serve_tick(*args, **kw)
                    interval += served.arrived
                    backlog = served.backlog
                    slo += served.slo_violations
                    stalled_total += served.stalled_requests
                else:
                    backlog, v, s = _serve_tick_reference(
                        *args, **kw, interval_pid_requests=interval)
                    slo += v
                    stalled_total += s
            sides.append((hist, ewma, backlog, interval, slo, stalled_total))
        (h1, e1, b1, i1, v1, s1), (h2, e2, b2, i2, v2, s2) = sides
        _assert_same_histogram(h1, h2)
        assert e1.tobytes() == e2.tobytes()
        assert b1.tobytes() == b2.tobytes()
        assert i1.tobytes() == i2.tobytes()
        assert (v1, s1) == (v2, s2)

    def test_grouping_keeps_fifo_order_within_a_processor(self):
        # 64 allocations interleaved over two processors, every third shard
        # stalled: only an order-keeping grouping pairs each request's
        # stall with its own place in the queue
        S, R = 32, 2
        alloc = 1 + (np.arange(S * R).reshape(S, R) * 7) % 5
        rep_pids = np.add.outer(np.arange(S), np.arange(R)) % 2
        stalled = np.arange(S) % 3 == 0
        sides = []
        for fn in (serve_tick, _serve_tick_reference):
            hist, ewma = LatencyHistogram(), np.zeros(2)
            extra = {} if fn is serve_tick else {
                "interval_pid_requests": np.zeros(2)}
            fn(alloc, rep_pids, np.zeros(2), stalled, 0.05,
               np.array([3.0, 0.0]), np.array([20.0, 50.0]), 1.0, hist=hist,
               ewma_latency=ewma, ewma_alpha=0.3, slo_seconds=0.25, **extra)
            sides.append((hist, ewma))
        _assert_same_histogram(sides[0][0], sides[1][0])
        assert sides[0][1].tobytes() == sides[1][1].tobytes()

    def test_idle_tick_observes_nothing(self):
        hist = LatencyHistogram()
        ewma = np.zeros(2)
        served = serve_tick(
            np.zeros((3, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64),
            np.zeros(2), None, 0.05, np.array([0.0, 4.0]), np.array([2.0, 2.0]),
            1.0, hist=hist, ewma_latency=ewma, ewma_alpha=0.3, slo_seconds=0.25)
        assert hist.total == 0 and not ewma.any()
        assert served.backlog.tolist() == [0.0, 2.0]
        assert (served.slo_violations, served.stalled_requests) == (0, 0)


def _replica_matrix_reference(smap):
    """The per-shard loop :meth:`ShardMap.replica_matrix` replaced."""
    S, R = smap.nshards, smap.replication
    pids = np.zeros((S, R), dtype=np.int64)
    mask = np.zeros((S, R), dtype=bool)
    for s, gid in enumerate(smap.gids):
        primary = smap.assignment.pid_of(int(gid))
        members = smap.system.group_pids[int(smap.system.pid_groups[primary])]
        start = int(np.searchsorted(members, primary))
        n = min(R, len(members))
        idx = (start + np.arange(n)) % len(members)
        pids[s, :n] = members[idx]
        mask[s, :n] = True
    return pids, mask


@pytest.mark.parametrize("sizes", [[1], [2, 2], [1, 3, 2], [4]])
@pytest.mark.parametrize("replication", [1, 3])
def test_replica_matrix_matches_per_shard_loop(sizes, replication):
    from repro.distsys import SystemSpec, build_system

    system = build_system(SystemSpec(groups=tuple(sizes)))
    smap = ShardMap(build_shard_hierarchy(9, 4), system, replication)
    # scattered owners; with two or more groups the last one owns nothing
    smap.assignment.assign(0, smap.gids, [3 * s % max(1, system.nprocs - 2)
                                          for s in range(smap.nshards)])
    pids, mask = smap.replica_matrix()
    ref_pids, ref_mask = _replica_matrix_reference(smap)
    assert pids.tolist() == ref_pids.tolist()
    assert mask.tolist() == ref_mask.tolist()


class TestReportHash:
    def test_sensitive_to_any_field(self):
        r = run_experiment(CFG, "distributed")
        base = service_hash(r)
        mutated = dict(r.service)
        mutated["slo_violations"] = r.service["slo_violations"] + 1
        assert report_hash(mutated) != base

    def test_typed_view_roundtrip(self):
        r = run_experiment(CFG, "distributed")
        report = ServiceReport.from_run(r)
        assert report.to_dict() == r.service
        assert report.hash == service_hash(r)
        text = format_service_report(report)
        assert "latency p50" in text and "migrations" in text

    def test_from_run_requires_service(self):
        plain = run_experiment(ExperimentConfig(procs_per_group=1, steps=2),
                               "distributed")
        with pytest.raises(ValueError):
            ServiceReport.from_run(plain)


# ---------------------------------------------------------------------------
# the serving loop
# ---------------------------------------------------------------------------


class TestSimulateService:
    def test_paired_runs_bit_identical(self):
        a = run_experiment(CFG, "distributed")
        b = run_experiment(CFG, "distributed")
        assert a.service == b.service
        assert service_hash(a) == service_hash(b)

    def test_seed_changes_arrivals(self):
        base = run_experiment(CFG, "distributed")
        reseeded = run_experiment(CFG, "distributed", seed=7)
        assert service_hash(base) != service_hash(reseeded)

    def test_report_internally_consistent(self):
        r = run_experiment(CFG, "distributed")
        svc = r.service
        assert svc["total_requests"] > 0
        assert svc["latency"]["total"] == svc["total_requests"]
        # splits retire gids mid-run, so per-shard counts of the *final*
        # shard set bound the total from below
        per_shard_total = sum(s["requests"] for s in svc["per_shard"])
        assert 0 < per_shard_total <= svc["total_requests"]
        assert svc["throughput_rps"] == pytest.approx(
            svc["total_requests"] / svc["duration"])
        assert svc["p50"] <= svc["p95"] <= svc["p99"]
        assert svc["balance_invocations"] == 2  # ticks 10 and 20 of 30
        assert r.app == "service:flash-crowd"
        assert r.nsteps == SVC.nticks

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_every_registered_scheme_runs_unmodified(self, scheme):
        r = run_experiment(CFG, scheme)
        assert r.service is not None
        assert r.service["scheme"] == r.scheme
        assert r.service["total_requests"] > 0

    def test_static_scheme_never_migrates(self):
        r = run_experiment(CFG, "static")
        assert r.service["migrations"] == 0
        assert r.service["migration_bytes"] == 0.0

    def test_routers_change_allocation_not_arrivals(self):
        results = {
            router: run_experiment(
                replace(CFG, service=replace(SVC, router=router)), "distributed")
            for router in ("round-robin", "inverse-priority", "ewma")
        }
        totals = {r.service["total_requests"] for r in results.values()}
        assert len(totals) == 1  # identical arrival stream
        hashes = {service_hash(r) for r in results.values()}
        assert len(hashes) == 3  # different replica allocations

    def test_sequential_reference_runs_on_one_proc(self):
        r = run_sequential(CFG)
        assert r.system == "1procs"
        assert r.service is not None
        # one processor serving the whole stream saturates: worse p99 than
        # the distributed run on 4 procs
        dist = run_experiment(CFG, "distributed")
        assert r.service["p99"] >= dist.service["p99"]

    def test_dropout_fault_degrades_latency(self):
        faulty = replace(CFG, fault=FaultParams(scenario="dropout", group=1,
                                                start=5.0, duration=10.0))
        clean = run_experiment(CFG, "static")
        hit = run_experiment(faulty, "static")
        # the dropout window collapses group 1's effective service rate:
        # replica queues blow up and the tail latency explodes
        assert hit.service["p99"] > clean.service["p99"]
        assert hit.service["slo_violations"] > clean.service["slo_violations"]

    def test_gateway_group_validated(self):
        bad = replace(CFG, service=replace(SVC, gateway_group=9))
        with pytest.raises(ValueError, match="gateway_group"):
            simulate_service(bad, "distributed")

    def test_missing_service_config_raises(self):
        with pytest.raises(ValueError, match="service"):
            simulate_service(ExperimentConfig(procs_per_group=1, steps=2))

    def test_migration_stall_surfaces_in_report(self):
        # drive migrations hard: skewed popularity + frequent balancing
        svc = replace(SVC, balance_every_seconds=5.0, zipf_exponent=1.4)
        r = run_experiment(replace(CFG, service=svc, gamma=0.1), "distributed")
        if r.service["migrations"]:
            assert r.service["migration_bytes"] > 0
            assert r.service["migration_stall_seconds"] > 0


# ---------------------------------------------------------------------------
# executors, cache, persistence: the sweep plumbing
# ---------------------------------------------------------------------------


class TestServiceThroughExecutors:
    def test_serial_equals_parallel(self):
        tasks = [ExecTask(CFG, "distributed"),
                 ExecTask(replace(CFG, service=replace(SVC, router="ewma")),
                          "distributed")]
        serial = SerialExecutor().run_tasks(tasks)
        parallel = ParallelExecutor(jobs=2).run_tasks(tasks)
        for s, p in zip(serial, parallel):
            assert service_hash(s) == service_hash(p)

    def test_cache_hit_is_bit_identical(self, tmp_path):
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        cold = ex.run_tasks([ExecTask(CFG, "distributed")])[0]
        warm = ex.run_tasks([ExecTask(CFG, "distributed")])[0]
        assert ex.cache.hits == 1
        assert warm.service == cold.service
        assert service_hash(warm) == service_hash(cold)

    def test_router_is_part_of_the_cache_key(self, tmp_path):
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        ex.run_tasks([ExecTask(CFG, "distributed")])
        other = replace(CFG, service=replace(SVC, router="ewma"))
        ex.run_tasks([ExecTask(other, "distributed")])
        assert ex.cache.hits == 0
        assert ex.cache.stores == 2

    def test_gamma_sweep_over_router_x_scheme_combos(self, tmp_path):
        """The acceptance sweep: gamma x router x migration scheme through
        the executor + cache, reports persisted and reloaded intact."""
        combos = [
            (gamma, router, scheme)
            for gamma in (0.5, 2.0)
            for router in ("round-robin", "ewma")
            for scheme in ("distributed", "sfc:morton")
        ]
        tasks = [
            ExecTask(replace(CFG, gamma=gamma,
                             service=replace(SVC, router=router)), scheme)
            for gamma, router, scheme in combos
        ]
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        results = ex.run_tasks(tasks)
        assert len(results) == 8
        hashes = {}
        for (gamma, router, scheme), res in zip(combos, results):
            svc = res.service
            assert svc["router"] == router
            assert svc["p50"] <= svc["p99"]
            assert svc["throughput_rps"] > 0
            assert svc["migration_bytes"] >= 0
            hashes[(gamma, router, scheme)] = service_hash(res)
            # persistence round-trip keeps the full report
            out = tmp_path / f"{gamma}-{router}-{scheme.replace(':', '_')}.json"
            save_run(res, out)
            assert load_run(out).service == svc
        # the whole sweep replays from cache, bit-identical
        warm = ex.run_tasks(tasks)
        assert ex.cache.hits == 8
        for (combo, res) in zip(combos, warm):
            assert service_hash(res) == hashes[combo]


# ---------------------------------------------------------------------------
# the serving daemon
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(tmp_path):
    sock = str(tmp_path / "serve.sock")
    started: concurrent.futures.Future = concurrent.futures.Future()

    def body():
        async def amain():
            server = ServeServer(socket_path=sock, workers=2, queue_size=8,
                                 cache_dir=str(tmp_path / "serve_cache"))
            await server.start()
            started.set_result(server)
            await server.serve_until_shutdown()

        try:
            asyncio.run(amain())
        except BaseException as err:  # pragma: no cover - surfacing only
            if not started.done():
                started.set_exception(err)
            raise

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    started.result(timeout=30)
    client = ServeClient(socket_path=sock, timeout=300)
    try:
        yield client
    finally:
        with contextlib.suppress(OSError, ServeError):
            ServeClient(socket_path=sock, timeout=30).shutdown(force=True)
        thread.join(timeout=60)
        assert not thread.is_alive(), "daemon thread failed to drain"


class TestServiceUnderDaemon:
    def test_daemon_run_matches_in_process_bit_for_bit(self, tmp_path):
        expected = run_result_to_dict(execute_scheme(CFG, "distributed"))
        with running_server(tmp_path) as client:
            res = client.submit(CFG, scheme="distributed")
            assert res.ok and not res.cached
            assert res.raw_run["service"] == expected["service"]
            assert res.raw_run == expected
            # resubmission is served from the daemon's cache, still identical
            again = client.submit(CFG, scheme="distributed")
            assert again.cached
            assert again.raw_run["service"] == expected["service"]
