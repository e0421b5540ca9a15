"""Tests for the execution engine: executors, content-addressed cache,
stats, and the serial == parallel == cached determinism guarantee."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ExecParams, FaultParams, SimParams
from repro.exec import (
    CODE_VERSION_SALT,
    ExecTask,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    canonical_json,
    default_cache_dir,
    get_default_executor,
    make_executor,
    set_default_executor,
    task_key,
)
from repro.harness import ExperimentConfig, run_experiment, run_sweep, sequential_config
from repro.harness.persist import run_result_to_dict

SMALL = ExperimentConfig(procs_per_group=1, steps=2)


def _hammer_cache_put(cache_dir, key, result, n):
    """Child-process body: store the same entry ``n`` times."""
    cache = ResultCache(cache_dir)
    for _ in range(n):
        cache.put(key, result)


def _hammer_metrics_flush(cache_dir, n):
    """Child-process body: fold counter deltas into metrics.json ``n``
    times."""
    cache = ResultCache(cache_dir)
    for _ in range(n):
        cache.hits += 1
        cache.flush_metrics()


def comparable(result):
    """All persisted RunResult fields; the event log is summarised by
    run_result_to_dict and dropped here (cache hits carry no events)."""
    d = run_result_to_dict(result)
    d.pop("event_counts", None)
    return d


class TestTaskKey:
    def test_stable(self):
        cfg = ExperimentConfig(procs_per_group=2, steps=3)
        assert task_key(cfg, "parallel") == task_key(
            ExperimentConfig(procs_per_group=2, steps=3), "parallel"
        )

    def test_scheme_in_key(self):
        assert task_key(SMALL, "parallel") != task_key(SMALL, "distributed")

    def test_top_level_field_changes_key(self):
        assert task_key(SMALL, "parallel") != task_key(
            replace(SMALL, steps=3), "parallel"
        )

    def test_nested_dataclass_field_changes_key(self):
        tweaked = replace(SMALL, sim_params=SimParams(bytes_per_cell=81.0))
        assert task_key(SMALL, "parallel") != task_key(tweaked, "parallel")
        faulted = replace(SMALL, fault=FaultParams(scenario="slowdown"))
        assert task_key(SMALL, "parallel") != task_key(faulted, "parallel")
        assert task_key(faulted, "parallel") != task_key(
            replace(SMALL, fault=FaultParams(scenario="slowdown", severity=8.0)),
            "parallel",
        )

    def test_salt_changes_key(self):
        assert task_key(SMALL, "parallel") != task_key(
            SMALL, "parallel", salt=CODE_VERSION_SALT + "x"
        )

    def test_canonical_json_deterministic(self):
        assert canonical_json(SMALL) == canonical_json(
            ExperimentConfig(procs_per_group=1, steps=2)
        )

    def test_unhashable_object_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key(SMALL, "distributed")
        assert cache.get(key) is None
        result = run_experiment(SMALL, "distributed")
        cache.put(key, result)
        assert key in cache
        served = cache.get(key)
        assert served.events is None
        assert comparable(served) == comparable(result)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key(SMALL, "parallel")
        cache.put(key, run_experiment(SMALL, "parallel"))
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_wrong_version_is_a_miss(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        key = task_key(SMALL, "parallel")
        cache.put(key, run_experiment(SMALL, "parallel"))
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_entry_count_bytes_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.entry_count() == 0 and cache.total_bytes() == 0
        cache.put(task_key(SMALL, "parallel"), run_experiment(SMALL, "parallel"))
        assert cache.entry_count() == 1 and cache.total_bytes() > 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert str(default_cache_dir()) == "/tmp/somewhere"

    def test_get_run_dict_is_the_stored_form(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_key(SMALL, "distributed")
        assert cache.get_run_dict(key) is None
        result = run_experiment(SMALL, "distributed")
        cache.put(key, result)
        raw = cache.get_run_dict(key)
        # verbatim persisted form: event_counts survive, unlike the
        # reconstructed RunResult of get() (whose event log is gone)
        assert raw == run_result_to_dict(result)
        assert raw["event_counts"]
        assert cache.hits == 1

    def test_concurrent_writers_never_corrupt_entries(self, tmp_path):
        """Regression: a shared fixed temp-file name let two concurrent
        put()s interleave write/rename and publish a torn entry.  Hammer
        one key from many processes while a reader checks every observed
        state is either absent or a complete, valid entry."""
        import multiprocessing

        result = run_experiment(SMALL, "distributed")
        key = task_key(SMALL, "distributed")
        procs = [
            multiprocessing.Process(
                target=_hammer_cache_put,
                args=(str(tmp_path), key, result, 25))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        reader = ResultCache(tmp_path)
        good = 0
        try:
            while any(p.is_alive() for p in procs):
                served = reader.get_run_dict(key)
                if served is not None:
                    assert served == run_result_to_dict(result)
                    good += 1
        finally:
            for p in procs:
                p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        assert good > 0  # the reader really did observe published entries
        # the final state is valid and no temp litter is left behind
        assert reader.get_run_dict(key) == run_result_to_dict(result)
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_concurrent_metrics_flush_keeps_file_parsable(self, tmp_path):
        import multiprocessing

        procs = [
            multiprocessing.Process(target=_hammer_metrics_flush,
                                    args=(str(tmp_path), 25))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        reader = ResultCache(tmp_path)
        try:
            while any(p.is_alive() for p in procs):
                totals = reader._read_metrics_file()  # parses or raises
                assert all(v >= 0 for v in totals.values())
        finally:
            for p in procs:
                p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        # increments may race away, but the file stays valid and nonzero
        assert reader.lifetime_metrics()["exec.cache_hits"] > 0


class TestExecutors:
    def test_results_in_submission_order(self):
        ex = SerialExecutor()
        tasks = [
            ExecTask(replace(SMALL, procs_per_group=n), scheme)
            for n in (1, 2)
            for scheme in ("parallel", "distributed")
        ]
        results = ex.run_tasks(tasks)
        assert [r.scheme for r in results] == [
            "parallel DLB", "distributed DLB", "parallel DLB", "distributed DLB"
        ]
        assert results[0].system != results[2].system  # 1+1 vs 2+2

    def test_parallel_matches_serial(self):
        tasks = [ExecTask(SMALL, "parallel"), ExecTask(SMALL, "distributed")]
        serial = SerialExecutor().run_tasks(tasks)
        parallel = ParallelExecutor(jobs=2).run_tasks(tasks)
        for s, p in zip(serial, parallel):
            assert comparable(s) == comparable(p)

    def test_cache_hits_counted_and_identical(self, tmp_path):
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        tasks = [ExecTask(SMALL, "parallel"), ExecTask(SMALL, "distributed")]
        cold = ex.run_tasks(tasks)
        warm = ex.run_tasks(tasks)
        assert ex.batches[0].cache_hits == 0 and ex.batches[0].executed == 2
        assert ex.batches[1].cache_hits == 2 and ex.batches[1].executed == 0
        for c, w in zip(cold, warm):
            assert comparable(c) == comparable(w)

    def test_use_cache_false_executes_but_stores(self, tmp_path):
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        task = ExecTask(SMALL, "distributed", use_cache=False)
        first = ex.run_tasks([task])[0]
        second = ex.run_tasks([task])[0]
        # both executions were fresh (events present), nothing was served
        assert first.events is not None and second.events is not None
        assert all(b.cache_hits == 0 for b in ex.batches)
        # ... but the entry exists for cache-willing consumers
        assert ex.cache.get(task_key(SMALL, "distributed")) is not None

    def test_stats_merging_and_summary(self):
        ex = SerialExecutor()
        ex.run_tasks([ExecTask(SMALL, "parallel")])
        ex.run_tasks([ExecTask(SMALL, "distributed")])
        merged = ex.stats
        assert merged.ntasks == 2
        assert merged.elapsed_seconds > 0
        assert merged.run_wall_seconds > 0
        assert "2 runs" in merged.summary()

    def test_make_executor_from_params(self, tmp_path):
        assert isinstance(make_executor(), SerialExecutor)
        assert make_executor().cache is None
        ex = make_executor(ExecParams(jobs=3, use_cache=True,
                                      cache_dir=str(tmp_path)))
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 3
        assert ex.cache is not None and ex.cache.cache_dir == tmp_path

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExecParams(jobs=0)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=-1)

    def test_default_executor_roundtrip(self):
        mine = SerialExecutor()
        previous = set_default_executor(mine)
        try:
            assert get_default_executor() is mine
        finally:
            set_default_executor(previous)


class TestDeterminismEndToEnd:
    """ISSUE acceptance: serial, parallel and cache-served executions of the
    same config are bit-identical, including the communication breakdowns."""

    CFG = ExperimentConfig(procs_per_group=2, steps=2, traffic_kind="bursty",
                           traffic_seed=11)

    @pytest.fixture(scope="class")
    def three_ways(self, tmp_path_factory):
        tasks = [ExecTask(self.CFG, "parallel"), ExecTask(self.CFG, "distributed")]
        serial = SerialExecutor().run_tasks(tasks)
        parallel = ParallelExecutor(jobs=2).run_tasks(tasks)
        cache_ex = SerialExecutor(
            cache=ResultCache(tmp_path_factory.mktemp("cache"))
        )
        cache_ex.run_tasks(tasks)  # populate
        cached = cache_ex.run_tasks(tasks)  # serve
        assert cache_ex.batches[-1].cache_hits == len(tasks)
        return serial, parallel, cached

    def test_all_fields_identical(self, three_ways):
        serial, parallel, cached = three_ways
        for i in range(len(serial)):
            assert comparable(serial[i]) == comparable(parallel[i])
            assert comparable(serial[i]) == comparable(cached[i])

    def test_comm_breakdowns_identical(self, three_ways):
        serial, parallel, cached = three_ways
        for i in range(len(serial)):
            assert serial[i].comm_by_purpose == parallel[i].comm_by_purpose
            assert serial[i].comm_by_purpose == cached[i].comm_by_purpose
            assert serial[i].remote_bytes_by_kind == parallel[i].remote_bytes_by_kind
            assert serial[i].remote_bytes_by_kind == cached[i].remote_bytes_by_kind

    def test_event_counts_identical_when_executed(self, three_ways):
        serial, parallel, _ = three_ways
        for s, p in zip(serial, parallel):
            assert run_result_to_dict(s)["event_counts"] == \
                run_result_to_dict(p)["event_counts"]


class TestHarnessIntegration:
    def test_run_sweep_with_parallel_executor_matches_serial(self):
        base = ExperimentConfig(steps=2)
        serial = run_sweep(base, procs_per_group=(1, 2), with_sequential=True)
        parallel = run_sweep(base, procs_per_group=(1, 2), with_sequential=True,
                             executor=ParallelExecutor(jobs=2))
        assert serial.exec_stats is not None and parallel.exec_stats is not None
        assert parallel.exec_stats.jobs == 2
        assert "runs" in parallel.exec_stats.summary()
        for s, p in zip(serial.pairs, parallel.pairs):
            assert comparable(s.parallel) == comparable(p.parallel)
            assert comparable(s.distributed) == comparable(p.distributed)
            assert comparable(s.sequential) == comparable(p.sequential)

    def test_sweep_sequential_shared_and_cached_once(self, tmp_path):
        ex = SerialExecutor(cache=ResultCache(tmp_path))
        base = ExperimentConfig(steps=2)
        sw = run_sweep(base, procs_per_group=(1, 2), with_sequential=True,
                       executor=ex)
        assert sw.pairs[0].sequential is sw.pairs[1].sequential
        # the sequential reference is keyed on the *normalised* config, so
        # any sweep over the same workload shares one entry
        key = task_key(sequential_config(replace(base, procs_per_group=4)),
                       "sequential")
        assert ex.cache.get(key) is not None

    def test_replicate_through_executor(self):
        from repro.harness import replicate

        rep = replicate(ExperimentConfig(steps=2, procs_per_group=1),
                        seeds=(1, 2), executor=SerialExecutor())
        assert len(rep.pairs) == 2
        assert rep.exec_stats is not None and rep.exec_stats.ntasks == 4
        assert rep.exec_stats.summary().startswith("executor:")

    def test_fault_scenarios_keep_events_by_default(self, tmp_path):
        from repro.harness import run_fault_scenarios

        ex = SerialExecutor(cache=ResultCache(tmp_path))
        base = ExperimentConfig(steps=2, procs_per_group=1)
        first = run_fault_scenarios(base, scenarios=("none", "slowdown"),
                                    executor=ex)
        second = run_fault_scenarios(base, scenarios=("none", "slowdown"),
                                     executor=ex)
        for results in (first, second):
            for pair in results.values():
                assert pair.distributed.events is not None
        # parallel runs are cache-served on the second pass
        assert ex.batches[-1].cache_hits == 2
        assert comparable(first["slowdown"].parallel) == \
            comparable(second["slowdown"].parallel)
