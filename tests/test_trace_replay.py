"""Replay correctness: the golden bit-for-bit contract, cross-scheme
replays, desync detection and the executor/cache integration.

The central claim (docs/TRACES.md): replaying a just-recorded trace under
the identical system + scheme reproduces the recorded run's DLB decisions
and :class:`RunResult` *bit-for-bit* -- including the full event log --
without running the AMR solver.
"""

import gzip
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import ExecParams, FaultParams, TraceParams
from repro.core.registry import available_schemes
from repro.exec import make_executor
from repro.harness.experiment import (
    ExperimentConfig,
    resolve_trace_config,
    run_experiment,
    run_sequential,
)
from repro.harness.persist import run_result_to_dict
from repro.harness.sweep import run_fault_scenarios, run_sweep
from repro.traces import (
    TraceFormatError,
    TraceReplayError,
    TraceReplayRunner,
    read_trace,
    record_run,
    replay_trace,
    write_trace,
)

DATA = Path(__file__).parent / "data"

SMALL = ExperimentConfig(procs_per_group=2, steps=3, domain_cells=16,
                         max_levels=3)
#: every registered scheme (the built-ins, at collection time)
ALL_SCHEMES = available_schemes()


def _events_as_tuples(result):
    """The full event log, comparable field by field."""
    return [
        (type(e).__name__, sorted(vars(e).items()))
        for e in (result.events or [])
    ]


class TestGoldenEquivalence:
    """Replay under the recorded scheme + system is bit-for-bit exact."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_replay_reproduces_recorded_run(self, scheme):
        recorded, trace = record_run(SMALL, scheme)
        replayed = replay_trace(trace, SMALL, scheme, strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)
        assert _events_as_tuples(replayed) == _events_as_tuples(recorded)

    def test_replay_through_harness_from_file(self, tmp_path):
        out = tmp_path / "run.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, trace=TraceParams(source=str(out), strict=True))
        replayed = run_experiment(cfg, "distributed")
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)

    def test_replay_with_faults_matches_faulted_recording(self):
        faulted = replace(SMALL, fault=FaultParams(scenario="slowdown"))
        recorded, trace = record_run(faulted, "distributed")
        replayed = replay_trace(trace, faulted, "distributed", strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)

    def test_stale_manifests_fall_back_to_geometry(self):
        """Messages follow the replayed hierarchy, not the recorded one: a
        parallel-DLB recording replayed under the distributed scheme
        matches the distributed scheme's own recording."""
        from repro.core.registry import make_scheme
        from repro.harness.experiment import make_faults, make_system

        cfg = replace(SMALL, procs_per_group=4, steps=4, traffic_kind="bursty",
                      fault=FaultParams(scenario="slowdown", severity=8.0))
        _, trace = record_run(cfg, "parallel")
        recorded, _ = record_run(cfg, "distributed")
        runner = TraceReplayRunner(trace, make_system(cfg),
                                   make_scheme("distributed"),
                                   sim_params=cfg.sim_params,
                                   scheme_params=cfg.effective_scheme_params(),
                                   fault_schedule=make_faults(cfg))
        replayed = runner.run(cfg.steps)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)

    def test_manifest_free_replay_still_matches(self):
        """A recording holds no message manifests: the replayer derives
        every message from its own hierarchy, to identical results."""
        recorded, trace = record_run(SMALL, "distributed")
        assert not any(r["op"] == "manifest" for r in trace.records)
        replayed = replay_trace(trace, SMALL, "distributed", strict=True)
        assert run_result_to_dict(replayed) == run_result_to_dict(recorded)


class TestTracesWithManifests:
    """Version-1 traces recorded before replay derived every message from
    its own hierarchy carry per-level ``manifest`` records; they still read
    (manifests validated and dropped) and replay strictly to the recorded
    run's hash.  The fixture was recorded by such a build."""

    @pytest.fixture(scope="class")
    def fixture(self):
        meta = json.loads((DATA / "with_manifests.json").read_text())
        return meta, DATA / meta["trace"]

    def test_read_drops_manifests(self, fixture):
        meta, path = fixture
        with gzip.open(path, "rt", encoding="ascii") as fh:
            ops = [json.loads(line).get("op") for line in fh]
        assert ops.count("manifest") == meta["manifest_records"] > 0
        trace = read_trace(path)
        assert "manifest" not in {r["op"] for r in trace.records}
        assert len(trace.records) == (meta["records"]
                                      - meta["manifest_records"])

    def test_manifest_fields_are_validated(self, fixture, tmp_path):
        _, path = fixture
        with gzip.open(path, "rt", encoding="ascii") as fh:
            lines = [json.loads(line) for line in fh]
        index, record = next((i, r) for i, r in enumerate(lines[1:])
                             if r["op"] == "manifest")
        record["sib"] = "x"
        bad = tmp_path / "bad.trace.jsonl.gz"
        with gzip.open(bad, "wt", encoding="ascii") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in lines)
        with pytest.raises(TraceFormatError,
                           match=rf"record {index} \('manifest'\) field 'sib'"):
            read_trace(bad)

    def test_write_refuses_manifests(self, fixture, tmp_path):
        trace = read_trace(fixture[1])
        trace.records.insert(0, {"op": "manifest", "l": 0, "v": 1,
                                 "sib": [], "pc": []})
        with pytest.raises(TraceFormatError, match="never written"):
            write_trace(trace, tmp_path / "t.trace.jsonl.gz")

    def test_strict_replay_matches_recorded_hash(self, fixture):
        meta, path = fixture
        cfg = replace(ExperimentConfig(**meta["config"]),
                      trace=TraceParams(source=str(path), strict=True))
        result = run_experiment(cfg, meta["scheme"])
        payload = json.dumps(run_result_to_dict(result), sort_keys=True)
        assert (hashlib.sha256(payload.encode()).hexdigest()
                == meta["result_sha256"])


class TestCrossReplay:
    """One trace, many what-ifs: different scheme / gamma / system / faults."""

    @pytest.fixture(scope="class")
    def trace(self):
        _, trace = record_run(SMALL, "distributed")
        return trace

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_any_scheme_replays(self, trace, scheme):
        result = replay_trace(trace, SMALL, scheme)
        assert result.nsteps == SMALL.steps
        assert result.total_time > 0

    def test_gamma_changes_decisions(self, trace):
        eager = replay_trace(trace, replace(SMALL, gamma=0.0), "distributed")
        reluctant = replay_trace(trace, replace(SMALL, gamma=1e9), "distributed")
        assert eager.redistributions >= reluctant.redistributions
        assert reluctant.redistributions == 0

    def test_other_system_shape(self, trace):
        result = replay_trace(trace, replace(SMALL, procs_per_group=4,
                                             network="lan"), "distributed")
        assert result.system == "4+4procs"

    def test_fault_schedule_applies(self, trace):
        clean = replay_trace(trace, SMALL, "static")
        hurt = replay_trace(trace, replace(SMALL, fault=FaultParams(
            scenario="slowdown", severity=8.0)), "static")
        assert hurt.total_time > clean.total_time

    def test_sequential_reference(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        # strict stays on: run_sequential drops it (the E(1) reference is a
        # cross-scheme replay by construction)
        cfg = replace(SMALL, trace=TraceParams(source=str(out), strict=True))
        result = run_sequential(cfg)
        assert result.total_time > 0
        assert result.comm_time == 0.0


class TestDesyncDetection:
    def test_more_steps_than_recorded_raises(self):
        _, trace = record_run(SMALL, "distributed")
        from repro.core.registry import make_scheme
        from repro.harness.experiment import make_system

        runner = TraceReplayRunner(trace, make_system(SMALL),
                                   make_scheme("distributed"),
                                   sim_params=SMALL.sim_params)
        with pytest.raises(TraceReplayError, match="holds"):
            runner.run(SMALL.steps + 5)

    def test_harness_clamps_to_trace_length(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, steps=50,
                      trace=TraceParams(source=str(out)))
        result = run_experiment(cfg, "distributed")
        assert result.nsteps == SMALL.steps

    def test_strict_cross_scheme_divergence_raises(self):
        """Recorded under a splitting scheme, strictly replayed under a
        non-splitting one: the hierarchies legitimately diverge and strict
        says so instead of silently re-balancing different workloads."""
        _, trace = record_run(SMALL, "distributed")
        with pytest.raises(TraceReplayError, match="divergence"):
            replay_trace(trace, SMALL, "static", strict=True)

    def test_cli_reports_strict_divergence_and_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        rc = main(["replay", str(out), "--procs", "2", "--scheme", "static",
                   "--strict", "--no-cache"])
        assert rc == 2
        assert capsys.readouterr().out.startswith(
            "error: strict replay divergence at level 0 seq 1")


def _duplicated_box_trace(path):
    """``synth:hotspot`` with the first regrid record's first cluster box
    appended to that record again, written to ``path``."""
    from repro.traces.synth import generate_trace, make_synth_workload

    workload = make_synth_workload("hotspot", domain_cells=16, max_levels=3,
                                   ndim=3, seed=0)
    trace = generate_trace(workload, steps=2, nprocs=4)
    rec = next(r for r in trace.records if r["op"] == "regrid")
    rec["b"].append(rec["b"][0])
    write_trace(trace, path)
    return path


DUPLICATE_BOX_ERROR = ("box Box(lo=(2, 6, 4), hi=(8, 16, 16)) overlaps box "
                       "Box(lo=(2, 6, 4), hi=(8, 16, 16)) on level 1")


class TestReplayValidatesRegrids:
    """Replay validates every regrid like a live run: a trace whose cluster
    boxes overlap is refused instead of installing overlapping grids."""

    def test_overlapping_cluster_boxes_raise(self, tmp_path):
        from repro.core.registry import make_scheme
        from repro.distsys import build_system, multi_site_spec

        path = _duplicated_box_trace(tmp_path / "dup.trace.jsonl.gz")
        with pytest.raises(ValueError) as err:
            TraceReplayRunner(path, build_system(multi_site_spec([2, 2])),
                              make_scheme("distributed"))
        assert str(err.value) == DUPLICATE_BOX_ERROR

    def test_cli_reports_error_and_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = _duplicated_box_trace(tmp_path / "dup.trace.jsonl.gz")
        rc = main(["replay", str(path), "--procs", "2", "--no-cache"])
        assert rc == 2
        assert f"error: {DUPLICATE_BOX_ERROR}" in capsys.readouterr().out


class TestExecutorIntegration:
    def test_replay_results_cache_by_trace_content(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        ex = make_executor(ExecParams(jobs=1, use_cache=True,
                                      cache_dir=str(tmp_path / "cache")))
        cfg = replace(SMALL, trace=TraceParams(source=str(out)))
        first = run_experiment(cfg, "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 0
        second = run_experiment(cfg, "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 1
        assert first.total_time == second.total_time == recorded.total_time

        # the same bytes under another name must hit as well
        copy = tmp_path / "renamed.trace.jsonl.gz"
        copy.write_bytes(out.read_bytes())
        run_experiment(replace(cfg, trace=TraceParams(source=str(copy))),
                       "distributed", executor=ex)
        assert ex.last_stats.cache_hits == 1

    def test_changed_bytes_fail_pinned_hash(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = resolve_trace_config(
            replace(SMALL, trace=TraceParams(source=str(out))))
        # overwrite with a different (valid) trace: pinned hash must reject
        _, other = record_run(replace(SMALL, steps=2), "distributed")
        write_trace(other, out)
        with pytest.raises(TraceFormatError, match="content changed"):
            run_experiment(cfg, "distributed")

    def test_replay_trace_str_source_uses_executor(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        recorded, _ = record_run(SMALL, "distributed", out=out)
        ex = make_executor(ExecParams(jobs=1, use_cache=True,
                                      cache_dir=str(tmp_path / "cache")))
        result = replay_trace(str(out), SMALL, "distributed", executor=ex)
        assert result.total_time == recorded.total_time

    def test_replay_trace_object_rejects_executor(self):
        _, trace = record_run(SMALL, "distributed")
        with pytest.raises(ValueError, match="write_trace"):
            replay_trace(trace, SMALL, "distributed", executor=object())


class TestSweepsOverTraces:
    def test_sweep_from_file_trace(self, tmp_path):
        out = tmp_path / "t.trace.jsonl.gz"
        record_run(SMALL, "distributed", out=out)
        cfg = replace(SMALL, trace=TraceParams(source=str(out)))
        sweep = run_sweep(cfg, procs_per_group=(1, 2))
        assert len(sweep.pairs) == 2
        for pair in sweep.pairs:
            assert pair.parallel.total_time > 0
            assert pair.distributed.total_time > 0

    def test_fault_scenarios_from_synth_trace(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:adversarial"))
        results = run_fault_scenarios(cfg, scenarios=("none", "slowdown"))
        assert set(results) == {"none", "slowdown"}
        for pair in results.values():
            assert pair.distributed.app == "synth:adversarial"

    def test_synth_replay_deterministic_across_calls(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:hotspot", seed=3))
        a = run_experiment(cfg, "distributed")
        b = run_experiment(cfg, "distributed")
        assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_unknown_synth_name_raises(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:warpdrive"))
        with pytest.raises(ValueError, match="registered"):
            run_experiment(cfg, "distributed")


class TestObservability:
    def test_replay_emits_trace_metrics(self):
        from repro.obs import get_default_metrics

        _, trace = record_run(SMALL, "distributed")
        before = get_default_metrics().counter("trace.replayed_runs").value
        replay_trace(trace, SMALL, "distributed")
        after = get_default_metrics().counter("trace.replayed_runs").value
        assert after == before + 1

    def test_record_emits_trace_metrics(self):
        from repro.obs import get_default_metrics

        before = get_default_metrics().counter("trace.recorded_runs").value
        record_run(SMALL, "distributed")
        after = get_default_metrics().counter("trace.recorded_runs").value
        assert after == before + 1

    def test_traced_replay_has_spans(self):
        from repro.obs import Tracer

        _, trace = record_run(SMALL, "distributed")
        tracer = Tracer()
        result = replay_trace(trace, SMALL, "distributed", tracer=tracer)
        assert result.spans
        assert tracer.record_count > 0
