"""Tests for JSON persistence and timeline rendering."""

from __future__ import annotations

import json

import pytest

from repro.harness import (
    ExperimentConfig,
    SweepResult,
    load_fault_scenarios,
    load_replicated,
    load_run,
    load_sweep,
    render_event_listing,
    render_step_timeline,
    replicate,
    run_experiment,
    run_fault_scenarios,
    run_paired,
    run_sweep,
    save_fault_scenarios,
    save_replicated,
    save_run,
    save_sweep,
    step_timeline,
)
from repro.config import ServiceConfig, TraceParams
from repro.distsys import multi_site_spec
from repro.harness.persist import run_result_from_dict, run_result_to_dict


@pytest.fixture(scope="module")
def result():
    return run_experiment(ExperimentConfig(procs_per_group=2, steps=3), "distributed")


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(
        ExperimentConfig(procs_per_group=1, steps=2),
        procs_per_group=(1,), with_sequential=True,
    )


class TestRunPersistence:
    def test_dict_roundtrip(self, result):
        d = run_result_to_dict(result)
        back = run_result_from_dict(d)
        assert back.total_time == result.total_time
        assert back.scheme == result.scheme
        assert back.remote_bytes_by_kind == result.remote_bytes_by_kind
        assert back.events is None  # events summarised, not kept

    def test_dict_is_json_safe(self, result):
        json.dumps(run_result_to_dict(result))

    def test_event_counts_summarised(self, result):
        d = run_result_to_dict(result)
        assert d["event_counts"]["ComputeEvent"] > 0

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_run(result, path)
        back = load_run(path)
        assert back.total_time == pytest.approx(result.total_time)
        assert back.comm_by_purpose == result.comm_by_purpose

    def test_wrong_kind_rejected(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_run(result, path)
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "kind": "run", "run": {}}))
        with pytest.raises(ValueError):
            load_run(path)


class TestSweepPersistence:
    def test_file_roundtrip(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        back = load_sweep(path)
        assert len(back.pairs) == len(sweep.pairs)
        assert back.pairs[0].improvement == pytest.approx(sweep.pairs[0].improvement)
        # derived efficiency still computes from the reloaded sequential run
        assert back.pairs[0].parallel_efficiency == pytest.approx(
            sweep.pairs[0].parallel_efficiency
        )

    def test_config_reconstructed(self, sweep, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        back = load_sweep(path)
        assert back.pairs[0].config.label == sweep.pairs[0].config.label
        assert back.pairs[0].config.gamma == sweep.pairs[0].config.gamma


    @pytest.mark.parametrize("extra", [
        {"system": multi_site_spec([2, 2, 2])},
        {"trace": TraceParams(source="synth:hotspot", seed=3, intensity=2.0)},
        {"service": ServiceConfig(nshards=4, duration_seconds=20.0,
                                  router="ewma")},
    ], ids=["spec", "trace", "service"])
    def test_full_config_round_trips(self, extra, tmp_path):
        """Every field survives, not just the headline ones."""
        cfg = ExperimentConfig(procs_per_group=1, steps=1, domain_cells=8,
                               max_levels=2, traffic_seed=3, base_speed=3e4,
                               **extra)
        # a sweep varies procs_per_group, so a spec config is one pair
        sweep = SweepResult(pairs=[run_paired(cfg)])
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        assert load_sweep(path).pairs[0].config == sweep.pairs[0].config

    def test_headline_only_layout_still_loads(self, sweep, tmp_path):
        """Files whose configs kept only the headline fields load, with the
        missing fields at their defaults."""
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        payload = json.loads(path.read_text())
        headline = ("app_name", "network", "procs_per_group", "steps",
                    "domain_cells", "max_levels", "traffic_kind",
                    "traffic_level", "gamma", "fault")
        for pair in payload["pairs"]:
            pair["config"] = {k: pair["config"][k] for k in headline}
        path.write_text(json.dumps(payload))
        back = load_sweep(path)
        assert back.pairs[0].config == sweep.pairs[0].config
        assert back.pairs[0].improvement == pytest.approx(
            sweep.pairs[0].improvement)


class TestReplicatedPersistence:
    @pytest.fixture(scope="class")
    def replicated(self):
        return replicate(
            ExperimentConfig(procs_per_group=1, steps=2), seeds=(1, 2)
        )

    def test_file_roundtrip(self, replicated, tmp_path):
        path = tmp_path / "replicated.json"
        save_replicated(replicated, path)
        back = load_replicated(path)
        assert back.seeds == replicated.seeds
        assert len(back.pairs) == len(replicated.pairs)
        # the spread statistics recompute identically from reloaded pairs
        assert back.mean_improvement == pytest.approx(replicated.mean_improvement)
        assert back.std_improvement == pytest.approx(replicated.std_improvement)
        assert back.summary() == replicated.summary()

    def test_full_config_survives(self, replicated, tmp_path):
        path = tmp_path / "replicated.json"
        save_replicated(replicated, path)
        back = load_replicated(path)
        # per-seed configs keep their traffic seed
        assert [p.config.traffic_seed for p in back.pairs] == [1, 2]
        assert back.pairs[0].config == replicated.pairs[0].config

    def test_wrong_kind_rejected(self, replicated, tmp_path):
        path = tmp_path / "replicated.json"
        save_replicated(replicated, path)
        with pytest.raises(ValueError):
            load_sweep(path)
        with pytest.raises(ValueError):
            load_fault_scenarios(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "kind": "replicated"}))
        with pytest.raises(ValueError):
            load_replicated(path)


class TestFaultScenarioPersistence:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return run_fault_scenarios(
            ExperimentConfig(procs_per_group=1, steps=2),
            scenarios=("none", "slowdown"),
        )

    def test_file_roundtrip_preserves_order(self, scenarios, tmp_path):
        path = tmp_path / "faults.json"
        save_fault_scenarios(scenarios, path)
        back = load_fault_scenarios(path)
        assert list(back) == list(scenarios)
        for name in scenarios:
            assert back[name].improvement == pytest.approx(
                scenarios[name].improvement
            )

    def test_fault_params_survive(self, scenarios, tmp_path):
        path = tmp_path / "faults.json"
        save_fault_scenarios(scenarios, path)
        back = load_fault_scenarios(path)
        assert back["none"].config.fault is None
        assert back["slowdown"].config.fault == scenarios["slowdown"].config.fault

    def test_wrong_kind_rejected(self, scenarios, tmp_path):
        path = tmp_path / "faults.json"
        save_fault_scenarios(scenarios, path)
        with pytest.raises(ValueError):
            load_replicated(path)


class TestTimeline:
    def test_one_row_per_coarse_step(self, result):
        steps = step_timeline(result.events)
        assert len(steps) == result.nsteps

    def test_compute_sums_match_total(self, result):
        steps = step_timeline(result.events)
        total_compute = sum(s["compute"] for s in steps)
        assert total_compute == pytest.approx(result.compute_time, rel=1e-9)

    def test_regrid_counts(self, result):
        steps = step_timeline(result.events)
        # 3 levels -> 1 + 2 regrids per coarse step
        assert all(s["regrids"] == 3 for s in steps)

    def test_render_table(self, result):
        out = render_step_timeline(result.events)
        assert "Per-coarse-step activity" in out
        assert str(result.nsteps - 1) in out

    def test_event_listing_limit(self, result):
        out = render_event_listing(result.events, limit=5)
        assert "more events" in out
        assert len(out.splitlines()) == 6

    def test_event_listing_full(self, result):
        out = render_event_listing(result.events)
        assert len(out.splitlines()) == len(result.events)
