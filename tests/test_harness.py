"""Unit tests for the experiment harness (configs, sweeps, reports)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SchemeParams
from repro.distsys import multi_site_spec
from repro.distsys.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    NoTraffic,
)
from repro.harness import (
    ExperimentConfig,
    format_percent,
    format_table,
    make_app,
    make_scheme,
    make_system,
    make_traffic,
    run_paired,
    run_sweep,
)
from repro.harness.report import comparison_block


class TestExperimentConfig:
    def test_label(self):
        assert ExperimentConfig(procs_per_group=4).label == "4+4"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(app_name="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(network="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(procs_per_group=0)
        with pytest.raises(ValueError):
            ExperimentConfig(steps=0)

    def test_gamma_flows_into_scheme_params(self):
        cfg = ExperimentConfig(gamma=5.0)
        assert cfg.effective_scheme_params().gamma == 5.0

    def test_spec_label(self):
        cfg = ExperimentConfig(system=multi_site_spec([2, 2, 2]))
        assert cfg.label == "2+2+2"

    def test_gamma_must_agree_with_scheme_params(self):
        """A γ that scheme_params would silently override is an error."""
        with pytest.raises(ValueError, match=r"scheme_params\.gamma.*gamma"):
            ExperimentConfig(gamma=1e9, scheme_params=SchemeParams(
                imbalance_threshold=1.05))
        cfg = ExperimentConfig(gamma=1e9, scheme_params=SchemeParams(
            gamma=1e9, imbalance_threshold=1.05))
        assert cfg.effective_scheme_params().gamma == 1e9
        # the what-if of docs/TRACES.md no longer silently does nothing
        with pytest.raises(ValueError):
            replace(cfg, gamma=8.0)


class TestFactories:
    def test_make_traffic_kinds(self):
        assert isinstance(make_traffic(ExperimentConfig(traffic_kind="none")), NoTraffic)
        assert isinstance(
            make_traffic(ExperimentConfig(traffic_kind="constant")), ConstantTraffic
        )
        assert isinstance(
            make_traffic(ExperimentConfig(traffic_kind="diurnal")), DiurnalTraffic
        )
        assert isinstance(
            make_traffic(ExperimentConfig(traffic_kind="bursty")), BurstyTraffic
        )

    def test_make_app_names(self):
        for name in ("shockpool3d", "amr64", "blastwave"):
            app = make_app(ExperimentConfig(app_name=name, domain_cells=16))
            assert app.domain_cells == 16

    def test_make_system_shapes(self):
        wan = make_system(ExperimentConfig(network="wan", procs_per_group=3))
        assert wan.ngroups == 2 and wan.nprocs == 6
        par = make_system(ExperimentConfig(network="parallel", procs_per_group=3))
        assert par.ngroups == 1 and par.nprocs == 6

    def test_make_scheme(self):
        assert make_scheme("parallel").name == "parallel DLB"
        assert make_scheme("distributed").name == "distributed DLB"
        with pytest.raises(ValueError):
            make_scheme("nope")


class TestSweep:
    @pytest.fixture(scope="class")
    def paired(self):
        cfg = ExperimentConfig(
            app_name="shockpool3d", network="wan", procs_per_group=2, steps=2
        )
        return run_paired(cfg, with_sequential=True)

    def test_paired_runs_both_schemes(self, paired):
        assert paired.parallel.scheme == "parallel DLB"
        assert paired.distributed.scheme == "distributed DLB"
        assert paired.sequential is not None

    def test_efficiencies_in_unit_interval(self, paired):
        assert 0 < paired.distributed_efficiency <= 1.2
        assert 0 < paired.parallel_efficiency <= 1.2

    def test_nprocs(self, paired):
        assert paired.nprocs == 4

    def test_sweep_shares_sequential(self):
        cfg = ExperimentConfig(steps=2)
        sw = run_sweep(cfg, procs_per_group=(1, 2), with_sequential=True)
        assert sw.pairs[0].sequential is sw.pairs[1].sequential
        assert len(sw.improvements) == 2
        assert sw.pairs[0].config.label == "1+1"

    def test_spec_pair_reports_the_spec_shape(self):
        """Efficiency divides by the processors the runs actually use."""
        cfg = ExperimentConfig(system=multi_site_spec([2, 2, 2]), steps=2)
        pair = run_paired(cfg, with_sequential=True)
        assert pair.nprocs == 6
        assert 0 < pair.parallel_efficiency <= 1
        assert 0 < pair.distributed_efficiency <= 1

    def test_sweep_rejects_spec_config(self):
        cfg = ExperimentConfig(system=multi_site_spec([2, 2, 2]), steps=2)
        with pytest.raises(ValueError, match="run_paired per spec"):
            run_sweep(cfg, procs_per_group=(1, 2))

    def test_sequential_missing_raises(self):
        cfg = ExperimentConfig(steps=2)
        sw = run_sweep(cfg, procs_per_group=(1,), with_sequential=False)
        with pytest.raises(ValueError):
            sw.pairs[0].parallel_efficiency


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [("a", 1.0), ("bb", 20.5)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "20.500" in out

    def test_format_table_title(self):
        out = format_table(["x"], [(1,)], title="T")
        assert out.splitlines()[0] == "T"

    def test_format_table_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out

    def test_format_table_stable(self):
        rows = [("x", 1.0), ("y", 2.0)]
        assert format_table(["k", "v"], rows) == format_table(["k", "v"], rows)

    def test_format_percent(self):
        assert format_percent(0.297) == "29.7%"
        assert format_percent(0.5, digits=0) == "50%"

    def test_comparison_block(self):
        out = comparison_block("Fig. 7", "9-46%", "11-33%", "shape holds")
        assert "paper:" in out and "measured:" in out and "verdict:" in out
