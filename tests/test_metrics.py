"""Unit tests for metrics: efficiency (Fig. 8), imbalance, RunResult."""

from __future__ import annotations

import pytest

from repro.distsys import build_system, multi_site_spec, parallel_spec
from repro.metrics import (
    RunResult,
    efficiency,
    imbalance_ratio,
    max_min_ratio,
    normalized_std,
    relative_power,
)


class TestEfficiency:
    def test_perfect_scaling(self):
        # E(1)=100, E=25 on 4 procs -> efficiency 1.0
        assert efficiency(100.0, 25.0, 4) == pytest.approx(1.0)

    def test_half_efficiency(self):
        assert efficiency(100.0, 50.0, 4) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            efficiency(0, 1, 1)
        with pytest.raises(ValueError):
            efficiency(1, 0, 1)
        with pytest.raises(ValueError):
            efficiency(1, 1, 0)

    def test_relative_power_homogeneous(self):
        assert relative_power(build_system(parallel_spec(8))) == 8.0

    def test_relative_power_weighted(self):
        s = build_system(multi_site_spec([2, 2], group_weights=[1.0, 2.0]))
        assert relative_power(s) == pytest.approx(6.0)
        assert relative_power(s, reference_weight=2.0) == pytest.approx(3.0)


class TestImbalance:
    def test_imbalance_ratio(self):
        assert imbalance_ratio({0: 10.0, 1: 10.0}) == 1.0
        assert imbalance_ratio({0: 30.0, 1: 10.0}) == pytest.approx(1.5)

    def test_max_min_ratio(self):
        assert max_min_ratio({0: 10.0, 1: 5.0}) == 2.0
        assert max_min_ratio({0: 10.0, 1: 0.0}) == float("inf")
        assert max_min_ratio({0: 0.0, 1: 0.0}) == 1.0

    def test_normalized_std(self):
        assert normalized_std({0: 5.0, 1: 5.0}) == 0.0
        assert normalized_std({0: 0.0, 1: 10.0}) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            imbalance_ratio({})


class TestRunResult:
    def make(self, total, scheme="distributed DLB"):
        return RunResult(
            scheme=scheme, app="ShockPool3D", system="2x2procs", nsteps=4,
            total_time=total, compute_time=total * 0.6, comm_time=total * 0.4,
            balance_overhead=0.1, probe_time=0.01, local_comm_busy=0.2,
            remote_comm_busy=0.3, comm_by_purpose={"ghost": total * 0.4},
        )

    def test_improvement_over(self):
        fast = self.make(8.0)
        slow = self.make(10.0, scheme="parallel DLB")
        assert fast.improvement_over(slow) == pytest.approx(0.2)
        assert slow.improvement_over(fast) == pytest.approx(-0.25)

    def test_improvement_over_zero_raises(self):
        with pytest.raises(ValueError):
            self.make(1.0).improvement_over(self.make(0.0))

    def test_summary_mentions_key_facts(self):
        text = self.make(10.0).summary()
        assert "distributed DLB" in text
        assert "ShockPool3D" in text
        assert "ghost" in text
