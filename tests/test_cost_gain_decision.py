"""Unit tests for the paper's Eq. 1 (cost), Eqs. 2-4 (gain) and the gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import CostEstimate, CostModel
from repro.core.decision import decide
from repro.core.gain import CoarseStepRecord, WorkloadHistory, estimate_gain
from repro.distsys import ConstantTraffic, build_system, wan_spec


class TestCostModel:
    def test_eq1_structure(self):
        model = CostModel(initial_delta=0.1)
        est = model.estimate(alpha=0.01, beta=1e-6, migrate_bytes=1e6)
        assert est.communication == pytest.approx(0.01 + 1.0)
        assert est.total == pytest.approx(0.01 + 1.0 + 0.1)

    def test_delta_updates_from_history(self):
        """'recording the computational overhead of the previous iteration'"""
        model = CostModel(initial_delta=0.5)
        assert model.delta == 0.5
        model.record_overhead(0.12)
        assert model.delta == 0.12
        est = model.estimate(0.0, 0.0, 0.0)
        assert est.total == pytest.approx(0.12)

    def test_latest_measurement_wins(self):
        model = CostModel()
        model.record_overhead(1.0)
        model.record_overhead(0.3)
        assert model.delta == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(initial_delta=-1)
        model = CostModel()
        with pytest.raises(ValueError):
            model.record_overhead(-0.1)
        with pytest.raises(ValueError):
            model.estimate(-1, 0, 0)
        with pytest.raises(ValueError):
            model.estimate(0, 0, -5)

    def test_zero_bytes_cost_is_alpha_plus_delta(self):
        model = CostModel(initial_delta=0.2)
        est = model.estimate(0.05, 1e-6, 0.0)
        assert est.total == pytest.approx(0.25)


class TestWorkloadHistory:
    def test_record_and_rotate(self):
        h = WorkloadHistory()
        h.record_solve(0, np.array([10.0, 5.0]))
        h.record_solve(1, np.array([4.0, 4.0]))
        last = np.array([3.0, 5.0])
        h.record_solve(1, last)
        last[0] = 99.0  # the history keeps its own copy
        rec = h.end_coarse_step(walltime=2.0)
        assert rec.level_iterations == {0: 1, 1: 2}
        # the *last* solve of each level is kept (w^i_proc at time t)
        assert rec.proc_level_loads[1].tolist() == [3.0, 5.0]
        assert rec.walltime == 2.0
        assert h.last_complete is rec
        assert len(h._complete) == 1

    def test_keep_bounds_history(self):
        h = WorkloadHistory(keep=2)
        for i in range(5):
            h.record_solve(0, np.array([float(i)]))
            h.end_coarse_step(1.0)
        assert len(h._complete) == 2
        assert h.last_complete.proc_level_loads[0].tolist() == [4.0]

    def test_group_math_eq2_eq3(self):
        system = build_system(wan_spec(2),
                              traffic=ConstantTraffic(0.0))  # pids 0,1 | 2,3
        rec = CoarseStepRecord(
            index=0,
            proc_level_loads={
                0: np.array([10.0, 10.0, 5.0, 5.0]),
                1: np.array([8.0, 0.0, 2.0, 2.0]),
            },
            level_iterations={0: 1, 1: 2},
            walltime=4.0,
        )
        # Eq. 3: W_group = sum_i W^i_group * N_iter(i), with Eq. 2's
        # W^0 = (20, 10) and W^1 = (8, 4)
        assert rec.group_totals(system).tolist() == [20.0 + 2 * 8.0,
                                                     10.0 + 2 * 4.0]

    def test_negative_walltime_raises(self):
        h = WorkloadHistory()
        with pytest.raises(ValueError):
            h.end_coarse_step(-1.0)


class TestEstimateGain:
    def make_history(self, loads_a, loads_b, walltime=10.0):
        h = WorkloadHistory()
        h.record_solve(0, np.array([loads_a, 0.0, loads_b, 0.0]))
        h.end_coarse_step(walltime)
        return h

    def test_eq4_two_groups(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        h = self.make_history(30.0, 10.0, walltime=8.0)
        # Gain = T * (max-min)/(N*max) = 8 * 20/(2*30)
        assert estimate_gain(h, system) == pytest.approx(8.0 * 20.0 / 60.0)

    def test_balanced_zero_gain(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        h = self.make_history(10.0, 10.0)
        assert estimate_gain(h, system) == 0.0

    def test_no_history_zero_gain(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        assert estimate_gain(WorkloadHistory(), system) == 0.0

    def test_idle_system_zero_gain(self):
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        h = self.make_history(0.0, 0.0)
        assert estimate_gain(h, system) == 0.0

    def test_gain_bounded_by_walltime(self):
        """Eq. 4 is 'a very conservative estimate': gain <= T/N_groups."""
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        h = self.make_history(100.0, 0.0, walltime=6.0)
        assert estimate_gain(h, system) <= 6.0 / 2 + 1e-12


class TestDecide:
    def est(self, total):
        return CostEstimate(alpha=total, beta=0.0, migrate_bytes=0.0, delta=0.0)

    def test_gate_fires_above_gamma_cost(self):
        d = decide(gain=1.0, cost=self.est(0.4), gamma=2.0)
        assert d.invoke

    def test_gate_blocks_below(self):
        d = decide(gain=0.5, cost=self.est(0.4), gamma=2.0)
        assert not d.invoke

    def test_boundary_not_invoked(self):
        """Strict inequality: Gain > gamma*Cost."""
        d = decide(gain=0.8, cost=self.est(0.4), gamma=2.0)
        assert not d.invoke

    def test_gamma_zero_always_fires_on_positive_gain(self):
        assert decide(1e-9, self.est(100.0), 0.0).invoke

    def test_validation(self):
        with pytest.raises(ValueError):
            decide(-1.0, self.est(1.0), 2.0)
        with pytest.raises(ValueError):
            decide(1.0, self.est(1.0), -2.0)
