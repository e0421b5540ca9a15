"""Unit/integration tests for the diffusive DLB baseline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.amr.applications import ShockPool3D
from repro.core import get_scheme_spec, make_scheme
from repro.core.policies import DiffusionLocal
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.metrics.imbalance import imbalance_ratio
from repro.runtime import SAMRRunner


def diffusion(sweeps=1):
    """The registered ``diffusion`` scheme with ``sweeps`` per opportunity."""
    return make_scheme(
        replace(get_scheme_spec("diffusion"), options={"sweeps": sweeps}))


class TestDiffusionTargets:
    def targets(self, loads, weights=None, sweeps=1):
        """``_targets`` on pid-indexed arrays built from pid -> value
        dicts (pids 0..n-1), returned as a pid -> target dict."""
        local = diffusion(sweeps).local_policy
        w = weights or {pid: 1.0 for pid in loads}
        out = local._targets(None, np.array([loads[p] for p in range(len(loads))]),
                             np.array([w[p] for p in range(len(loads))]))
        return dict(enumerate(out.tolist()))

    def test_single_processor_identity(self):
        assert self.targets({0: 10.0}) == {0: 10.0}

    def test_total_load_conserved(self):
        t = self.targets({0: 12.0, 1: 0.0, 2: 6.0})
        assert sum(t.values()) == pytest.approx(18.0)

    def test_one_sweep_moves_toward_mean(self):
        t = self.targets({0: 12.0, 1: 0.0})
        # n=2, alpha=1/2: each ends exactly at the mean
        assert t[0] == pytest.approx(6.0)
        assert t[1] == pytest.approx(6.0)

    def test_three_procs_partial_convergence(self):
        t = self.targets({0: 9.0, 1: 0.0, 2: 0.0})
        # alpha=1/3: l0' = 9 + (9 - 27)/3 = 3; others 3 each
        assert t[0] == pytest.approx(3.0)
        assert t[1] == pytest.approx(3.0)

    def test_more_sweeps_converge_further(self):
        loads = {0: 16.0, 1: 0.0, 2: 0.0, 3: 0.0}
        one = self.targets(loads, sweeps=1)
        many = self.targets(loads, sweeps=5)
        assert imbalance_ratio(many) <= imbalance_ratio(one)

    def test_heterogeneous_weights_respected(self):
        """Diffusion in normalised space: a weight-3 processor ends with 3x
        the load of a weight-1 processor."""
        t = self.targets({0: 8.0, 1: 0.0}, weights={0: 1.0, 1: 3.0}, sweeps=10)
        assert t[1] / t[0] == pytest.approx(3.0, rel=1e-6)

    def test_bad_sweeps_raise(self):
        with pytest.raises(ValueError):
            DiffusionLocal(sweeps=0)


class TestDiffusionRuns:
    def run(self, steps=4, sweeps=1):
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
        return SAMRRunner(app, system, diffusion(sweeps)).run(steps)

    def test_completes_and_balances(self):
        r = self.run()
        assert r.total_time > 0
        assert r.scheme == "diffusion DLB"

    def test_no_global_phase(self):
        r = self.run()
        assert r.redistributions == 0
        assert r.probe_time == 0.0

    def test_diffusion_leaks_parent_child_over_wan(self):
        """Diffusion starts children local but its sweeps migrate them
        anywhere, so remote parent-child traffic appears; the paper's
        scheme keeps it identically zero.  (Total-time ordering between
        the two is workload-dependent -- diffusion with parent-local
        placement is a genuinely competitive baseline at moderate scale,
        which the scheme-comparison benchmark reports.)"""
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(4, base_speed=2e4),
                              traffic=ConstantTraffic(0.45))
        diff = SAMRRunner(app, system, make_scheme("diffusion")).run(5)
        app2 = ShockPool3D(domain_cells=16, max_levels=3)
        system2 = build_system(wan_spec(4, base_speed=2e4),
                               traffic=ConstantTraffic(0.45))
        dist = SAMRRunner(app2, system2, make_scheme("distributed")).run(5)
        assert diff.remote_bytes_by_kind.get("parent_child", 0.0) > 0.0
        assert dist.remote_bytes_by_kind.get("parent_child", 0.0) == 0.0

    def test_compute_balance_improves_over_static(self):
        """Diffusion does reduce compute imbalance relative to no DLB."""
        app = ShockPool3D(domain_cells=16, max_levels=3)
        system = build_system(wan_spec(2, base_speed=2e4), traffic=ConstantTraffic(0.3))
        static = SAMRRunner(app, system, make_scheme("static")).run(5)
        app2 = ShockPool3D(domain_cells=16, max_levels=3)
        system2 = build_system(wan_spec(2, base_speed=2e4),
                               traffic=ConstantTraffic(0.3))
        diff = SAMRRunner(app2, system2, make_scheme("diffusion")).run(5)
        assert diff.compute_time < static.compute_time
