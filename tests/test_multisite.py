"""Tests for federations of more than two groups.

The paper's testbed has two sites, but nothing in the scheme is binary:
Eq. 4's gain and the capacity-proportional global phase are defined over any
number of groups.  These tests pin that generality down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.applications import ShockPool3D
from repro.core import make_scheme
from repro.core.gain import WorkloadHistory, estimate_gain
from repro.core.policies import NominalWeights
from repro.distsys import ConstantTraffic, build_system, multi_site_spec
from repro.partition import group_capacities
from repro.runtime import SAMRRunner


class TestMultiSiteSystem:
    def test_three_sites_shape(self):
        s = build_system(multi_site_spec([2, 2, 2]), traffic=ConstantTraffic(0.2))
        assert s.ngroups == 3
        assert s.nprocs == 6
        # every pair connected with its own link
        pairs = ((0, 1), (0, 2), (1, 2))
        assert {len(s.route_between(*p).links) for p in pairs} == {1}
        assert len({id(s.route_between(*p).links[0]) for p in pairs}) == 3

    def test_uneven_sites(self):
        s = build_system(multi_site_spec([1, 2, 4]))
        caps = group_capacities(s, NominalWeights().processor_weights(s, 0.0))
        assert caps[2] / sum(caps.tolist()) == pytest.approx(4 / 7)

    def test_weighted_sites(self):
        s = build_system(multi_site_spec([2, 2], group_weights=[1.0, 3.0]))
        caps = group_capacities(s, NominalWeights().processor_weights(s, 0.0))
        assert caps[1] / sum(caps.tolist()) == pytest.approx(0.75)

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            build_system(multi_site_spec([4]))


class TestThreeSiteRuns:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in ("parallel", "distributed"):
            app = ShockPool3D(domain_cells=16, max_levels=3)
            sys_ = build_system(multi_site_spec([2, 2, 2], base_speed=2e4),
                                traffic=ConstantTraffic(0.3))
            out[name] = SAMRRunner(app, sys_, make_scheme(name)).run(4)
        return out

    def test_both_schemes_complete(self, results):
        for r in results.values():
            assert r.total_time > 0

    def test_distributed_wins_with_three_sites(self, results):
        assert results["distributed"].total_time < results["parallel"].total_time

    def test_redistributions_fire(self, results):
        assert results["distributed"].redistributions >= 1

    def test_no_remote_parent_child_three_sites(self, results):
        kinds = results["distributed"].remote_bytes_by_kind
        assert kinds.get("parent_child", 0.0) == 0.0

    def test_plan_never_moves_a_grid_twice(self):
        """Regression: with several receivers the planner must not claim
        the same donor grid for two destinations."""
        from repro.core.global_phase import plan_global_redistribution
        from repro.core.base import BalanceContext
        from repro.core.gain import WorkloadHistory
        from repro.distsys import ClusterSimulator
        from repro.partition import GridAssignment
        from repro.amr.box import Box
        from repro.amr.hierarchy import GridHierarchy
        from repro.runtime import root_blocks

        domain = Box.cube(0, 16, 3)
        h = GridHierarchy(domain, 2, 3)
        roots = h.create_root_grids(root_blocks(domain, (8, 1, 1)))
        system = build_system(multi_site_spec([2, 2, 2], base_speed=2e4),
                              traffic=ConstantTraffic(0.0))
        a = GridAssignment(h, system)
        # pile everything on site 0: two receivers with deficits
        for g in roots:
            a.assign(g.gid, 0)
        ctx = BalanceContext(
            hierarchy=h, assignment=a, system=system,
            sim=ClusterSimulator(system), history=WorkloadHistory(),
        )
        plan = plan_global_redistribution(
            ctx, NominalWeights().processor_weights(system, 0.0))
        claimed = [gid for gid, _s, _d in plan.moves] + [c.gid for c in plan.carves]
        assert len(claimed) == len(set(claimed))
        assert not plan.empty
        # both receivers get grids
        dst_groups = {system.processor(d).group_id for _g, _s, d in plan.moves}
        assert dst_groups >= {1, 2}


class TestGainWithThreeGroups:
    def test_eq4_uses_group_count(self):
        system = build_system(multi_site_spec([1, 1, 1]), traffic=ConstantTraffic(0.0))
        h = WorkloadHistory()
        h.record_solve(0, np.array([30.0, 10.0, 20.0]))
        h.end_coarse_step(walltime=9.0)
        # Gain = T * (max-min)/(N*max) = 9 * 20/(3*30)
        assert estimate_gain(h, system) == pytest.approx(2.0)
