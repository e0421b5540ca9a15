"""Unit and property tests for mapping, proportional shares and splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.core.policies import NominalWeights
from repro.distsys import ConstantTraffic, build_system, multi_site_spec, wan_spec
from repro.partition import (
    GridAssignment,
    carve_workload,
    group_targets,
    processor_targets,
    proportional_shares,
    split_level0_grid,
)
from repro.runtime import root_blocks


def _nominal(system):
    return NominalWeights().processor_weights(system, 0.0)


def make_setup(blocks=(4, 1, 1), n=16):
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, 2, 3)
    h.create_root_grids(root_blocks(domain, blocks))
    system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
    a = GridAssignment(h, system)
    return h, system, a


class TestProportionalShares:
    def test_even(self):
        assert proportional_shares(100.0, [1, 1, 1, 1]).tolist() == [25.0] * 4

    def test_weighted(self):
        assert proportional_shares(100.0, [1, 3]).tolist() == [25.0, 75.0]

    def test_sums_to_total(self):
        shares = proportional_shares(17.3, [1.1, 2.7, 0.4])
        assert sum(shares) == pytest.approx(17.3)

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            proportional_shares(-1, [1])
        with pytest.raises(ValueError):
            proportional_shares(1, [])
        with pytest.raises(ValueError):
            proportional_shares(1, [0.0])

    @given(
        total=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        caps=st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=8),
    )
    def test_property_sum_and_proportionality(self, total, caps):
        shares = proportional_shares(total, caps)
        assert sum(shares) == pytest.approx(total, rel=1e-9, abs=1e-9)
        for s, c in zip(shares, caps):
            assert s == pytest.approx(total * c / sum(caps), rel=1e-9, abs=1e-9)

    def test_group_targets_match_paper_formula(self):
        """W * nA*pA/(nA*pA + nB*pB) from Section 4.4."""
        s = build_system(multi_site_spec([2, 4], group_weights=[3.0, 1.0]))
        targets = group_targets(s, 100.0, _nominal(s))
        assert targets[0] == pytest.approx(100.0 * 6 / 10)
        assert targets[1] == pytest.approx(100.0 * 4 / 10)

    def test_processor_targets_weighted(self):
        s = build_system(multi_site_spec([1, 1], group_weights=[1.0, 3.0]))
        targets = processor_targets(s, 80.0, _nominal(s))
        assert targets[0] == pytest.approx(20.0)
        assert targets[1] == pytest.approx(60.0)


class TestGridAssignment:
    def test_assign_and_lookup(self):
        h, s, a = make_setup()
        gid = h.level_grids(0)[0].gid
        a.assign(gid, 2)
        assert a.pid_of(gid) == 2
        assert a.group_of(gid) == 1
        assert gid in a._owner

    def test_unknown_grid_raises(self):
        h, s, a = make_setup()
        with pytest.raises(KeyError):
            a.assign(999, 0)

    def test_unknown_pid_raises(self):
        h, s, a = make_setup()
        with pytest.raises(ValueError):
            a.assign(h.level_grids(0)[0].gid, 99)

    def test_unassigned_lookup_raises(self):
        h, s, a = make_setup()
        with pytest.raises(KeyError):
            a.pid_of(h.level_grids(0)[0].gid)

    def test_loads(self):
        h, s, a = make_setup(blocks=(4, 1, 1))
        grids = h.level_grids(0)
        for i, g in enumerate(grids):
            a.assign(g.gid, i % 2)
        per_grid = grids[0].workload
        loads = a.level_loads(0)
        assert loads[0] == pytest.approx(2 * per_grid)
        assert loads[1] == pytest.approx(2 * per_grid)
        assert loads[3] == 0.0
        group_loads = [sum(loads[pid] for pid in g.pids) for g in s.groups]
        assert group_loads[0] == pytest.approx(4 * per_grid)
        assert group_loads[1] == 0.0

    def test_prune_drops_stale(self):
        h, s, a = make_setup()
        gid = h.level_grids(0)[0].gid
        for g in h.level_grids(0):
            a.assign(g.gid, 0)
        h.remove_grid(gid)
        a.prune()
        assert gid not in a._owner

    def test_validate_catches_unassigned(self):
        h, s, a = make_setup()
        with pytest.raises(ValueError):
            a.validate()

    def test_validate_catches_bad_pid(self):
        h, s, a = make_setup()
        for g in h.all_grids():
            a.assign(g.gid, 0)
        gid = h.level_grids(0)[0].gid
        a._owner[gid] = s.nprocs  # corrupt on purpose
        with pytest.raises(ValueError, match=f"grid {gid} on bad pid {s.nprocs}"):
            a.validate()

    def test_copy_is_independent(self):
        h, s, a = make_setup()
        gid = h.level_grids(0)[0].gid
        a.assign(gid, 0)
        b = a.copy()
        b.assign(gid, 1)
        assert a.pid_of(gid) == 0
        assert b.pid_of(gid) == 1


class TestSplitter:
    def test_split_preserves_cells_and_owner(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        a.assign(g.gid, 1)
        before = g.ncells
        low, high = split_level0_grid(h, a, g.gid, axis=1, at=8)
        assert low.ncells + high.ncells == before
        assert a.pid_of(low.gid) == 1
        assert a.pid_of(high.gid) == 1
        assert not h.has_grid(g.gid)

    def test_split_removes_descendants(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), g.gid)
        a.assign(g.gid, 0)
        a.assign(child.gid, 0)
        split_level0_grid(h, a, g.gid, axis=1, at=8)
        assert not h.has_grid(child.gid)
        assert child.gid not in a._owner

    def test_split_fine_level_raises(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        child = h.add_grid(1, Box((0, 0, 0), (4, 4, 4)), g.gid)
        a.assign(child.gid, 0)
        with pytest.raises(ValueError):
            split_level0_grid(h, a, child.gid, axis=0, at=2)

    def test_carve_hits_requested_workload(self):
        h, s, a = make_setup(blocks=(1, 1, 1), n=16)
        g = h.level_grids(0)[0]
        a.assign(g.gid, 0)
        want = g.workload * 0.25
        low, high = carve_workload(h, a, g.gid, want)
        assert low.workload == pytest.approx(want, rel=0.2)
        assert low.workload + high.workload == pytest.approx(16**3)

    def test_carve_bounds_validated(self):
        h, s, a = make_setup(blocks=(1, 1, 1))
        g = h.level_grids(0)[0]
        a.assign(g.gid, 0)
        with pytest.raises(ValueError):
            carve_workload(h, a, g.gid, 0.0)
        with pytest.raises(ValueError):
            carve_workload(h, a, g.gid, g.workload)

    @given(frac=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_carve_property_partition(self, frac):
        h, s, a = make_setup(blocks=(1, 1, 1), n=16)
        g = h.level_grids(0)[0]
        a.assign(g.gid, 0)
        total = g.workload
        low, high = carve_workload(h, a, g.gid, frac * total)
        assert low.workload + high.workload == pytest.approx(total)
        assert not low.box.intersects(high.box)
        assert (min(low.box.lo, high.box.lo), max(low.box.hi, high.box.hi)) == (
            (0, 0, 0), (16, 16, 16))
