"""Unit and property tests for mapping, proportional shares and splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
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
        a.assign(0, [gid], [2])
        assert a.pid_of(gid) == 2
        assert a.group_of(gid) == 1
        assert a.owners(0).tolist() == [2, -1, -1, -1]

    def test_unknown_grid_raises(self):
        h, s, a = make_setup()
        with pytest.raises(KeyError, match="grid 999 is not on level 0"):
            a.assign(0, [999], [0])

    def test_unknown_pid_raises(self):
        h, s, a = make_setup()
        with pytest.raises(ValueError, match="unknown processor 99"):
            a.assign(0, [h.level_grids(0)[0].gid], [99])

    def test_unassigned_lookup_raises(self):
        h, s, a = make_setup()
        with pytest.raises(KeyError):
            a.pid_of(h.level_grids(0)[0].gid)
        with pytest.raises(KeyError):
            a.pid_of(999)

    def test_a_batch_is_checked_before_anything_is_written(self):
        """The first gid off the level, or else the first pid outside the
        system, is named; the column and its version stay as they were."""
        h, s, a = make_setup()
        gids = h.level_gids(0).tolist()
        child = h.insert_grids(1, BoxArray.from_box(Box((0, 0, 0), (4, 4, 4))),
                               np.array([gids[0]]), 1.0)[0]
        a.assign(0, gids, [0, 1, 2, 3])
        version = a.owner_version(0)
        bad = [([gids[0], child.gid, 999], [1, 1, 1], KeyError,
                f"grid {child.gid} is not on level 0"),
               (gids[:3], [1, -1, 7], ValueError, "unknown processor -1"),
               (gids[:2], [1], ValueError, "2 gids but 1 pids")]
        for batch, pids, error, message in bad:
            with pytest.raises(error, match=message):
                a.assign(0, batch, pids)
        assert a.owners(0).tolist() == [0, 1, 2, 3]
        assert a.owner_version(0) == version

    def test_one_owner_version_per_non_empty_batch(self):
        h, s, a = make_setup()
        gids = h.level_gids(0)
        a.assign(0, gids[::-1], [3, 2, 1, 0])
        assert a.owners(0).tolist() == [0, 1, 2, 3]
        assert (a.owner_version(0), a.owner_version(1)) == (1, 0)
        a.assign(0, [], [])
        assert a.owner_version(0) == 1

    def test_loads(self):
        h, s, a = make_setup(blocks=(4, 1, 1))
        a.assign(0, h.level_gids(0), [0, 1, 0, 1])
        per_grid = h.level_workloads(0)[0]
        loads = a.level_loads(0)
        assert loads[0] == pytest.approx(2 * per_grid)
        assert loads[1] == pytest.approx(2 * per_grid)
        assert loads[3] == 0.0
        group_loads = [sum(loads[pid] for pid in g.pids) for g in s.groups]
        assert group_loads[0] == pytest.approx(4 * per_grid)
        assert group_loads[1] == 0.0

    def test_removed_grid_leaves_the_owner_column(self):
        h, s, a = make_setup()
        gids = h.level_gids(0).tolist()
        a.assign(0, gids, [0, 1, 2, 3])
        h.remove_grid(gids[1])
        with pytest.raises(KeyError):
            a.pid_of(gids[1])
        assert a.owners(0).tolist() == [0, 2, 3]

    def test_validate_catches_unassigned(self):
        h, s, a = make_setup()
        with pytest.raises(ValueError, match=f"grid {h.level_gids(0)[0]} is unassigned"):
            a.validate()

    def test_validate_catches_bad_pid(self):
        h, s, a = make_setup()
        a.assign(0, h.level_gids(0), [0] * 4)
        gid = h.level_grids(0)[0].gid
        column = a.owners(0).copy()
        column[0] = s.nprocs
        a._columns[0] = column  # corrupt on purpose
        with pytest.raises(ValueError, match=f"grid {gid} on bad pid {s.nprocs}"):
            a.validate()

    def test_copy_is_independent(self):
        h, s, a = make_setup()
        gid = h.level_grids(0)[0].gid
        a.assign(0, [gid], [0])
        b = a.copy()
        b.assign(0, [gid], [1])
        assert a.pid_of(gid) == 0
        assert b.pid_of(gid) == 1


class TestSplitter:
    def test_split_preserves_cells_and_owner(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        a.assign(0, [g.gid], [1])
        h.set_work_per_cell(0, [2.5, 1.0, 1.0, 1.0])
        before = g.box.ncells
        low, high = split_level0_grid(h, a, g.gid, axis=1, at=8)
        assert low.box.ncells + high.box.ncells == before
        assert a.pid_of(low.gid) == 1
        assert a.pid_of(high.gid) == 1
        assert not h.has_grid(g.gid)
        assert h.level_work_per_cell(0).tolist() == [1.0, 1.0, 1.0, 2.5, 2.5]

    def test_split_removes_descendants(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        child = h.insert_grids(1, BoxArray.from_box(Box((0, 0, 0), (4, 4, 4))),
                               np.array([g.gid]), 1.0)[0]
        a.assign(0, [g.gid], [0])
        a.assign(1, [child.gid], [0])
        split_level0_grid(h, a, g.gid, axis=1, at=8)
        assert not h.has_grid(child.gid)
        assert a.owners(1).tolist() == []

    def test_split_fine_level_raises(self):
        h, s, a = make_setup()
        g = h.level_grids(0)[0]
        child = h.insert_grids(1, BoxArray.from_box(Box((0, 0, 0), (4, 4, 4))),
                               np.array([g.gid]), 1.0)[0]
        a.assign(1, [child.gid], [0])
        with pytest.raises(ValueError):
            split_level0_grid(h, a, child.gid, axis=0, at=2)

    def test_carve_hits_requested_workload(self):
        h, s, a = make_setup(blocks=(1, 1, 1), n=16)
        g = h.level_grids(0)[0]
        a.assign(0, [g.gid], [0])
        want = h.level_workloads(0)[0] * 0.25
        low, high = carve_workload(h, a, g.gid, want)
        work = h.level_workloads(0).tolist()
        assert h.level_gids(0).tolist() == [low.gid, high.gid]
        assert work[0] == pytest.approx(want, rel=0.2)
        assert sum(work) == pytest.approx(16**3)

    def test_carve_bounds_validated(self):
        h, s, a = make_setup(blocks=(1, 1, 1))
        g = h.level_grids(0)[0]
        a.assign(0, [g.gid], [0])
        with pytest.raises(ValueError):
            carve_workload(h, a, g.gid, 0.0)
        with pytest.raises(ValueError):
            carve_workload(h, a, g.gid, h.level_workloads(0)[0])

    @given(frac=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_carve_property_partition(self, frac):
        h, s, a = make_setup(blocks=(1, 1, 1), n=16)
        g = h.level_grids(0)[0]
        a.assign(0, [g.gid], [0])
        total = h.level_workloads(0)[0]
        low, high = carve_workload(h, a, g.gid, frac * total)
        assert sum(h.level_workloads(0).tolist()) == pytest.approx(total)
        assert not low.box.intersects(high.box)
        assert (min(low.box.lo, high.box.lo), max(low.box.hi, high.box.hi)) == (
            (0, 0, 0), (16, 16, 16))
