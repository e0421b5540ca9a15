"""Unit tests for the recursive Berger--Colella integrator (Figs. 2 and 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import (
    IntegratorHooks,
    SAMRIntegrator,
    integration_order,
)
from repro.runtime import root_blocks


class TestIntegrationOrder:
    def test_paper_fig2(self):
        """4 levels, refinement factor 2 -> the paper's 1st..15th order."""
        assert integration_order(4, 2) == [0, 1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3]

    def test_single_level(self):
        assert integration_order(1, 2) == [0]

    def test_two_levels_factor_4(self):
        assert integration_order(2, 4) == [0, 1, 1, 1, 1]

    def test_length_formula(self):
        # sum over levels l of ratio^l
        for nlevels in range(1, 5):
            for ratio in (2, 3, 4):
                expected = sum(ratio**l for l in range(nlevels))
                assert len(integration_order(nlevels, ratio)) == expected

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            integration_order(0, 2)
        with pytest.raises(ValueError):
            integration_order(3, 1)

    def test_coarse_steps_count(self):
        order = integration_order(4, 2)
        from collections import Counter

        counts = Counter(order)
        assert counts == {0: 1, 1: 2, 2: 4, 3: 8}


class RecordingHooks(IntegratorHooks):
    """Records every hook invocation for assertion."""

    def __init__(self):
        self.solves = []
        self.regrids = []
        self.locals = []
        self.globals = []

    def solve(self, step):
        self.solves.append(step)

    def regrid(self, level, time):
        self.regrids.append((level, time))

    def local_balance(self, level, time):
        self.locals.append((level, time))

    def global_balance(self, time):
        self.globals.append(time)


def populated_hierarchy(levels=3):
    domain = Box.cube(0, 16, 2)
    h = GridHierarchy(domain, 2, levels)
    roots = h.create_root_grids(root_blocks(domain, (2, 1)))
    # nest one child chain so all levels exist
    g = roots[0]
    for level in range(1, levels):
        (g,) = h.insert_grids(level, BoxArray.from_box(g.box.refine(2)),
                              np.array([g.gid]), 1.0)
    return h


class TestSAMRIntegrator:
    def test_trace_matches_fig2_when_all_levels_populated(self):
        h = populated_hierarchy(levels=4)
        hooks = RecordingHooks()
        integ = SAMRIntegrator(h, hooks, dt0=1.0)
        integ.step()
        assert [s.level for s in hooks.solves] == integration_order(4, 2)
        assert [s.seq for s in hooks.solves] == list(range(1, 16))

    def test_no_fine_grids_no_recursion(self):
        domain = Box.cube(0, 8, 2)
        h = GridHierarchy(domain, 2, 3)
        h.create_root_grids(BoxArray.from_box(domain))
        hooks = RecordingHooks()
        SAMRIntegrator(h, hooks).step()
        assert [s.level for s in hooks.solves] == [0]
        # regrid of level 1 is still attempted after the level-0 solve
        assert hooks.regrids == [(0, 1.0)]
        assert hooks.locals == []  # nothing was created

    def test_global_called_once_per_coarse_step(self):
        h = populated_hierarchy()
        hooks = RecordingHooks()
        integ = SAMRIntegrator(h, hooks)
        integ.run(3)
        assert len(hooks.globals) == 3

    def test_local_called_after_each_fine_regrid(self):
        h = populated_hierarchy(levels=3)
        hooks = RecordingHooks()
        SAMRIntegrator(h, hooks).step()
        # level 1 regridded once (after level-0 solve), level 2 after each
        # of the two level-1 solves; the static hooks keep grids in place so
        # every regrid is followed by a local balance of the rebuilt level
        assert hooks.locals == [(1, 1.0), (2, 0.5), (2, 1.0)]

    def test_times_and_dts(self):
        h = populated_hierarchy(levels=3)
        hooks = RecordingHooks()
        integ = SAMRIntegrator(h, hooks, dt0=2.0)
        integ.step()
        by_level = {}
        for s in hooks.solves:
            by_level.setdefault(s.level, []).append(s)
        assert [s.time for s in by_level[0]] == [0.0]
        assert [s.time for s in by_level[1]] == [0.0, 1.0]
        assert [s.time for s in by_level[2]] == [0.0, 0.5, 1.0, 1.5]
        assert all(s.dt == 2.0 / 2**s.level for s in hooks.solves)

    def test_clock_advances(self):
        h = populated_hierarchy()
        integ = SAMRIntegrator(h, RecordingHooks(), dt0=1.5)
        integ.run(2)
        assert integ.time == pytest.approx(3.0)
        assert integ.coarse_steps_done == 2

    def test_bad_dt_raises(self):
        h = populated_hierarchy()
        with pytest.raises(ValueError):
            SAMRIntegrator(h, RecordingHooks(), dt0=0.0)

    def test_dt_per_level(self):
        h = populated_hierarchy()
        integ = SAMRIntegrator(h, RecordingHooks(), dt0=1.0)
        assert integ.dt(0) == 1.0
        assert integ.dt(2) == 0.25
