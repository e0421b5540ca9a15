"""Tests for the synchronize hook and integrator/driver interplay."""

from __future__ import annotations


from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import IntegratorHooks, SAMRIntegrator
from repro.runtime import root_blocks


class SyncRecorder(IntegratorHooks):
    def __init__(self):
        self.calls = []

    def solve(self, step):
        self.calls.append(("solve", step.level))

    def regrid(self, level, time):
        self.calls.append(("regrid", level))

    def local_balance(self, level, time):
        self.calls.append(("balance", level))

    def global_balance(self, time):
        self.calls.append(("global", -1))

    def synchronize(self, level, time):
        self.calls.append(("sync", level))


def populated(levels=3):
    domain = Box.cube(0, 16, 2)
    h = GridHierarchy(domain, 2, levels)
    roots = h.create_root_grids(root_blocks(domain, (2, 1)))
    g = roots[0]
    for level in range(1, levels):
        g = h.add_grid(level, g.box.refine(2), g.gid)
    return h


class TestSynchronizeHook:
    def test_called_after_each_subcycle(self):
        h = populated(3)
        hooks = SyncRecorder()
        SAMRIntegrator(h, hooks).step()
        syncs = [c for c in hooks.calls if c[0] == "sync"]
        # level-1 subcycle completes twice (sync(1) x2) inside one sync(0)
        assert syncs.count(("sync", 1)) == 2
        assert syncs.count(("sync", 0)) == 1

    def test_sync_follows_fine_solves(self):
        h = populated(2)
        hooks = SyncRecorder()
        SAMRIntegrator(h, hooks).step()
        calls = hooks.calls
        i_sync = calls.index(("sync", 0))
        fine_solves = [i for i, c in enumerate(calls) if c == ("solve", 1)]
        assert len(fine_solves) == 2
        assert all(i < i_sync for i in fine_solves)

    def test_no_sync_without_fine_grids(self):
        domain = Box.cube(0, 8, 2)
        h = GridHierarchy(domain, 2, 3)
        h.create_root_grids(BoxArray.from_box(domain))
        hooks = SyncRecorder()
        SAMRIntegrator(h, hooks).step()
        assert not any(c[0] == "sync" for c in hooks.calls)

    def test_full_order_one_step_two_levels(self):
        h = populated(2)
        hooks = SyncRecorder()
        SAMRIntegrator(h, hooks).step()
        assert hooks.calls == [
            ("global", -1),
            ("solve", 0),
            ("regrid", 0),
            ("balance", 1),
            ("solve", 1),
            ("solve", 1),
            ("sync", 0),
        ]

    def test_default_hooks_noop(self):
        """The base IntegratorHooks class accepts every call silently."""
        h = populated(2)
        SAMRIntegrator(h, IntegratorHooks()).run(2)
