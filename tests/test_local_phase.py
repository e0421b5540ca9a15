"""Unit and property tests for LPT placement and greedy rebalancing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.grid import Grid
from repro.amr.hierarchy import GridHierarchy
from repro.cli import main
from repro.core import make_scheme
from repro.core.base import BalanceContext
from repro.core.local_phase import lpt_assign, plan_rebalance
from repro.distsys import ClusterSimulator, build_system, parallel_spec
from repro.metrics.imbalance import imbalance_ratio
from repro.partition import GridAssignment


def make_grids(sizes, level=0, work_per_cell=None):
    grids = []
    for i, s in enumerate(sizes):
        # stack boxes along x so they are valid disjoint grids
        wpc = 1.0 if work_per_cell is None else work_per_cell[i]
        grids.append(Grid(gid=i, level=0, box=Box((i * 100, 0), (i * 100 + s, 1)),
                          work_per_cell=wpc))
    return grids


def _lpt_reference(grids, targets):
    """The original O(grids x procs) placement: a ``max()`` scan per grid."""
    loads = {pid: 0.0 for pid in targets}
    out = {}
    for g in sorted(grids, key=lambda g: (-g.workload, g.gid)):
        pid = max(loads, key=lambda p: (targets[p] - loads[p], -p))
        out[g.gid] = pid
        loads[pid] += g.workload
    return out


def _plan_rebalance_reference(grids, owner_of, targets, tolerance=0.05,
                              max_moves=10_000):
    """The former planner: one entry per loop iteration, so a grid the
    loop picks twice appears twice, the second time from the pid the
    first move sent it to."""
    loads = {pid: 0.0 for pid in targets}
    on_proc = {pid: [] for pid in targets}
    for g in grids:
        loads[owner_of[g.gid]] += g.workload
        on_proc[owner_of[g.gid]].append(g)
    tol_abs = tolerance * (sum(targets.values()) / len(targets))
    moves = []
    for _ in range(max_moves):
        over = max(loads, key=lambda p: (loads[p] - targets[p], p))
        under = min(loads, key=lambda p: (loads[p] - targets[p], p))
        gap_over = loads[over] - targets[over]
        gap_under = targets[under] - loads[under]
        if gap_over <= tol_abs or gap_under <= tol_abs:
            break
        best, best_fit = None, float("inf")
        for g in on_proc[over]:
            w = g.workload
            if w <= 0 or w >= gap_over + gap_under:
                continue
            fit = abs(gap_over - w)
            if fit < best_fit or (fit == best_fit and best is not None
                                  and g.gid < best.gid):
                best, best_fit = g, fit
        if best is None:
            break
        moves.append((best.gid, over, under))
        on_proc[over].remove(best)
        on_proc[under].append(best)
        loads[over] -= best.workload
        loads[under] += best.workload
    return moves


def _loads_after(grids, owner_of, pids, moves):
    """Per-pid loads once ``moves`` are applied one by one, each grid's
    work summed in grid order."""
    owner = dict(owner_of)
    for gid, _src, dst in moves:
        owner[gid] = dst
    loads = {p: 0.0 for p in pids}
    for g in grids:
        loads[owner[g.gid]] += g.workload
    return loads


@st.composite
def rebalance_cases(draw):
    """An owned level: 2-8 pids, 2-40 grids, integer or fractional work,
    equal or unequal targets, and one of the tolerances schemes use."""
    nprocs = draw(st.integers(min_value=2, max_value=8))
    pids = draw(st.lists(st.integers(min_value=0, max_value=64), unique=True,
                         min_size=nprocs, max_size=nprocs))
    n = draw(st.integers(min_value=2, max_value=40))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=12),
                          min_size=n, max_size=n))
    if draw(st.booleans()):
        wpc = None
    else:
        wpc = draw(st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 1.0, 2.5]),
                            min_size=n, max_size=n))
    grids = make_grids(sizes, work_per_cell=wpc)
    owner_of = {g.gid: draw(st.sampled_from(pids)) for g in grids}
    total = sum(g.workload for g in grids)
    if draw(st.booleans()):
        targets = {p: total / nprocs for p in pids}
    else:
        weights = draw(st.lists(st.floats(min_value=0.25, max_value=4.0),
                                min_size=nprocs, max_size=nprocs))
        targets = {p: total * w / sum(weights) for p, w in zip(pids, weights)}
    tolerance = draw(st.sampled_from([0.0, 0.01, 0.05]))
    return grids, owner_of, targets, tolerance


def _tiny_level():
    """Five 1-D level-0 grids of 4, 8, 5, 1 and 3 cells on pids 0, 1, 0, 1
    and 2 of a three-processor machine: the former planner moved grid 3
    from pid 1 to 2 and later from 2 to 0, naming it twice."""
    cuts = [0, 4, 12, 17, 18, 21]
    h = GridHierarchy(Box((0,), (21,)), 2, 1)
    h.create_root_grids(
        BoxArray.from_boxes([Box((lo,), (hi,)) for lo, hi in zip(cuts, cuts[1:])]))
    system = build_system(parallel_spec(3))
    ctx = BalanceContext(hierarchy=h, assignment=GridAssignment(h, system),
                         system=system, sim=ClusterSimulator(system))
    for g, pid in zip(h.level_grids(0), [0, 1, 0, 1, 2]):
        ctx.assignment.assign(g.gid, pid)
    return ctx


@st.composite
def placement_cases(draw):
    """Grids and targets built to collide: equal sizes, zero work, 1/3 shares."""
    n = draw(st.integers(min_value=0, max_value=40))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    wpc = draw(st.lists(st.sampled_from([0.0, 1.0, 1 / 3, 0.1, 2.5]),
                        min_size=n, max_size=n))
    pids = draw(st.lists(st.integers(min_value=0, max_value=10_000), unique=True,
                         min_size=1, max_size=8))
    pids = draw(st.permutations(pids))
    grids = make_grids(sizes, work_per_cell=wpc)
    total = sum(g.workload for g in grids)
    kind = draw(st.sampled_from(["equal", "thirds", "weights"]))
    if kind == "equal":
        targets = {p: total / len(pids) for p in pids}
    elif kind == "thirds":
        # equal on paper; the two roundings can differ in the last bit
        targets = {p: total / 3 if i % 2 else total * (1 / 3) for i, p in enumerate(pids)}
    else:
        weights = draw(st.lists(st.floats(min_value=0.0, max_value=4.0),
                                min_size=len(pids), max_size=len(pids)))
        targets = dict(zip(pids, weights))
    return grids, targets


class TestLPT:
    def test_even_split(self):
        grids = make_grids([4, 4, 4, 4])
        targets = {0: 8.0, 1: 8.0}
        owner = lpt_assign(grids, targets)
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert loads[0] == loads[1] == 8.0

    def test_weighted_targets(self):
        grids = make_grids([3, 3, 3, 3])
        targets = {0: 9.0, 1: 3.0}
        owner = lpt_assign(grids, targets)
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert loads[0] == 9.0
        assert loads[1] == 3.0

    def test_empty_targets_raise(self):
        with pytest.raises(ValueError):
            lpt_assign(make_grids([1]), {})

    def test_deterministic(self):
        grids = make_grids([5, 3, 8, 2, 7])
        targets = {0: 10.0, 1: 10.0, 2: 5.0}
        assert lpt_assign(grids, targets) == lpt_assign(grids, targets)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
        nprocs=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_lpt_near_optimal(self, sizes, nprocs):
        """LPT's max load <= target + largest grid (standard LPT bound)."""
        grids = make_grids(sizes)
        total = float(sum(sizes))
        targets = {p: total / nprocs for p in range(nprocs)}
        owner = lpt_assign(grids, targets)
        loads = {p: 0.0 for p in range(nprocs)}
        for g in grids:
            loads[owner[g.gid]] += g.workload
        assert sum(loads.values()) == pytest.approx(total)
        assert max(loads.values()) <= total / nprocs + max(sizes)


class TestLPTMatchesReference:
    """The heap placement picks exactly what the old ``max()`` scan picked."""

    @staticmethod
    def assert_same(grids, targets):
        got = lpt_assign(grids, targets)
        want = _lpt_reference(grids, targets)
        assert list(got.items()) == list(want.items())

    @given(case=placement_cases())
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference(self, case):
        self.assert_same(*case)

    def test_ties_break_on_lowest_pid(self):
        grids = make_grids([4, 4, 4, 4, 4])
        targets = {9: 10.0, 2: 10.0, 5: 10.0}
        assert list(lpt_assign(grids, targets).items()) == [
            (0, 2), (1, 5), (2, 9), (3, 2), (4, 5)]
        self.assert_same(grids, targets)

    def test_zero_workload_grids(self):
        grids = make_grids([3, 2, 5, 1], work_per_cell=[0.0, 1.0, 0.0, 0.0])
        self.assert_same(grids, {0: 1.0, 1: 1.0})

    def test_single_processor(self):
        grids = make_grids([5, 3, 8])
        assert list(lpt_assign(grids, {7: 1.0}).items()) == [(2, 7), (0, 7), (1, 7)]

    def test_deficits_tie_after_rounding(self):
        # 0.1 + 0.2 != 0.3: deficits that are equal on paper differ in the
        # last bit, so a deficit kept as (target - w1) - w2 instead of
        # target - (w1 + w2) would pick another processor here
        grids = make_grids([1] * 4, work_per_cell=[0.1, 0.1, 0.1, 0.2])
        self.assert_same(grids, {0: 0.6, 1: 0.6})
        grids = make_grids([1] * 9, work_per_cell=[0.1, 0.2, 0.3] * 3)
        self.assert_same(grids, {p: 1.8 / 3 for p in range(3)})

    def test_4096_processors(self):
        """Paper-scale placement: 4096 weighted procs, 4500 grids."""
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 40, size=4500).tolist()
        grids = make_grids(sizes)
        weights = 1.0 + (np.arange(4096) % 3)
        share = float(sum(sizes)) / float(weights.sum())
        targets = {p: float(weights[p]) * share for p in range(4096)}
        got = lpt_assign(grids, targets)

        # the same max()-scan, vectorised: np.argmax returns the first
        # maximum, i.e. the lowest pid, and does the same float arithmetic
        tgt = np.array([targets[p] for p in range(4096)])
        loads = np.zeros(4096)
        want = {}
        for g in sorted(grids, key=lambda g: (-g.workload, g.gid)):
            pid = int(np.argmax(tgt - loads))
            want[g.gid] = pid
            loads[pid] += g.workload
        assert list(got.items()) == list(want.items())


class TestPlanRebalance:
    def test_no_moves_when_balanced(self):
        grids = make_grids([4, 4])
        owner = {0: 0, 1: 1}
        targets = {0: 4.0, 1: 4.0}
        assert plan_rebalance(grids, owner, targets) == []

    def test_fixes_gross_imbalance(self):
        grids = make_grids([4, 4, 4, 4])
        owner = {g.gid: 0 for g in grids}
        targets = {0: 8.0, 1: 8.0}
        moves = plan_rebalance(grids, owner, targets)
        loads = {0: 16.0, 1: 0.0}
        for gid, src, dst in moves:
            w = grids[gid].workload
            loads[src] -= w
            loads[dst] += w
        assert loads[0] == loads[1] == 8.0

    def test_moves_reference_current_owner(self):
        grids = make_grids([4, 4, 4, 4])
        owner = {g.gid: 0 for g in grids}
        targets = {0: 8.0, 1: 8.0}
        for gid, src, dst in plan_rebalance(grids, owner, targets):
            assert src == 0 and dst == 1

    def test_owner_outside_targets_raises(self):
        grids = make_grids([4])
        with pytest.raises(ValueError):
            plan_rebalance(grids, {0: 9}, {0: 4.0, 1: 0.0})

    def test_tolerance_suppresses_tiny_moves(self):
        grids = make_grids([10, 9])
        owner = {0: 0, 1: 1}
        targets = {0: 9.5, 1: 9.5}
        assert plan_rebalance(grids, owner, targets, tolerance=0.2) == []

    def test_respects_max_moves(self):
        grids = make_grids([1] * 20)
        owner = {g.gid: 0 for g in grids}
        targets = {0: 10.0, 1: 10.0}
        moves = plan_rebalance(grids, owner, targets, max_moves=3)
        assert len(moves) == 3

    def test_indivisible_grid_not_shuttled(self):
        """One huge grid on each side: no move can improve -> no moves."""
        grids = make_grids([10, 10])
        owner = {0: 0, 1: 0}
        targets = {0: 10.0, 1: 10.0}
        moves = plan_rebalance(grids, owner, targets, tolerance=0.01)
        # moving one 10-unit grid to pid 1 balances exactly
        loads = {0: 20.0, 1: 0.0}
        for gid, src, dst in moves:
            loads[src] -= grids[gid].workload
            loads[dst] += grids[gid].workload
        assert loads == {0: 10.0, 1: 10.0}

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=999),
        nprocs=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_worse(self, sizes, seed, nprocs):
        """Rebalancing never increases the imbalance ratio."""
        import numpy as np

        rng = np.random.default_rng(seed)
        grids = make_grids(sizes)
        owner = {g.gid: int(rng.integers(nprocs)) for g in grids}
        total = float(sum(sizes))
        targets = {p: total / nprocs for p in range(nprocs)}

        def loads_of(ownmap):
            loads = {p: 0.0 for p in range(nprocs)}
            for g in grids:
                loads[ownmap[g.gid]] += g.workload
            return loads

        before = imbalance_ratio(loads_of(owner))
        own2 = dict(owner)
        for gid, src, dst in plan_rebalance(grids, owner, targets):
            assert own2[gid] == src
            own2[gid] = dst
        after = imbalance_ratio(loads_of(own2))
        assert after <= before + 1e-9

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_small_grids_balance_tightly(self, sizes):
        """With many small grids, the greedy pass ends near the target."""
        grids = make_grids(sizes)
        owner = {g.gid: 0 for g in grids}
        total = float(sum(sizes))
        targets = {0: total / 2, 1: total / 2}
        own2 = dict(owner)
        for gid, src, dst in plan_rebalance(grids, owner, targets, tolerance=0.01):
            own2[gid] = dst
        loads = {0: 0.0, 1: 0.0}
        for g in grids:
            loads[own2[g.gid]] += g.workload
        # within one largest-grid of perfect balance
        assert abs(loads[0] - loads[1]) <= 2 * max(sizes)


class TestPlanNamesEachGridOnce:
    """A grid the greedy loop picks twice is moved once, straight to its
    last destination; plans that name no grid twice are unchanged."""

    @given(case=rebalance_cases())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, case):
        grids, owner_of, targets, tolerance = case
        got = plan_rebalance(grids, owner_of, targets, tolerance=tolerance)
        want = _plan_rebalance_reference(grids, owner_of, targets,
                                         tolerance=tolerance)
        gids = [gid for gid, _src, _dst in got]
        assert len(gids) == len(set(gids))
        for gid, src, dst in got:
            assert src == owner_of[gid] and dst != src
        assert (_loads_after(grids, owner_of, targets, got)
                == _loads_after(grids, owner_of, targets, want))
        if len({gid for gid, _src, _dst in want}) == len(want):
            assert got == want

    def test_grid_moved_twice_is_one_move(self):
        ctx = _tiny_level()
        grids = ctx.hierarchy.level_grids(0)
        owner_of = {g.gid: ctx.assignment.pid_of(g.gid) for g in grids}
        targets = {p: 7.0 for p in range(3)}
        assert _plan_rebalance_reference(grids, owner_of, targets) == [
            (3, 1, 2), (0, 0, 2), (3, 2, 0)]
        assert plan_rebalance(grids, owner_of, targets) == [
            (3, 1, 0), (0, 0, 2)]

    def test_round_trip_drops_out(self):
        """Grid 0 goes from pid 0 to 2 and later back: it does not move."""
        grids = make_grids([1, 12, 7, 9, 12, 5, 11, 2, 8])
        owner_of = dict(enumerate([0, 1, 1, 2, 0, 3, 1, 3, 0]))
        targets = {p: 16.75 for p in range(4)}
        assert _plan_rebalance_reference(grids, owner_of, targets) == [
            (1, 1, 3), (0, 0, 2), (8, 0, 2), (7, 3, 0), (0, 2, 0)]
        assert plan_rebalance(grids, owner_of, targets) == [
            (1, 1, 3), (8, 0, 2), (7, 3, 0)]

    def test_parallel_local_balance_runs(self):
        ctx = _tiny_level()
        make_scheme("parallel").local_balance(ctx, 0, 0.0)
        assert [ctx.assignment.pid_of(g.gid)
                for g in ctx.hierarchy.level_grids(0)] == [2, 1, 0, 0, 2]
        assert ctx.assignment.level_loads(0).tolist() == [6.0, 8.0, 7.0]

    def test_sos_diffusion_replay_runs(self, capsys):
        rc = main(["replay", "synth:bursty", "--scheme", "diffusion:sos",
                   "--procs", "4", "--steps", "2", "--no-cache"])
        assert rc == 0, capsys.readouterr().out
