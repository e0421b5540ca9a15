"""Cross-module property tests: regrid coverage, gain bounds, comm
monotonicity, run determinism under random configurations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.applications import AMR64, ShockPool3D
from repro.amr.box import Box
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import regrid_level
from repro.core.gain import WorkloadHistory, estimate_gain
from repro.distsys import ConstantTraffic, build_system, wan_spec
from repro.distsys.comm import Message, MessageKind, comm_phase_time
from repro.runtime import root_blocks


class TestRegridCoverageProperty:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        time=st.floats(min_value=0.0, max_value=5.0),
        nclumps=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_flagged_cell_covered_by_children(self, seed, time, nclumps):
        """Regridding must refine everything the application flagged
        (buffering only ever adds cells)."""
        app = AMR64(domain_cells=16, max_levels=2, nclumps=nclumps, seed=seed)
        h = GridHierarchy(app.domain, 2, 2)
        h.create_root_grids(root_blocks(app.domain, (4, 1, 1)))
        regrid_level(h, app, 0, time)
        h.validate()
        flags = app.flags(0, app.domain, time)
        children = h.level_grids(1)
        for coord in np.argwhere(flags):
            fine = Box(tuple(int(c) * 2 for c in coord),
                       tuple(int(c) * 2 + 2 for c in coord))
            covered = sum(
                g.box.intersection(fine).ncells for g in children
            )
            assert covered == fine.ncells, f"cell {coord} not fully refined"

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_regrid_idempotent_at_fixed_time(self, seed):
        app = AMR64(domain_cells=16, max_levels=2, nclumps=6, seed=seed)
        h = GridHierarchy(app.domain, 2, 2)
        h.create_root_grids(root_blocks(app.domain, (4, 1, 1)))
        first = {g.box for g in regrid_level(h, app, 0, 1.0)}
        second = {g.box for g in regrid_level(h, app, 0, 1.0)}
        assert first == second


class TestGainProperties:
    @given(
        loads=st.lists(st.floats(min_value=0.0, max_value=1e4),
                       min_size=4, max_size=4),
        walltime=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gain_nonnegative_and_bounded(self, loads, walltime):
        """0 <= Gain <= T / N_groups for any recorded loads."""
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))
        hist = WorkloadHistory()
        hist.record_solve(0, {i: loads[i] for i in range(4)})
        hist.end_coarse_step(walltime)
        gain = estimate_gain(hist, system)
        assert gain >= 0.0
        assert gain <= walltime / 2 + 1e-9

    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_gain_scale_invariant_in_loads(self, scale):
        """Scaling every load leaves Eq. 4 unchanged (it is a ratio)."""
        system = build_system(wan_spec(2), traffic=ConstantTraffic(0.0))

        def gain_for(factor):
            hist = WorkloadHistory()
            hist.record_solve(0, {0: 30.0 * factor, 1: 0.0,
                                  2: 10.0 * factor, 3: 0.0})
            hist.end_coarse_step(7.0)
            return estimate_gain(hist, system)

        assert gain_for(1.0) == pytest.approx(gain_for(scale))


class TestCommMonotonicity:
    @given(
        nbytes=st.floats(min_value=0.0, max_value=1e7),
        extra=st.floats(min_value=0.0, max_value=1e7),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_bytes_never_faster(self, nbytes, extra):
        system = build_system(wan_spec(1), traffic=ConstantTraffic(0.2))
        small = comm_phase_time(
            system, [Message(0, 1, nbytes, MessageKind.SIBLING)], 0.0
        )
        large = comm_phase_time(
            system, [Message(0, 1, nbytes + extra, MessageKind.SIBLING)], 0.0
        )
        assert large.elapsed >= small.elapsed - 1e-12

    @given(n=st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_more_pairs_never_faster(self, n):
        system = build_system(wan_spec(8), traffic=ConstantTraffic(0.2))
        def phase(k):
            msgs = [Message(i % 8, 8 + (i % 8), 100.0, MessageKind.SIBLING)
                    for i in range(k)]
            return comm_phase_time(system, msgs, 0.0).elapsed
        assert phase(n) <= phase(n + 1) + 1e-12


class TestShockAppProperties:
    @given(
        t=st.floats(min_value=0.0, max_value=8.0),
        tilt=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_flag_fraction_bounded(self, t, tilt):
        app = ShockPool3D(domain_cells=8, max_levels=2, ndim=2, tilt=tilt)
        frac = app.flag_fraction(0, t)
        assert 0.0 <= frac <= 1.0

    @given(t=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_flags_deterministic_in_time(self, t):
        app = ShockPool3D(domain_cells=8, max_levels=2, ndim=2)
        a = app.flags(0, app.domain, t)
        b = app.flags(0, app.domain, t)
        assert (a == b).all()
