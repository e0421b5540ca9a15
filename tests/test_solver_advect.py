"""Tests for donor-cell advection and the self-adapting driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.grid import Grid
from repro.amr.solver import (
    AdvectionDriver,
    GradientCriterion,
    GridData,
    advect_donor_cell,
    cfl_number,
)


class TestCFL:
    def test_value(self):
        assert cfl_number([0.5, -1.0], dt=0.1, dx=0.2) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            cfl_number([1.0], dt=0.0, dx=1.0)


def make_data(values, nghost=1):
    arr = np.asarray(values, dtype=float)
    g = Grid(gid=0, level=0, box=Box((0,) * arr.ndim, arr.shape))
    gd = GridData(g, nghost=nghost)
    gd.interior = arr
    # fill ghosts by clamping for the single-grid tests
    from repro.amr.solver.ops import _clamp_remaining

    gd.invalidate_ghosts()
    _clamp_remaining(gd)
    return gd


class TestDonorCell:
    def test_uniform_field_unchanged(self):
        gd = make_data(np.full((8, 8), 3.0))
        advect_donor_cell(gd, (0.7, -0.3), dt=0.1, dx=0.1)
        assert np.allclose(gd.interior, 3.0)

    def test_step_moves_downwind(self):
        u = np.zeros(16)
        u[:8] = 1.0
        gd = make_data(u)
        # CFL = 1: the profile shifts exactly one cell per step
        advect_donor_cell(gd, (1.0,), dt=0.1, dx=0.1)
        expected = np.zeros(16)
        expected[:9] = 1.0
        assert np.allclose(gd.interior, expected)

    def test_negative_velocity_moves_left(self):
        u = np.zeros(16)
        u[8:] = 1.0
        gd = make_data(u)
        advect_donor_cell(gd, (-1.0,), dt=0.1, dx=0.1)
        expected = np.zeros(16)
        expected[7:] = 1.0
        assert np.allclose(gd.interior, expected)

    def test_zero_velocity_identity(self):
        rng = np.random.default_rng(0)
        u = rng.random((6, 6))
        gd = make_data(u)
        advect_donor_cell(gd, (0.0, 0.0), dt=0.5, dx=0.1)
        assert np.allclose(gd.interior, u)

    def test_cfl_violation_raises(self):
        gd = make_data(np.zeros(8))
        with pytest.raises(ValueError):
            advect_donor_cell(gd, (2.0,), dt=0.1, dx=0.1)

    def test_velocity_rank_checked(self):
        gd = make_data(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            advect_donor_cell(gd, (1.0,), dt=0.01, dx=0.1)

    def test_interior_conserved_periodic_analogue(self):
        """With zero inflow/outflow difference (uniform ghosts), the total
        changes only through the boundaries."""
        u = np.zeros(16)
        u[6:10] = 1.0  # blob far from boundaries
        gd = make_data(u)
        before = gd.total()
        advect_donor_cell(gd, (1.0,), dt=0.05, dx=0.1)
        assert gd.total() == pytest.approx(before)


class TestGradientCriterion:
    def test_flags_jump(self):
        u = np.zeros((8, 8))
        u[:, :4] = 1.0
        flags = GradientCriterion(0.5).flag(u)
        assert flags[:, 3].all() and flags[:, 4].all()
        assert not flags[:, 0].any() and not flags[:, 7].any()

    def test_smooth_field_unflagged(self):
        x = np.linspace(0, 1, 32)
        u = np.tile(x * 0.1, (4, 1))
        assert not GradientCriterion(0.5).flag(u).any()

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError):
            GradientCriterion(0.0)


def gaussian2d(x, y):
    return np.exp(-((x - 0.3) ** 2 + (y - 0.3) ** 2) / (2 * 0.05**2))


class TestAdvectionDriver:
    @pytest.fixture(scope="class")
    def driver(self):
        drv = AdvectionDriver(
            domain_cells=32, velocity=(0.5, 0.25), initial=gaussian2d,
            ndim=2, max_levels=3, threshold=0.05,
        )
        drv.run(8)
        return drv

    def test_initial_adaptation_refines_blob(self):
        drv = AdvectionDriver(
            domain_cells=32, velocity=(0.5, 0.0), initial=gaussian2d,
            ndim=2, max_levels=3, threshold=0.05,
        )
        assert drv.hierarchy.level_grids(1), "blob should trigger refinement"
        # the fine grids sit on the blob (0.3, 0.3)
        fine = drv.hierarchy.level_grids(1)[0]
        h1 = drv.cell_width(1)
        center = fine.box.center()
        assert abs(center[0] * h1 - 0.3) < 0.15
        assert abs(center[1] * h1 - 0.3) < 0.15

    def test_mass_nearly_conserved(self, driver):
        """Donor-cell is conservative; coarse-fine boundaries without
        refluxing leak only a little."""
        drv = AdvectionDriver(
            domain_cells=32, velocity=(0.5, 0.25), initial=gaussian2d,
            ndim=2, max_levels=3, threshold=0.05,
        )
        m0 = drv.total_mass()
        drv.run(8)
        assert drv.total_mass() == pytest.approx(m0, rel=0.05)

    def test_blob_moves_with_velocity(self, driver):
        t = driver.time
        moved = np.array([0.3 + 0.5 * t, 0.3 + 0.25 * t])
        vals = driver.sample(np.array([moved, [0.3, 0.3], [0.9, 0.9]]))
        assert vals[0] > 5 * max(vals[1], 1e-6)  # peak followed the flow
        assert vals[2] == pytest.approx(0.0, abs=1e-6)

    def test_refinement_follows_blob(self, driver):
        t = driver.time
        moved_x = 0.3 + 0.5 * t
        fine_grids = driver.hierarchy.level_grids(driver.hierarchy.nlevels - 1)
        assert fine_grids
        h = driver.cell_width(driver.hierarchy.nlevels - 1)
        centers_x = [g.box.center()[0] * h for g in fine_grids]
        assert min(abs(c - moved_x) for c in centers_x) < 0.2

    def test_hierarchy_valid_after_run(self, driver):
        driver.hierarchy.validate()
        # every grid has data; every data belongs to a live grid
        h = driver.hierarchy
        gids = {gid for level in range(h.max_levels) for gid in h.level_gids(level).tolist()}
        assert set(driver.data) == gids

    def test_uniform_field_stays_uniform(self):
        drv = AdvectionDriver(
            domain_cells=16, velocity=(0.6, -0.2), initial=lambda x, y: 0.0 * x + 1.0,
            ndim=2, max_levels=3, threshold=0.1,
        )
        drv.run(4)
        for gd in drv.data.values():
            assert np.allclose(gd.interior, 1.0)
        # nothing to refine on a constant field
        assert not drv.hierarchy.level_grids(1)

    def test_matches_single_grid_reference(self):
        """AMR solution agrees with an unrefined run of the same scheme at
        the coarse resolution (sampled off the refined region)."""
        kwargs = dict(domain_cells=32, velocity=(0.5, 0.0), initial=gaussian2d,
                      ndim=2)
        amr = AdvectionDriver(max_levels=3, threshold=0.05, **kwargs)
        ref = AdvectionDriver(max_levels=1, threshold=1e9, **kwargs)
        amr.run(6)
        ref.run(6)
        pts = np.array([[0.8, 0.8], [0.1, 0.9], [0.5, 0.1]])  # smooth regions
        assert np.allclose(amr.sample(pts), ref.sample(pts), atol=1e-6)

    def test_cfl_guard(self):
        with pytest.raises(ValueError):
            AdvectionDriver(domain_cells=16, velocity=(1.0, 0.0),
                            initial=gaussian2d, ndim=2, dt0=1.0)

    def test_velocity_rank_validated(self):
        with pytest.raises(ValueError):
            AdvectionDriver(domain_cells=16, velocity=(1.0,),
                            initial=gaussian2d, ndim=2)
