"""Unit tests for the synthetic SAMR applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.applications import AMR64, BlastWave, ShockPool3D
from repro.amr.box import Box


def _flag_fraction(app, level, time):
    """Fraction of the whole level-``level`` domain that ``app`` flags."""
    dom = app.domain.refine(app.refinement_ratio**level)
    return np.count_nonzero(app.flags(level, dom, time)) / dom.ncells


class TestBaseGeometry:
    def test_cells_per_axis(self):
        app = ShockPool3D(domain_cells=16, refinement_ratio=2)
        assert app.cells_per_axis(0) == 16
        assert app.cells_per_axis(2) == 64

    def test_cell_width(self):
        app = ShockPool3D(domain_cells=16)
        assert app.cell_width(0) == pytest.approx(1 / 16)
        assert app.cell_width(1) == pytest.approx(1 / 32)

    def test_cell_centers_broadcastable(self):
        app = ShockPool3D(domain_cells=16)
        box = Box((0, 0, 0), (4, 2, 3))
        cx, cy, cz = app.cell_centers(0, box)
        assert cx.shape == (4, 1, 1)
        assert cy.shape == (1, 2, 1)
        assert cz.shape == (1, 1, 3)
        assert cx[0, 0, 0] == pytest.approx(0.5 / 16)

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            ShockPool3D(domain_cells=1)
        with pytest.raises(ValueError):
            ShockPool3D(speed=0)

    def test_describe_mentions_name(self):
        assert "ShockPool3D" in ShockPool3D().describe()


class TestShockPool3D:
    def test_flags_shape(self):
        app = ShockPool3D(domain_cells=16)
        box = Box((0, 0, 0), (8, 8, 8))
        f = app.flags(0, box, 0.0)
        assert f.shape == box.shape
        assert f.dtype == bool

    def test_front_moves_with_time(self):
        app = ShockPool3D(domain_cells=16, speed=0.1, start=0.2)
        assert app.front_position(0.0) == pytest.approx(0.2)
        assert app.front_position(2.0) == pytest.approx(0.4)

    def test_flagged_region_tracks_front(self):
        app = ShockPool3D(domain_cells=32, tilt=0.0, speed=0.1, start=0.25,
                          wake_cells=0.0)
        dom = app.domain
        f0 = app.flags(0, dom, 0.0)
        f1 = app.flags(0, dom, 2.5)  # front at 0.5
        # centroid of flagged cells moves along +x
        x0 = np.argwhere(f0)[:, 0].mean()
        x1 = np.argwhere(f1)[:, 0].mean()
        assert x1 > x0

    def test_untilted_plane_is_axis_aligned_slab(self):
        app = ShockPool3D(domain_cells=16, tilt=0.0, wake_cells=0.0)
        f = app.flags(0, app.domain, 0.0)
        # every yz-plane is either fully flagged or fully clear
        per_x = f.reshape(16, -1)
        assert all(col.all() or not col.any() for col in per_x)

    def test_finer_levels_are_thinner_in_physical_units(self):
        app = ShockPool3D(domain_cells=16, wake_cells=0.0)
        frac0 = _flag_fraction(app, 0, 0.0)
        frac2 = _flag_fraction(app, 2, 0.0)
        assert frac2 < frac0

    def test_wake_grows_workload_over_time(self):
        app = ShockPool3D(domain_cells=16, wake_cells=4.0, speed=0.05)
        early = _flag_fraction(app, 0, 0.0)
        late = _flag_fraction(app, 0, 6.0)
        assert late > early

    def test_flags_deterministic(self):
        app = ShockPool3D(domain_cells=16)
        f1 = app.flags(1, Box.cube(0, 32, 3), 1.0)
        f2 = app.flags(1, Box.cube(0, 32, 3), 1.0)
        assert (f1 == f2).all()


class TestAMR64:
    def test_deterministic_given_seed(self):
        a = AMR64(domain_cells=16, seed=5)
        b = AMR64(domain_cells=16, seed=5)
        assert (a.centers0 == b.centers0).all()
        f1 = a.flags(0, a.domain, 1.0)
        f2 = b.flags(0, b.domain, 1.0)
        assert (f1 == f2).all()

    def test_different_seeds_differ(self):
        a = AMR64(domain_cells=16, seed=1)
        b = AMR64(domain_cells=16, seed=2)
        assert not (a.centers0 == b.centers0).all()

    def test_clumps_scattered_across_domain(self):
        """The paper: grids 'randomly distributed across the whole domain'."""
        app = AMR64(domain_cells=16, nclumps=24, seed=3)
        f = app.flags(0, app.domain, 0.0)
        idx = np.argwhere(f)
        # flagged cells appear in both halves of every axis
        for d in range(3):
            assert (idx[:, d] < 8).any() and (idx[:, d] >= 8).any()

    def test_radii_grow_with_time(self):
        app = AMR64(domain_cells=16, growth=0.1)
        r0 = app.clump_radii(0, 0.0)
        r5 = app.clump_radii(0, 5.0)
        assert (r5 > r0).all()

    def test_radii_shrink_with_level(self):
        app = AMR64(domain_cells=16, level_shrink=0.5)
        assert (app.clump_radii(2, 0.0) < app.clump_radii(0, 0.0)).all()

    def test_centers_wrap_periodically(self):
        app = AMR64(domain_cells=16)
        c = app.clump_centers(1000.0)
        assert ((c >= 0) & (c < 1)).all()

    def test_elliptic_cost_heavier_than_hyperbolic(self):
        app = AMR64()
        shock = ShockPool3D()
        assert app.work_per_cell(1) > shock.work_per_cell(1)

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            AMR64(nclumps=0)
        with pytest.raises(ValueError):
            AMR64(level_shrink=0.0)
        with pytest.raises(ValueError):
            AMR64(base_radius=-1)


class TestBlastWave:
    def test_radius_grows(self):
        app = BlastWave(speed=0.1, start_radius=0.1)
        assert app.radius(2.0) == pytest.approx(0.3)

    def test_shell_is_hollow(self):
        app = BlastWave(domain_cells=32, start_radius=0.25, thickness_cells=1.0)
        f = app.flags(0, app.domain, 0.0)
        center = f[15:17, 15:17, 15:17]
        assert not center.any()  # interior of the shell unflagged
        assert f.any()

    def test_shell_symmetric_about_center(self):
        app = BlastWave(domain_cells=16, start_radius=0.3)
        f = app.flags(0, app.domain, 0.0)
        assert (f == f[::-1, :, :]).all()
        assert (f == f[:, ::-1, :]).all()

    def test_workload_grows_with_radius(self):
        app = BlastWave(domain_cells=32, start_radius=0.05, speed=0.05)
        early = _flag_fraction(app, 0, 0.0)
        later = _flag_fraction(app, 0, 4.0)
        assert later > early

    def test_custom_center_validated(self):
        with pytest.raises(ValueError):
            BlastWave(center=[0.5, 0.5])  # wrong rank for 3-d
