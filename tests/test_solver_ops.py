"""Unit/property tests for grid data, prolongation, restriction, ghosts."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.grid import Grid
from repro.amr.hierarchy import GridHierarchy
from repro.amr.solver import (
    GridData,
    fill_ghosts,
    prolong_piecewise_constant,
    restrict_conservative,
)
from repro.runtime import root_blocks


class TestGridData:
    def grid(self):
        return Grid(gid=0, level=0, box=Box((2, 2), (6, 6)))

    def test_shapes(self):
        gd = GridData(self.grid(), nghost=1)
        assert gd.u.shape == (6, 6)
        assert gd.interior.shape == (4, 4)

    def test_interior_roundtrip(self):
        gd = GridData(self.grid())
        gd.interior = np.arange(16.0).reshape(4, 4)
        assert gd.interior[3, 3] == 15.0
        assert gd.u[1:-1, 1:-1].sum() == gd.total()

    def test_view_addresses_lattice_coordinates(self):
        gd = GridData(self.grid())
        gd.view(Box((2, 2), (3, 3)))[...] = 7.0
        assert gd.interior[0, 0] == 7.0

    def test_view_outside_raises(self):
        gd = GridData(self.grid())
        with pytest.raises(ValueError):
            gd.view(Box((0, 0), (3, 3)))  # reaches beyond ghost shell

    def test_ghost_boxes_cover_shell(self):
        gd = GridData(self.grid(), nghost=1)
        shell = sum(b.ncells for b in gd.ghost_boxes())
        assert shell == 36 - 16

    def test_set_from_function(self):
        gd = GridData(self.grid())
        gd.set_from_function(lambda x, y: x + y, cell_width=1.0)
        # cell (2,2) centre is (2.5, 2.5)
        assert gd.interior[0, 0] == pytest.approx(5.0)

    def test_bad_nghost_raises(self):
        with pytest.raises(ValueError):
            GridData(self.grid(), nghost=0)


class TestProlongRestrict:
    def test_prolong_repeats(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
        fine = prolong_piecewise_constant(coarse, 2)
        assert fine.shape == (4, 4)
        assert (fine[:2, :2] == 1.0).all()
        assert (fine[2:, 2:] == 4.0).all()

    def test_restrict_averages(self):
        fine = np.arange(16.0).reshape(4, 4)
        coarse = restrict_conservative(fine, 2)
        assert coarse.shape == (2, 2)
        assert coarse[0, 0] == pytest.approx(fine[:2, :2].mean())

    def test_restrict_indivisible_raises(self):
        with pytest.raises(ValueError):
            restrict_conservative(np.zeros((3, 4)), 2)

    def test_bad_ratio_raises(self):
        with pytest.raises(ValueError):
            prolong_piecewise_constant(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            restrict_conservative(np.zeros((2, 2)), 0)

    @given(
        seed=st.integers(min_value=0, max_value=999),
        ratio=st.sampled_from([2, 3, 4]),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_identity(self, seed, ratio, n):
        """restrict(prolong(x)) == x exactly."""
        rng = np.random.default_rng(seed)
        coarse = rng.random((n, n))
        back = restrict_conservative(prolong_piecewise_constant(coarse, ratio), ratio)
        assert np.allclose(back, coarse)

    @given(seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_property_restriction_conserves_mean(self, seed):
        rng = np.random.default_rng(seed)
        fine = rng.random((8, 8))
        coarse = restrict_conservative(fine, 2)
        assert coarse.mean() == pytest.approx(fine.mean())


class TestFillGhosts:
    def two_sibling_setup(self):
        domain = Box((0, 0), (8, 4))
        h = GridHierarchy(domain, 2, 2)
        left, right = h.create_root_grids(
            BoxArray.from_boxes([Box((0, 0), (4, 4)), Box((4, 0), (8, 4))])
        )
        data = {
            left.gid: GridData(left),
            right.gid: GridData(right),
        }
        data[left.gid].interior = np.full((4, 4), 1.0)
        data[right.gid].interior = np.full((4, 4), 2.0)
        return h, left, right, data

    def test_sibling_ghosts_copied(self):
        h, left, right, data = self.two_sibling_setup()
        fill_ghosts(h, 0, data, {})
        # left grid's +x ghost column lies inside the right grid
        ghost = data[left.gid].view(Box((4, 0), (5, 4)))
        assert (ghost == 2.0).all()
        ghost_r = data[right.gid].view(Box((3, 0), (4, 4)))
        assert (ghost_r == 1.0).all()

    def test_domain_edges_clamped(self):
        h, left, right, data = self.two_sibling_setup()
        fill_ghosts(h, 0, data, {})
        # left grid's -x ghost column is outside the domain: outflow clamp
        ghost = data[left.gid].view(Box((-1, 0), (0, 4)))
        assert (ghost == 1.0).all()

    def test_parent_ghosts_interpolated(self):
        domain = Box((0, 0), (8, 8))
        h = GridHierarchy(domain, 2, 2)
        (root,) = h.create_root_grids(BoxArray.from_box(domain))
        child = h.add_grid(1, Box((4, 4), (8, 8)), root.gid)
        pdata = GridData(root)
        pdata.set_from_function(lambda x, y: x, cell_width=1.0)
        cdata = GridData(child)
        cdata.interior = np.zeros((4, 4))
        fill_ghosts(h, 1, {child.gid: cdata}, {root.gid: pdata})
        # child ghost at fine cell (3, 4) sits in coarse cell (1, 2):
        # parent value x = 1.5
        assert cdata.view(Box((3, 4), (4, 5)))[0, 0] == pytest.approx(1.5)

    def test_all_ghosts_valid_after_fill(self):
        h, left, right, data = self.two_sibling_setup()
        fill_ghosts(h, 0, data, {})
        assert data[left.gid].valid.all()
        assert data[right.gid].valid.all()


def _sibling_copies_reference(grids, data):
    """The former sibling discovery of ``fill_ghosts``: every ghosted outer
    box clipped against every interior as a dense matrix, walked in
    row-major order, as ``(gid, overlap)`` copies."""
    if len(grids) < 2:
        return []
    outer = np.array([[data[g.gid].outer.lo, data[g.gid].outer.hi] for g in grids])
    inner = np.array([[g.box.lo, g.box.hi] for g in grids])
    lo = np.maximum(outer[:, None, 0], inner[None, :, 0])
    hi = np.maximum(lo, np.minimum(outer[:, None, 1], inner[None, :, 1]))
    hit = (hi > lo).all(axis=2)
    np.fill_diagonal(hit, False)
    return [(grids[i].gid, Box(tuple(lo[i, j].tolist()), tuple(hi[i, j].tolist())))
            for i, j in zip(*np.nonzero(hit))]


@st.composite
def ghost_levels(draw):
    """A level-1 layout with gaps: a random subset of a block tiling of
    the refined domain, added in shuffled order."""
    ndim = draw(st.sampled_from([2, 3]))
    domain = Box.cube(0, 8, ndim)
    h = GridHierarchy(domain, 2, 2)
    (root,) = h.create_root_grids(BoxArray.from_box(domain))
    blocks = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=ndim, max_size=ndim))
    tiles = root_blocks(domain.refine(2), blocks)
    keep = draw(st.lists(st.booleans(), min_size=len(tiles), max_size=len(tiles)))
    kept = [tiles.box(i) for i, k in enumerate(keep) if k]
    for tile in draw(st.permutations(kept)):
        h.add_grid(1, tile, root.gid)
    return h


class TestFillGhostsMatchesReference:
    @given(h=ghost_levels(), nghost=st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_property_sibling_copy_order(self, h, nghost):
        """Sibling copies run in the former (grid, other) order; with no
        parent data every ``mark_valid`` call is a sibling copy."""
        grids = h.level_grids(1)
        data = {g.gid: GridData(g, nghost=nghost) for g in grids}
        calls = []
        mark_valid = GridData.mark_valid

        def spy(gd, box):
            calls.append((gd.grid.gid, box))
            mark_valid(gd, box)

        with mock.patch.object(GridData, "mark_valid", spy):
            fill_ghosts(h, 1, data, {})
        assert calls == _sibling_copies_reference(grids, data)
