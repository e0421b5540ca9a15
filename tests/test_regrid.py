"""Unit tests for the regridding pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import (
    RegridParams,
    apply_cluster_boxes,
    assemble_flags,
    regrid_level,
)
from repro.runtime import root_blocks


class BoxFlagApp:
    """Test application flagging a fixed box (in level-0 physical coords)."""

    name = "boxflag"

    def __init__(self, flag_box_level0, domain_cells=16, max_levels=3):
        self.flag_box = flag_box_level0
        self.domain_cells = domain_cells
        self.refinement_ratio = 2
        self.max_levels = max_levels
        self.domain = Box.cube(0, domain_cells, 3)

    def flags(self, level, box, time):
        target = self.flag_box.refine(2**level)
        out = np.zeros(box.shape, dtype=bool)
        inter = box.intersection(target)
        if not inter.is_empty:
            out[inter.slices(origin=box.lo)] = True
        return out

    def work_per_cell(self, level):
        return 1.0


def fresh(app):
    h = GridHierarchy(app.domain, 2, app.max_levels)
    h.create_root_grids(root_blocks(app.domain, (4, 1, 1)))
    return h


class TestAssembleFlags:
    def test_collects_from_all_roots(self):
        app = BoxFlagApp(Box((2, 2, 2), (6, 6, 6)))
        h = fresh(app)
        field = assemble_flags(h, app, 0, 0.0)
        assert field.nflagged == 4**3

    def test_shape_mismatch_raises(self):
        class BadApp(BoxFlagApp):
            def flags(self, level, box, time):
                return np.zeros((1, 1, 1), dtype=bool)

        app = BadApp(Box((0, 0, 0), (2, 2, 2)))
        h = fresh(app)
        with pytest.raises(ValueError):
            assemble_flags(h, app, 0, 0.0)


class TestRegridLevel:
    def test_creates_children_covering_flags(self):
        app = BoxFlagApp(Box((3, 3, 3), (6, 6, 6)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        assert created
        h.validate()
        # the flagged region (buffered by 1) must be covered at level 1
        flagged = Box((3, 3, 3), (6, 6, 6)).refine(2)
        covered = 0
        for g in h.level_grids(1):
            covered += g.box.intersection(flagged).ncells
        assert covered == flagged.ncells

    def test_no_flags_no_children(self):
        app = BoxFlagApp(Box((0, 0, 0), (0, 2, 2)))  # empty flag box
        h = fresh(app)
        assert regrid_level(h, app, 0, 0.0) == []

    def test_regrid_replaces_old_level(self):
        app = BoxFlagApp(Box((3, 3, 3), (6, 6, 6)))
        h = fresh(app)
        first = regrid_level(h, app, 0, 0.0)
        second = regrid_level(h, app, 0, 0.0)
        for g in first:
            assert not h.has_grid(g.gid)
        for g in second:
            assert h.has_grid(g.gid)

    def test_children_split_at_parent_boundaries(self):
        # flag a box straddling the boundary between root slabs at x=4
        app = BoxFlagApp(Box((2, 2, 2), (7, 6, 6)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        h.validate()  # nesting in a single parent each
        parents = {g.parent_gid for g in created}
        assert len(parents) >= 2  # pieces on both sides of x=4

    def test_max_level_is_respected(self):
        app = BoxFlagApp(Box((2, 2, 2), (6, 6, 6)), max_levels=2)
        h = fresh(app)
        regrid_level(h, app, 0, 0.0)
        assert regrid_level(h, app, 1, 0.0) == []

    def test_recursive_levels(self):
        app = BoxFlagApp(Box((2, 2, 2), (8, 8, 8)), max_levels=3)
        h = fresh(app)
        regrid_level(h, app, 0, 0.0)
        created2 = regrid_level(h, app, 1, 0.0)
        assert created2
        h.validate()
        for g in created2:
            assert g.level == 2

    def test_work_per_cell_taken_from_app(self):
        class Heavy(BoxFlagApp):
            def work_per_cell(self, level):
                return 3.0 if level > 0 else 1.0

        app = Heavy(Box((2, 2, 2), (5, 5, 5)))
        h = fresh(app)
        created = regrid_level(h, app, 0, 0.0)
        assert created
        assert h.level_work_per_cell(1).tolist() == [3.0] * len(created)

    def test_buffering_expands_refined_region(self):
        app = BoxFlagApp(Box((4, 4, 4), (6, 6, 6)))
        h = fresh(app)
        no_buffer = RegridParams(buffer_width=0)
        wide_buffer = RegridParams(buffer_width=2)
        cells_no = sum(g.box.ncells for g in regrid_level(h, app, 0, 0.0, no_buffer))
        cells_wide = sum(g.box.ncells for g in regrid_level(h, app, 0, 0.0, wide_buffer))
        assert cells_wide > cells_no

    def test_min_piece_cells_drops_slivers(self):
        app = BoxFlagApp(Box((3, 3, 3), (5, 5, 5)))
        h = fresh(app)
        params = RegridParams(min_piece_cells=10_000)  # absurd: drop all
        assert regrid_level(h, app, 0, 0.0, params) == []


# --------------------------------------------------------------------- #
# validation and piece order against the former dense clip
# --------------------------------------------------------------------- #


def _corners(boxes):
    return np.array([[b.lo, b.hi] for b in boxes], dtype=np.int64)


def _validate_pieces_reference(fine_level, parents, parent_idx, piece_lo,
                               piece_hi, ratio):
    """The former check: refined parent boxes, then a dense N x N overlap
    matrix whose first row-major entry names the pair."""
    if len(parent_idx) == 0:
        return
    pieces = BoxArray(np.stack([piece_lo, piece_hi], axis=1))
    refined = _corners([p.box.refine(ratio) for p in parents])
    nested = ((refined[parent_idx, 0] <= piece_lo)
              & (refined[parent_idx, 1] >= piece_hi)).all(axis=1)
    if not nested.all():
        k = int(np.argmin(nested))
        raise ValueError(
            f"child box {pieces.box(k)} not nested in parent "
            f"{parents[parent_idx[k]].gid}'s refined box "
            f"{parents[parent_idx[k]].box.refine(ratio)}")
    c = pieces.corners
    overlap = (np.maximum(c[:, None, 0], c[None, :, 0])
               < np.minimum(c[:, None, 1], c[None, :, 1])).all(axis=2)
    np.fill_diagonal(overlap, False)
    if overlap.any():
        a, b = map(int, np.argwhere(overlap)[0])
        raise ValueError(f"box {pieces.box(max(a, b))} overlaps box "
                         f"{pieces.box(min(a, b))} on level {fine_level}")


def _apply_reference(parents, cluster_boxes, ratio, min_piece_cells, fine_level):
    """The former dense clip: every (cluster, parent) intersection, kept in
    row-major order, validated, as ``(piece box, parent gid)``."""
    if not cluster_boxes:
        return []
    c, p = _corners(cluster_boxes), _corners([g.box for g in parents])
    lo = np.maximum(c[:, None, 0], p[None, :, 0])
    hi = np.maximum(lo, np.minimum(c[:, None, 1], p[None, :, 1]))
    keep = np.maximum(hi - lo, 0).prod(axis=2) >= max(1, min_piece_cells)
    ci, pi = np.nonzero(keep)
    piece_lo, piece_hi = lo[ci, pi] * ratio, hi[ci, pi] * ratio
    _validate_pieces_reference(fine_level, parents, pi, piece_lo, piece_hi, ratio)
    return [(Box(tuple(a.tolist()), tuple(b.tolist())), parents[k].gid)
            for a, b, k in zip(piece_lo, piece_hi, pi)]


def _outcome(fn, *args):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@st.composite
def random_boxes(draw, ndim, lo_max, max_ext, max_n):
    n = draw(st.integers(min_value=0, max_value=max_n))
    out = []
    for _ in range(n):
        lo = draw(st.lists(st.integers(min_value=-2, max_value=lo_max),
                           min_size=ndim, max_size=ndim))
        ext = draw(st.lists(st.integers(min_value=0, max_value=max_ext),
                            min_size=ndim, max_size=ndim))
        out.append(Box(tuple(lo), tuple(a + e for a, e in zip(lo, ext))))
    return out


@st.composite
def clip_cases(draw):
    """Root lattices of 1-4 blocks per axis and cluster boxes that may
    overlap each other, straddle parents or leave the domain."""
    ndim = draw(st.sampled_from([2, 3]))
    domain = Box.cube(0, 8, ndim)
    blocks = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=ndim, max_size=ndim))
    clusters = draw(random_boxes(ndim, lo_max=8, max_ext=6, max_n=8))
    return domain, blocks, clusters, draw(st.integers(min_value=1, max_value=4))


class TestApplyClusterBoxesMatchesReference:
    @given(case=clip_cases())
    @settings(max_examples=150, deadline=None)
    def test_property_pieces_and_errors_match(self, case):
        domain, blocks, clusters, min_cells = case
        h = GridHierarchy(domain, 2, 2)
        parents = h.create_root_grids(root_blocks(domain, blocks))
        want = _outcome(_apply_reference, parents, clusters, 2, min_cells, 1)
        got = _outcome(
            lambda: [(g.box, g.parent_gid) for g in apply_cluster_boxes(
                h, 0, clusters, 1.0, min_piece_cells=min_cells)])
        assert got == want

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_validate_pieces_matches(self, data):
        """``insert_grids`` checks a fine level's pieces as the former
        ``_validate_pieces`` did.  Pieces drawn mostly inside their parent's
        refined box, sometimes anywhere, so both the nesting and the
        overlap raise are reached."""
        ndim = data.draw(st.sampled_from([2, 3]))
        domain = Box.cube(0, 8, ndim)
        h = GridHierarchy(domain, 2, 2)
        parents = h.create_root_grids(root_blocks(domain, (2,) + (1,) * (ndim - 1)))
        refined = BoxArray.from_boxes([p.box for p in parents]).refine(2)
        idx, pieces = [], []
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            k = data.draw(st.integers(min_value=0, max_value=1))
            if data.draw(st.integers(min_value=0, max_value=9)) == 0:
                bounds = Box((-2,) * ndim, (20,) * ndim)
            else:
                bounds = refined.box(k)
            lo = [data.draw(st.integers(bounds.lo[d], bounds.hi[d] - 1))
                  for d in range(ndim)]
            hi = [data.draw(st.integers(lo[d] + 1, bounds.hi[d]))
                  for d in range(ndim)]
            idx.append(k)
            pieces.append(Box(tuple(lo), tuple(hi)))
        idx = np.array(idx, dtype=np.int64)
        c = _corners(pieces).reshape(len(pieces), 2, ndim)

        def insert():
            h.insert_grids(1, BoxArray(c), h.level_gids(0)[idx], 1.0)

        got = _outcome(insert)
        want = _outcome(_validate_pieces_reference, 1, parents, idx, c[:, 0],
                        c[:, 1], 2)
        assert got == want
        assert len(h.level_grids(1)) == (0 if got else len(pieces))

    def test_overlapping_cluster_boxes_raise(self):
        app = BoxFlagApp(Box((0, 0, 0), (1, 1, 1)))
        h = fresh(app)
        clusters = [Box((1, 1, 1), (3, 3, 3)), Box((2, 2, 2), (5, 5, 5))]
        with pytest.raises(ValueError) as err:
            apply_cluster_boxes(h, 0, clusters, 1.0)
        assert str(err.value) == (
            "box Box(lo=(4, 4, 4), hi=(8, 10, 10)) overlaps box "
            "Box(lo=(2, 2, 2), hi=(6, 6, 6)) on level 1")
        assert h.level_grids(1) == []
