"""Unit and property tests for Berger--Rigoutsos clustering.

The clustering invariants every SAMR grid generator must hold:

* every flagged cell is covered by some output box;
* output boxes are pairwise disjoint;
* output boxes stay inside the input field's box;
* each output box meets the efficiency threshold unless it cannot be
  split further.

``cluster_flags`` runs the recursion one depth at a time over one
summed-area table.  The per-candidate stack it replaced, with its per-axis
prefix tables and scalar split-plane choice, is kept below as
:func:`_cluster_flags_reference`; the two must return identical boxes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.amr.regrid as regrid_mod
from repro.amr.box import Box
from repro.amr.clustering import ClusterParams, cluster_flags, fill_efficiency
from repro.amr.flagging import FlagField


def make_field(shape, coords):
    flags = np.zeros(shape, dtype=bool)
    for c in coords:
        flags[c] = True
    return FlagField(Box((0,) * len(shape), shape), flags)


class TestClusterParams:
    def test_bad_efficiency_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(min_efficiency=0.0)
        with pytest.raises(ValueError):
            ClusterParams(min_efficiency=1.5)

    def test_bad_max_cells_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(max_cells=0)

    def test_bad_min_width_raises(self):
        with pytest.raises(ValueError):
            ClusterParams(min_width=0)


class TestFillEfficiency:
    def test_full_box(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        assert fill_efficiency(f, f.box) == 1.0

    def test_empty_box_is_zero(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        assert fill_efficiency(f, Box((2, 2), (2, 4))) == 0.0

    def test_partial(self):
        f = make_field((4, 4), [(0, 0), (0, 1)])
        assert fill_efficiency(f, f.box) == 2 / 16


class TestClusterFlags:
    def test_no_flags_no_boxes(self):
        f = FlagField.empty(Box((0, 0), (8, 8)))
        assert cluster_flags(f) == []

    def test_single_blob_single_box(self):
        f = make_field((8, 8), [(2, 2), (2, 3), (3, 2), (3, 3)])
        boxes = cluster_flags(f)
        assert boxes == [Box((2, 2), (4, 4))]

    def test_two_separated_blobs_split(self):
        f = make_field((16, 4), [(1, 1), (1, 2), (14, 1), (14, 2)])
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.7, min_width=1))
        assert len(boxes) == 2

    def test_max_cells_respected_for_splittable_boxes(self):
        f = FlagField.full(Box((0, 0), (16, 16)))
        params = ClusterParams(min_efficiency=0.5, max_cells=64, min_width=2)
        boxes = cluster_flags(f, params)
        assert all(b.ncells <= 64 for b in boxes)

    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        flags = rng.random((20, 20)) < 0.3
        f = FlagField(Box((0, 0), (20, 20)), flags)
        assert cluster_flags(f) == cluster_flags(f)

    def test_diagonal_line_efficient_boxes(self):
        n = 16
        f = make_field((n, n), [(i, i) for i in range(n)])
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.5, min_width=1))
        for b in boxes:
            eff = fill_efficiency(f, b)
            splittable = any(s >= 2 for s in b.shape)
            assert eff >= 0.5 or not splittable

    def test_l_shape_produces_multiple_boxes(self):
        coords = [(i, 0) for i in range(8)] + [(0, j) for j in range(8)]
        f = make_field((8, 8), coords)
        boxes = cluster_flags(f, ClusterParams(min_efficiency=0.8, min_width=1))
        assert len(boxes) >= 2
        covered = set()
        for b in boxes:
            covered |= set(b)
        assert set((c[0], c[1]) for c in coords) <= covered


#: largest extent per axis drawn for a field of each rank
_MAX_EXTENT = {1: 48, 2: 20, 3: 10}


@st.composite
def flag_fields(draw):
    """A flag field of rank 1--3 at an offset (possibly negative) origin.

    The flags are empty, sparse, dense, full, a few solid blobs, or whole
    planes (a slab of flags across every axis but one) over sparse noise.
    """
    ndim = draw(st.sampled_from([1, 2, 3]))
    origin = tuple(draw(st.lists(st.integers(-40, 40), min_size=ndim, max_size=ndim)))
    kind = draw(st.sampled_from(["sparse", "dense", "blobs", "planes", "full", "empty"]))
    # the shape comes from the seed, not from hypothesis, so that large
    # fields are as likely as small ones
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = tuple(int(n) for n in rng.integers(1, _MAX_EXTENT[ndim] + 1, size=ndim))
    if kind == "empty":
        flags = np.zeros(shape, dtype=bool)
    elif kind == "sparse":
        flags = rng.random(shape) < rng.choice([0.02, 0.1])
    elif kind == "dense":
        flags = rng.random(shape) < rng.choice([0.3, 0.7, 0.95])
    elif kind == "full":
        flags = np.ones(shape, dtype=bool)
    elif kind == "blobs":
        flags = np.zeros(shape, dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            lo = rng.integers(0, shape)
            hi = lo + rng.integers(1, np.array(shape) + 1)
            flags[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    else:
        flags = rng.random(shape) < 0.03
        for _ in range(int(rng.integers(1, 3))):
            axis = int(rng.integers(0, ndim))
            index = [slice(None)] * ndim
            index[axis] = int(rng.integers(0, shape[axis]))
            flags[tuple(index)] = True
    box = Box(origin, tuple(o + n for o, n in zip(origin, shape)))
    return FlagField(box, flags)


def cluster_params():
    """``ClusterParams`` with every knob drawn out to its edges."""
    return st.builds(
        ClusterParams,
        min_efficiency=st.one_of(
            st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        max_cells=st.one_of(st.integers(1, 4096), st.sampled_from([1, 2, 3, 4096])),
        min_width=st.integers(min_value=1, max_value=4),
    )


def _splittable(box: Box, params: ClusterParams) -> bool:
    return any(s >= 2 * params.min_width for s in box.shape)


class TestClusterProperties:
    """The invariants on fields of every rank, off the origin, under any
    ``ClusterParams``."""

    @given(flag_fields(), cluster_params())
    @settings(max_examples=60, deadline=None)
    def test_coverage(self, field, params):
        """Every flagged cell lies in exactly one output box."""
        hits = np.zeros(field.flags.shape, dtype=np.int64)
        for b in cluster_flags(field, params):
            hits[b.slices(origin=field.box.lo)] += 1
        assert np.array_equal(hits[field.flags], np.ones(field.nflagged, dtype=np.int64))

    @given(flag_fields(), cluster_params())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_and_contained(self, field, params):
        boxes = cluster_flags(field, params)
        for i, a in enumerate(boxes):
            assert field.box.contains(a)
            assert not a.is_empty
            for b in boxes[i + 1 :]:
                assert not a.intersects(b)

    @given(flag_fields(), cluster_params())
    @settings(max_examples=60, deadline=None)
    def test_efficiency_or_unsplittable(self, field, params):
        for b in cluster_flags(field, params):
            eff = fill_efficiency(field, b)
            assert eff >= params.min_efficiency or not _splittable(b, params)

    @given(flag_fields(), cluster_params())
    @settings(max_examples=60, deadline=None)
    def test_max_cells_or_unsplittable(self, field, params):
        for b in cluster_flags(field, params):
            assert b.ncells <= params.max_cells or not _splittable(b, params)

    @given(flag_fields(), cluster_params())
    @settings(max_examples=60, deadline=None)
    def test_boxes_contain_flags(self, field, params):
        """Shrink-to-fit: every box is the bounding box of its own flags."""
        for b in cluster_flags(field, params):
            coords = np.argwhere(field.restrict(b).flags) + b.lo
            assert len(coords)
            assert tuple(coords.min(axis=0)) == b.lo
            assert tuple(coords.max(axis=0) + 1) == b.hi


# --------------------------------------------------------------------- #
# reference: the per-candidate recursion ``cluster_flags`` replaced
# --------------------------------------------------------------------- #


#: (shrunk box, its per-axis signatures, its flagged-cell count)
_Candidate = Tuple[Box, List[np.ndarray], int]


class _SignatureTable:
    """Per-axis prefix-sum tables answering signature queries for any sub-box.

    For each axis ``d`` the table holds the flag array cumulatively summed
    along every *other* axis, zero-padded by one plane at the low end; the
    signature of a sub-box is an inclusion--exclusion combination of
    ``2^(ndim-1)`` table slices.
    """

    def __init__(self, field: FlagField) -> None:
        self.origin = field.box.lo
        flags = field.flags
        self.ndim = flags.ndim
        self.tables: List[np.ndarray] = []
        self.others: List[Tuple[int, ...]] = []
        for d in range(self.ndim):
            t = flags.astype(np.int64)
            for ax in range(self.ndim):
                if ax != d:
                    t = t.cumsum(axis=ax)
            pad = [(0, 0) if ax == d else (1, 0) for ax in range(self.ndim)]
            self.tables.append(np.pad(t, pad))
            self.others.append(tuple(ax for ax in range(self.ndim) if ax != d))

    def signature(self, box: Box, d: int) -> np.ndarray:
        lo = tuple(box.lo[a] - self.origin[a] for a in range(self.ndim))
        hi = tuple(box.hi[a] - self.origin[a] for a in range(self.ndim))
        base: List[object] = [0] * self.ndim
        base[d] = slice(lo[d], hi[d])
        out: Optional[np.ndarray] = None
        for mask in range(1 << len(self.others[d])):
            idx = list(base)
            bits = 0
            for j, ax in enumerate(self.others[d]):
                if (mask >> j) & 1:
                    idx[ax] = lo[ax]
                    bits += 1
                else:
                    idx[ax] = hi[ax]
            term = self.tables[d][tuple(idx)]
            if out is None:
                out = term.copy()
            elif bits % 2:
                out -= term
            else:
                out += term
        assert out is not None
        return out

    def shrink(self, box: Box) -> Optional[_Candidate]:
        if box.is_empty:
            return None
        sigs = [self.signature(box, d) for d in range(self.ndim)]
        nz0 = np.nonzero(sigs[0])[0]
        if len(nz0) == 0:
            return None
        lo = list(box.lo)
        hi = list(box.hi)
        for d in range(self.ndim):
            nz = nz0 if d == 0 else np.nonzero(sigs[d])[0]
            a, b = int(nz[0]), int(nz[-1]) + 1
            lo[d] = box.lo[d] + a
            hi[d] = box.lo[d] + b
            sigs[d] = sigs[d][a:b]
        return Box(tuple(lo), tuple(hi)), sigs, int(sigs[0].sum())


def _find_split(
    box: Box, sigs: List[np.ndarray], params: ClusterParams
) -> Optional[Tuple[Box, Box]]:
    """Holes first, then the strongest Laplacian zero crossing, then the
    midpoint of the longest axis; ties go to the first candidate in
    (axis, position) order."""
    min_w = params.min_width
    best_hole: Optional[Tuple[int, int]] = None  # (axis, plane)
    best_hole_centrality = -1.0
    for d in range(box.ndim):
        sig = sigs[d]
        if len(sig) < 2 * min_w:
            continue
        zeros = np.nonzero(sig == 0)[0]
        if len(zeros) == 0:
            continue
        cand = np.empty(2 * len(zeros), dtype=np.int64)
        cand[0::2] = box.lo[d] + zeros
        cand[1::2] = cand[0::2] + 1
        cand = cand[(cand >= box.lo[d] + min_w) & (cand <= box.hi[d] - min_w)]
        if len(cand) == 0:
            continue
        centrality = -np.abs((cand - box.lo[d]) / len(sig) - 0.5)
        k = int(np.argmax(centrality))
        if centrality[k] > best_hole_centrality:
            best_hole_centrality = float(centrality[k])
            best_hole = (d, int(cand[k]))
    if best_hole is not None:
        return box.split(*best_hole)
    best_edge: Optional[Tuple[int, int]] = None  # (axis, plane)
    best_strength = 0
    for d in range(box.ndim):
        sig = sigs[d]
        if len(sig) < 4 or len(sig) < 2 * min_w:
            continue
        lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]
        cross = np.nonzero(lap[:-1] * lap[1:] < 0)[0]
        if len(cross) == 0:
            continue
        planes = box.lo[d] + cross + 2
        valid = (planes >= box.lo[d] + min_w) & (planes <= box.hi[d] - min_w)
        if not valid.any():
            continue
        strength = np.abs(lap[cross[valid]] - lap[cross[valid] + 1])
        planes = planes[valid]
        k = int(np.argmax(strength))
        if int(strength[k]) > best_strength:
            best_strength = int(strength[k])
            best_edge = (d, int(planes[k]))
    if best_edge is not None:
        return box.split(*best_edge)
    axis = box.longest_axis()
    plane = box.lo[axis] + box.shape[axis] // 2
    if _valid_plane(box, axis, plane, params.min_width):
        return box.split(axis, plane)
    for d in sorted(range(box.ndim), key=lambda a: -box.shape[a]):
        plane = box.lo[d] + box.shape[d] // 2
        if _valid_plane(box, d, plane, params.min_width):
            return box.split(d, plane)
    return None


def _valid_plane(box: Box, axis: int, plane: int, min_width: int) -> bool:
    return box.lo[axis] + min_width <= plane <= box.hi[axis] - min_width


def _cluster_flags_reference(
    field: FlagField, params: Optional[ClusterParams] = None
) -> List[Box]:
    """The per-candidate stack: shrink, accept or split one box at a time."""
    params = params or ClusterParams()
    if not field.any:
        return []
    table = _SignatureTable(field)
    out: List[Box] = []
    stack = [table.shrink(field.box)]
    while stack:
        item = stack.pop()
        if item is None:
            continue
        box, sigs, nflagged = item
        if nflagged == 0:
            continue
        shape = tuple(s.shape[0] for s in sigs)
        ncells = 1
        for extent in shape:
            ncells *= extent
        eff = nflagged / ncells
        splittable = any(s >= 2 * params.min_width for s in shape)
        if (eff >= params.min_efficiency and ncells <= params.max_cells) or not splittable:
            if ncells > params.max_cells and splittable:
                pass  # fall through to split below
            else:
                out.append(box)
                continue
        split = _find_split(box, sigs, params)
        if split is None:
            out.append(box)
            continue
        left, right = split
        stack.append(table.shrink(left))
        stack.append(table.shrink(right))
    out.sort()
    return out


def _assert_same_boxes(got: List[Box], want: List[Box]) -> None:
    assert [(b.lo, b.hi) for b in got] == [(b.lo, b.hi) for b in want]
    for b in got:
        assert all(type(x) is int for x in b.lo + b.hi)


class TestMatchesReference:
    """The depth-at-a-time recursion returns exactly the reference's boxes,
    in the same order."""

    @given(flag_fields(), cluster_params())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, field, params):
        _assert_same_boxes(cluster_flags(field, params),
                           _cluster_flags_reference(field, params))

    @pytest.mark.parametrize("params", [
        ClusterParams(),
        ClusterParams(min_efficiency=1.0, max_cells=1, min_width=1),
        ClusterParams(min_efficiency=0.3, max_cells=64, min_width=4),
    ])
    def test_dense_3d_blocks_match(self, params):
        rng = np.random.default_rng(11)
        flags = rng.random((12, 14, 9)) < 0.4
        flags[3:9, 2:12, 1:8] = True
        field = FlagField(Box((-7, 3, -20), (5, 17, -11)), flags)
        _assert_same_boxes(cluster_flags(field, params),
                           _cluster_flags_reference(field, params))

    @pytest.mark.parametrize("flags,lo,want", [
        # holes of equal centrality on both axes: the first axis wins
        (np.ones((9, 9), dtype=bool) & (np.arange(9) != 4)[:, None]
         & (np.arange(9) != 4)[None, :], (0, 0),
         [Box((0, 0), (4, 9)), Box((5, 0), (9, 9))]),
        # planes 4 and 6 are equally central: the first plane wins
        (np.isin(np.arange(10), [3, 6], invert=True), (-5,),
         [Box((-5,), (-2,)), Box((-1,), (5,))]),
    ], ids=["first-axis", "first-plane"])
    def test_ties_go_to_first_candidate(self, flags, lo, want):
        box = Box(lo, tuple(a + n for a, n in zip(lo, flags.shape)))
        field = FlagField(box, flags)
        params = ClusterParams(min_efficiency=0.81, min_width=1)
        got = cluster_flags(field, params)
        _assert_same_boxes(got, _cluster_flags_reference(field, params))
        assert got == want

    def test_shockpool_regrids_match(self, monkeypatch):
        """Every clustering call of a short ``amr-shockpool`` run (shock
        pool, 3-D, WAN 4 + 4, 32^3, 3 levels, bursty traffic) matches the
        reference."""
        from repro.harness import ExperimentConfig, run_experiment

        calls = []

        def checked(field, params=None):
            got = cluster_flags(field, params)
            _assert_same_boxes(got, _cluster_flags_reference(field, params))
            calls.append(len(got))
            return got

        monkeypatch.setattr(regrid_mod, "cluster_flags", checked)
        cfg = ExperimentConfig(app_name="shockpool3d", network="wan", procs_per_group=4,
                               steps=3, domain_cells=32, max_levels=3,
                               traffic_kind="bursty")
        run_experiment(cfg, "distributed", seed=0)
        assert len(calls) >= 5 and sum(calls) > 100
