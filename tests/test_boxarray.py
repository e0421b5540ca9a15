"""Property-style equivalence of every BoxArray kernel vs the scalar Box API.

The :class:`~repro.amr.boxarray.BoxArray` batch kernels replaced per-object
``Box`` calls on every hot path of the runtime (sibling adjacency, regrid
clipping, ghost-overlap discovery, message batching).  Their contract is
*bit-for-bit equivalence*: all arithmetic is ``int64`` lattice counts, so the
batched answer must equal the scalar answer exactly -- not approximately.

Two layers of protection:

* property-style sweeps over ~1000 seeded random box pairs (including empty
  boxes, touching boxes, and separations right at the ghost width) comparing
  every kernel against its scalar reference, and a hypothesis test of the
  :meth:`~repro.amr.boxarray.BoxArray.overlap_pairs` pair query against a
  brute-force scalar double loop;
* golden re-runs of the benchmark experiment under all four DLB schemes plus
  the faulted and trace record/replay variants, hashed against
  ``tests/data/golden_bench_solver.json`` (captured before the vectorized
  kernels were introduced).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import boxarray
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bench_solver.json"


# --------------------------------------------------------------------- #
# random box generation
# --------------------------------------------------------------------- #


def _random_boxes(rng: np.random.Generator, n: int, ndim: int) -> list:
    """Random boxes stressing the interesting regimes.

    Mix of generic boxes, empty boxes (zero extent on >= 1 axis), touching
    boxes (gap 0) and near-misses at exactly the ghost width -- the regimes
    where clamping and the ghost-separation screen must agree with the
    scalar arithmetic.
    """
    boxes = []
    for _ in range(n):
        lo = rng.integers(-8, 12, size=ndim)
        kind = rng.integers(0, 4)
        if kind == 0:  # generic
            ext = rng.integers(1, 7, size=ndim)
        elif kind == 1:  # empty on at least one axis
            ext = rng.integers(0, 4, size=ndim)
            ext[rng.integers(0, ndim)] = 0
        elif kind == 2:  # thin slabs (adjacency/touching cases)
            ext = rng.integers(1, 3, size=ndim)
        else:  # larger blocks
            ext = rng.integers(3, 10, size=ndim)
        boxes.append(Box(tuple(int(x) for x in lo), tuple(int(x) for x in lo + ext)))
    return boxes


def _pair_sets(ndim: int):
    """~1000 (a, b) box pairs per rank, seeded."""
    rng = np.random.default_rng(20010101 + ndim)
    a = _random_boxes(rng, 32, ndim)
    b = _random_boxes(rng, 32, ndim)
    # adjacency-heavy extra set: boxes laid out on a near-touching lattice
    # so gaps of exactly 0, 1 and 2 cells (the ghost regimes) are common
    c = []
    for _ in range(16):
        lo = rng.integers(0, 6, size=ndim) * 3
        ext = rng.integers(1, 4, size=ndim)
        c.append(Box(tuple(int(x) for x in lo), tuple(int(x) for x in lo + ext)))
    return a, b, c


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def pairs(request):
    a, b, c = _pair_sets(request.param)
    return a + c, b + c  # 48 x 48 = 2304 ordered pairs per rank


# --------------------------------------------------------------------- #
# unary kernels
# --------------------------------------------------------------------- #


def test_unary_kernels_match_scalar(pairs):
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    assert len(ba) == len(boxes)
    np.testing.assert_array_equal(ba.shapes(), [b.shape for b in boxes])
    np.testing.assert_array_equal(ba.ncells(), [b.ncells for b in boxes])
    np.testing.assert_array_equal(ba.is_empty(), [b.is_empty for b in boxes])
    np.testing.assert_array_equal(
        ba.surface_cells(), [b.surface_cells() for b in boxes]
    )


def test_transforms_match_scalar(pairs):
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    for n in (1, 2):
        grown = ba.grow(n)
        for i, b in enumerate(boxes):
            g = b.grow(n)
            assert tuple(grown.lo[i]) == g.lo and tuple(grown.hi[i]) == g.hi
    for ratio in (2, 4):
        ref = ba.refine(ratio)
        coar = ba.coarsen(ratio)
        for i, b in enumerate(boxes):
            r = b.refine(ratio)
            c = b.coarsen(ratio)
            assert tuple(ref.lo[i]) == r.lo and tuple(ref.hi[i]) == r.hi
            assert tuple(coar.lo[i]) == c.lo and tuple(coar.hi[i]) == c.hi


def test_grow_negative_raises_like_scalar():
    thin = Box((0, 0, 0), (1, 5, 5))
    ba = BoxArray.from_boxes([thin])
    with pytest.raises(ValueError):
        thin.grow(-1)
    with pytest.raises(ValueError):
        ba.grow(-1)


def test_clip_matches_scalar_intersection(pairs):
    boxes, others = pairs
    bounds = Box((0,) * boxes[0].ndim, (8,) * boxes[0].ndim)
    clipped = BoxArray.from_boxes(boxes).clip(bounds)
    for i, b in enumerate(boxes):
        ref = b.intersection(bounds)
        assert tuple(clipped.lo[i]) == ref.lo
        assert tuple(clipped.hi[i]) == ref.hi


def test_elementwise_intersection_matches_scalar(pairs):
    boxes, others = pairs
    inter = BoxArray.from_boxes(boxes).intersection(BoxArray.from_boxes(others))
    for i, (a, b) in enumerate(zip(boxes, others)):
        ref = a.intersection(b)
        assert tuple(inter.lo[i]) == ref.lo
        assert tuple(inter.hi[i]) == ref.hi


# --------------------------------------------------------------------- #
# pair queries: the overlap_pairs kernel against scalar Box double loops
# (these replaced the dense N x M kernels; each test keeps its old name)
# --------------------------------------------------------------------- #


def _intersections(ba, bb, i, j):
    """Corners of the intersections of the pairs ``(ba[i], bb[j])``."""
    return np.maximum(ba.lo[i], bb.lo[j]), np.minimum(ba.hi[i], bb.hi[j])


def test_intersection_pairwise_matches_scalar(pairs):
    """Pair query plus per-pair corners is the scalar intersection of every
    overlapping pair; every other pair has an empty scalar intersection."""
    boxes, others = pairs
    ba, bb = BoxArray.from_boxes(boxes), BoxArray.from_boxes(others)
    i, j = ba.overlap_pairs(bb)
    lo, hi = _intersections(ba, bb, i, j)
    found = set(zip(i.tolist(), j.tolist()))
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        ref = boxes[a].intersection(others[b])
        assert tuple(lo[k]) == ref.lo and tuple(hi[k]) == ref.hi
    for a, box_a in enumerate(boxes):
        for b, box_b in enumerate(others):
            if (a, b) not in found:
                assert box_a.intersection(box_b).is_empty, (box_a, box_b)


def test_intersects_and_ncells_pairwise_match_scalar(pairs):
    boxes, others = pairs
    ba, bb = BoxArray.from_boxes(boxes), BoxArray.from_boxes(others)
    i, j = ba.overlap_pairs(bb)
    want = [(a, b) for a, x in enumerate(boxes) for b, y in enumerate(others)
            if x.intersects(y)]
    assert list(zip(i.tolist(), j.tolist())) == want
    lo, hi = _intersections(ba, bb, i, j)
    cells = (hi - lo).prod(axis=1)
    assert cells.tolist() == [boxes[a].intersection(others[b]).ncells
                              for a, b in want]
    contains = ba.contains_pairwise(bb)
    for a, x in enumerate(boxes):
        for b, y in enumerate(others):
            assert bool(contains[a, b]) == x.contains(y), (x, y)


@pytest.mark.parametrize("ghost", [1, 2, 3])
def test_shared_face_area_pairwise_matches_scalar(pairs, ghost):
    """``shared_face_area_pairs`` over every ordered pair of two arrays."""
    boxes, others = pairs
    ba = BoxArray.from_boxes(boxes + others)
    ia, ib = np.meshgrid(np.arange(len(boxes)),
                         len(boxes) + np.arange(len(others)), indexing="ij")
    area = ba.shared_face_area_pairs(ia.ravel(), ib.ravel(), ghost)
    want = [a.shared_face_area(b, ghost) for a in boxes for b in others]
    assert area.tolist() == want


@pytest.mark.parametrize("ghost", [1, 2, 3])
def test_shared_face_area_pairs_matches_pairwise(pairs, ghost):
    """The ``reach=2*ghost`` pair query keeps every pair with a non-zero
    scalar exchange volume, and the pair kernel's volumes match it."""
    boxes, _ = pairs
    ba = BoxArray.from_boxes(boxes)
    ia, ib = ba.overlap_pairs(reach=2 * ghost)
    vals = ba.shared_face_area_pairs(ia, ib, ghost)
    got = {(a, b): v for a, b, v in zip(ia.tolist(), ib.tolist(), vals.tolist())}
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            want = boxes[a].shared_face_area(boxes[b], ghost)
            assert got.get((a, b), 0) == want, (boxes[a], boxes[b], ghost)


def test_first_overlap_pair_matches_scalar(pairs):
    """The self query lists exactly the pairs the O(N^2) scalar double
    loop finds, in its order, so its first pair is the loop's first."""
    boxes, _ = pairs
    ia, ib = BoxArray.from_boxes(boxes).overlap_pairs()
    want = [(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
            if boxes[i].intersects(boxes[j])]
    assert list(zip(ia.tolist(), ib.tolist())) == want


def test_first_overlap_pair_disjoint_tiling():
    tiles = [Box((i * 4, j * 4), (i * 4 + 4, j * 4 + 4))
             for i in range(8) for j in range(8)]
    ba = BoxArray.from_boxes(tiles)
    assert len(ba.overlap_pairs()[0]) == 0
    # one cell of reach joins face and corner neighbours: 2*8*7 + 2*7*7
    assert len(ba.overlap_pairs(reach=1)[0]) == 210


def test_first_overlap_pair_ignores_empty_boxes():
    boxes = [Box((0, 0), (4, 4)), Box((2, 2), (2, 6)), Box((2, 2), (2, 2))]
    ba = BoxArray.from_boxes(boxes)
    assert len(ba.overlap_pairs()[0]) == 0
    assert len(ba.overlap_pairs(reach=4)[0]) == 0
    boxes.append(Box((3, 3), (6, 6)))
    ia, ib = BoxArray.from_boxes(boxes).overlap_pairs()
    assert list(zip(ia.tolist(), ib.tolist())) == [(0, 3)]


def test_first_overlap_pair_shared_slab():
    # every box shares one axis-0 interval: the sweep must pick axis 1
    cols = [Box((0, k), (8, k + 1)) for k in range(64)]
    assert len(BoxArray.from_boxes(cols).overlap_pairs()[0]) == 0
    cols[40] = Box((0, 39), (8, 41))
    ia, ib = BoxArray.from_boxes(cols).overlap_pairs()
    assert list(zip(ia.tolist(), ib.tolist())) == [(39, 40)]


def _pairs_reference(a, b, reach):
    """Brute-force scalar double loop: extend both upper corners by
    ``reach`` and ask :meth:`Box.intersects`; empty entries (inverted ones
    clamp to empty) never pair, and a self query keeps ``i < j``."""
    def extended(ba):
        boxes = [ba.box(i) for i in range(len(ba))]
        return [None if x.is_empty else Box(x.lo, tuple(h + reach for h in x.hi))
                for x in boxes]

    xa = extended(a)
    xb = xa if b is None else extended(b)
    return [(i, j) for i, x in enumerate(xa) for j, y in enumerate(xb)
            if (b is not None or i < j) and x is not None and y is not None
            and x.intersects(y)]


@st.composite
def corner_arrays(draw, ndim):
    """Raw ``(N, 2, ndim)`` corners on a small lattice, so overlaps, faces,
    edges and corners touch often; extents of 0 are empty and negative
    extents are inverted entries."""
    n = draw(st.integers(min_value=0, max_value=24))
    coord = st.lists(st.integers(min_value=-4, max_value=8),
                     min_size=ndim, max_size=ndim)
    extent = st.lists(st.integers(min_value=-2, max_value=5),
                      min_size=ndim, max_size=ndim)
    lo = np.array(draw(st.lists(coord, min_size=n, max_size=n)),
                  dtype=np.int64).reshape(n, ndim)
    ext = np.array(draw(st.lists(extent, min_size=n, max_size=n)),
                   dtype=np.int64).reshape(n, ndim)
    return BoxArray(np.stack([lo, lo + ext], axis=1))


@st.composite
def pair_queries(draw):
    ndim = draw(st.sampled_from([2, 3]))
    a = draw(corner_arrays(ndim))
    b = draw(st.none() | corner_arrays(ndim))
    reach = draw(st.sampled_from([0, 2, 4, 6]))  # 0 and 2 * ghost, ghost 1-3
    return a, b, reach


class TestOverlapPairsMatchesReference:
    """``overlap_pairs`` lists exactly the scalar double loop's pairs, in
    its order, whatever the sweep axis and batch size."""

    @staticmethod
    def assert_same(a, b, reach):
        ia, ib = a.overlap_pairs(b, reach)
        assert ia.dtype == ib.dtype == np.int64
        assert list(zip(ia.tolist(), ib.tolist())) == _pairs_reference(a, b, reach)

    @given(case=pair_queries())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference(self, case):
        self.assert_same(*case)

    @given(case=pair_queries(), batch=st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_property_small_batches(self, case, batch):
        with mock.patch.object(boxarray, "_BATCH_PAIRS", batch):
            self.assert_same(*case)

    @pytest.mark.parametrize("offset", [(2, 0, 0), (2, 2, 0), (2, 2, 2)],
                             ids=["face", "edge", "corner"])
    def test_touching_pairs_need_reach(self, offset):
        cube = Box((0, 0, 0), (2, 2, 2))
        other = Box(offset, tuple(o + 2 for o in offset))
        ba = BoxArray.from_boxes([cube, other])
        assert len(ba.overlap_pairs()[0]) == 0
        for reach in (1, 2):
            ia, ib = ba.overlap_pairs(reach=reach)
            assert list(zip(ia.tolist(), ib.tolist())) == [(0, 1)]
        self.assert_same(ba, None, 1)

    def test_bipartite_keeps_self_index_pairs(self):
        ba = BoxArray.from_boxes([Box((0, 0), (2, 2)), Box((4, 0), (6, 2))])
        ia, ib = ba.overlap_pairs(ba)
        assert list(zip(ia.tolist(), ib.tolist())) == [(0, 0), (1, 1)]

    def test_bad_arguments_raise(self):
        ba = BoxArray.from_boxes([Box((0, 0), (2, 2))])
        with pytest.raises(ValueError, match="rank"):
            ba.overlap_pairs(BoxArray.from_boxes([Box((0, 0, 0), (1, 1, 1))]))
        with pytest.raises(ValueError, match="reach"):
            ba.overlap_pairs(reach=-1)


def test_roundtrip_and_box_accessor():
    boxes = [Box((0, 0), (2, 3)), Box((5, 5), (5, 9)), Box((-4, 1), (0, 2))]
    ba = BoxArray.from_boxes(boxes)
    assert [ba.box(i) for i in range(len(ba))] == boxes
    # inverted entries clamp on unpacking, like Box.intersection
    inv = BoxArray(np.array([[[3, 0], [1, 4]]]))
    assert inv.box(0) == Box((3, 0), (3, 4))


# --------------------------------------------------------------------- #
# golden re-runs: the vectorized runtime is bit-for-bit the scalar one
# --------------------------------------------------------------------- #


def _result_hash(result) -> str:
    from repro.harness.persist import run_result_to_dict

    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def bench_config(golden):
    from repro.harness import ExperimentConfig

    cfg = golden["config"]
    return ExperimentConfig(
        app_name=cfg["app"], network=cfg["network"],
        procs_per_group=cfg["procs_per_group"], steps=cfg["steps"],
        domain_cells=cfg["domain_cells"], max_levels=cfg["max_levels"],
    )


@pytest.mark.parametrize("scheme", ["diffusion", "distributed", "parallel", "static"])
def test_golden_scheme_results_unchanged(golden, bench_config, scheme):
    from repro.harness import run_experiment

    result = run_experiment(bench_config, scheme)
    assert _result_hash(result) == golden["results"][f"bench/{scheme}"], (
        f"vectorized run of scheme {scheme!r} diverged from the scalar golden"
    )


def test_golden_faulted_result_unchanged(golden, bench_config):
    from repro.config import FaultParams
    from repro.harness import run_experiment

    config = dataclasses.replace(bench_config, fault=FaultParams(scenario="slowdown"))
    result = run_experiment(config, "distributed")
    assert _result_hash(result) == golden["results"]["faulted/distributed"]


def test_golden_trace_record_replay_unchanged(golden, bench_config, tmp_path):
    from repro.traces import record_run, replay_trace, write_trace

    recorded, trace = record_run(bench_config, "distributed")
    assert _result_hash(recorded) == golden["results"]["bench/recorded"]

    replayed = replay_trace(trace, bench_config, "distributed", strict=True)
    assert _result_hash(replayed) == golden["results"]["bench/replayed"]

    trace_path = tmp_path / "golden.trace.jsonl.gz"
    write_trace(trace, trace_path)
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest == golden["trace_sha256"], (
        "recorded trace bytes diverged from the scalar golden"
    )
