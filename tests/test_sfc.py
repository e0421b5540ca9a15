"""Space-filling-curve partitioning: keys, cuts, policies (``repro.partition.sfc``).

Three layers of guarantees:

* the curve kernels are exact bijections (encode/decode round-trips, full
  lattice coverage) and the Hilbert curve has its defining locality property
  (consecutive keys are face-adjacent lattice cells);
* :func:`contiguous_segments` cuts a curve-ordered weight sequence into
  contiguous, capacity-proportional segments -- including heterogeneous
  processor speeds (Eq. 5's proportional split along a different ordering);
* the registered ``sfc:morton`` / ``sfc:hilbert`` schemes distribute work
  capacity-proportionally across groups and run end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import GridHierarchy
from repro.config import SchemeParams, SimParams
from repro.core.base import BalanceContext
from repro.core.gain import WorkloadHistory
from repro.core.policies import NominalWeights, SFCLocal, SFCPartition
from repro.core.registry import make_scheme
from repro.distsys import ClusterSimulator, GroupSpec, SystemSpec, build_system
from repro.harness import ExperimentConfig, run_experiment
from repro.partition import GridAssignment
from repro.partition.sfc import (
    CURVES,
    box_centroid_keys,
    contiguous_segments,
    curve_bits,
    curve_key,
    curve_order,
    hilbert_decode,
    hilbert_key,
    morton_decode,
    morton_key,
)
from repro.runtime import root_blocks


def full_lattice(ndim: int, nbits: int) -> np.ndarray:
    """Every lattice point of the ``(2**nbits)**ndim`` cube, row-major."""
    side = 1 << nbits
    grids = np.meshgrid(*([np.arange(side)] * ndim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class TestCurveKernels:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("nbits", [1, 2, 3, 4])
    @pytest.mark.parametrize("curve", CURVES)
    def test_round_trip_random(self, ndim, nbits, curve, seed=7):
        rng = np.random.default_rng(seed + ndim + nbits)
        coords = rng.integers(0, 1 << nbits, size=(64, ndim))
        keys = curve_key(coords, nbits, curve)
        decode = morton_decode if curve == "morton" else hilbert_decode
        np.testing.assert_array_equal(decode(keys, ndim, nbits), coords)

    @pytest.mark.parametrize("ndim,nbits", [(1, 4), (2, 3), (3, 2)])
    @pytest.mark.parametrize("curve", CURVES)
    def test_bijection_on_full_lattice(self, ndim, nbits, curve):
        keys = curve_key(full_lattice(ndim, nbits), nbits, curve)
        expected = np.arange(1 << (nbits * ndim))
        np.testing.assert_array_equal(np.sort(keys), expected)

    @pytest.mark.parametrize("ndim,nbits", [(2, 3), (3, 2), (3, 3)])
    def test_hilbert_consecutive_keys_are_face_adjacent(self, ndim, nbits):
        nkeys = 1 << (nbits * ndim)
        coords = hilbert_decode(np.arange(nkeys), ndim, nbits)
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_morton_locality_is_weaker_than_hilbert(self):
        # same full 2-d lattice: the Z-curve takes long diagonal jumps the
        # Hilbert curve never does
        nkeys = 1 << (2 * 3)
        morton_steps = np.abs(
            np.diff(morton_decode(np.arange(nkeys), 2, 3), axis=0)).sum(axis=1)
        assert morton_steps.max() > 1
        assert morton_steps.mean() > 1.0

    def test_axis0_is_most_significant(self):
        keys = morton_key(np.array([[1, 0], [0, 1]]), 1)
        assert keys[0] > keys[1]

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError, match="range|non-negative"):
            morton_key(np.array([[-1, 0]]), 2)

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError, match="range"):
            hilbert_key(np.array([[4, 0]]), 2)

    def test_rejects_key_overflow(self):
        with pytest.raises(ValueError, match="62"):
            morton_key(np.zeros((1, 3), dtype=np.int64), 21)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError, match="peano"):
            curve_key(np.zeros((1, 2), dtype=np.int64), 1, "peano")

    def test_curve_bits(self):
        assert curve_bits(np.array([[0, 0]])) == 1
        assert curve_bits(np.array([[0, 7]])) == 3
        assert curve_bits(np.array([[0, 8]])) == 4

    def test_empty_batch(self):
        for curve in CURVES:
            assert curve_key(np.zeros((0, 3), dtype=np.int64), 4, curve).size == 0


class TestCentroidKeys:
    def test_translation_invariant(self):
        boxes = [Box((i * 4, 0, 0), (i * 4 + 4, 4, 4)) for i in range(4)]
        shifted = [Box((i * 4 + 32, 16, 8), (i * 4 + 36, 20, 12)) for i in range(4)]
        for curve in CURVES:
            np.testing.assert_array_equal(
                box_centroid_keys(BoxArray.from_boxes(boxes), curve),
                box_centroid_keys(BoxArray.from_boxes(shifted), curve),
            )

    def test_grids_curve_order_ties_break_by_gid(self):
        domain = Box.cube(0, 8, 3)
        h = GridHierarchy(domain, 2, 2)
        h.create_root_grids(root_blocks(domain, (2, 1, 1)))
        boxes, gids = h.level_boxes(0), h.level_gids(0)
        # duplicate centroids cannot happen at level 0; check determinism
        # of the order itself instead
        for curve in CURVES:
            order = curve_order(boxes, gids, curve)
            np.testing.assert_array_equal(order, curve_order(boxes, gids, curve))


class TestContiguousSegments:
    def test_even_cut(self):
        owners = contiguous_segments([1.0] * 8, [4.0, 4.0])
        np.testing.assert_array_equal(owners, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_proportional_cut_heterogeneous_targets(self):
        # capacities 1:3 over uniform items: the fast segment gets ~3/4
        owners = contiguous_segments([1.0] * 8, [2.0, 6.0])
        np.testing.assert_array_equal(owners, [0, 0, 1, 1, 1, 1, 1, 1])

    def test_midpoint_straddle_rule(self):
        # the third item (weight 2) overlaps the boundary at 4 by exactly
        # half; the midpoint rule sends it right
        owners = contiguous_segments([3.0, 2.0, 3.0], [4.0, 4.0])
        np.testing.assert_array_equal(owners, [0, 1, 1])

    def test_contiguity_and_range(self):
        rng = np.random.default_rng(3)
        weights = rng.random(50)
        targets = [weights.sum() / 3] * 3
        owners = contiguous_segments(weights, targets)
        assert (np.diff(owners) >= 0).all()
        assert owners.min() >= 0 and owners.max() <= 2

    def test_more_segments_than_items_stays_in_range(self):
        owners = contiguous_segments([1.0, 1.0], [0.5] * 4)
        assert owners.max() <= 3

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            contiguous_segments([1.0], [])


def make_sfc_ctx(group_weights=(1.0, 1.0), n=16, blocks=(8, 1, 1)):
    """A fresh 2-group context with unassigned root grids."""
    domain = Box.cube(0, n, 3)
    h = GridHierarchy(domain, 2, 3)
    h.create_root_grids(root_blocks(domain, blocks))
    spec = SystemSpec(
        groups=tuple(GroupSpec(nprocs=2, weight=w) for w in group_weights),
        base_speed=2e4,
    )
    system = build_system(spec)
    ctx = BalanceContext(
        hierarchy=h, assignment=GridAssignment(h, system), system=system,
        sim=ClusterSimulator(system),
        sim_params=SimParams(), scheme_params=SchemeParams(),
        history=WorkloadHistory(),
    )
    return ctx


class TestSFCPolicies:
    @pytest.mark.parametrize("curve", CURVES)
    def test_initial_distribution_is_capacity_proportional(self, curve):
        # group weights 1:3 -> the heavy group should own ~3/4 of the work
        ctx = make_sfc_ctx(group_weights=(1.0, 3.0))
        SFCPartition(curve).initial_distribution(ctx, NominalWeights())
        loads = {0: 0.0, 1: 0.0}
        for g in ctx.hierarchy.level_grids(0):
            loads[ctx.assignment.group_of(g.gid)] += g.workload
        total = sum(loads.values())
        assert loads[1] / total == pytest.approx(0.75, abs=0.13)

    @pytest.mark.parametrize("curve", CURVES)
    def test_segments_are_curve_contiguous(self, curve):
        ctx = make_sfc_ctx()
        SFCPartition(curve).initial_distribution(ctx, NominalWeights())
        grids = ctx.hierarchy.level_grids(0)
        order = curve_order(ctx.hierarchy.level_boxes(0),
                            ctx.hierarchy.level_gids(0), curve)
        owners = [ctx.assignment.group_of(grids[i].gid) for i in order]
        # group ids along the curve never revisit an earlier group
        assert owners == sorted(owners)

    def test_plan_moves_only_group_changers(self):
        ctx = make_sfc_ctx()
        part = SFCPartition("morton")
        part.initial_distribution(ctx, NominalWeights())
        plan = part.plan(ctx, NominalWeights().processor_weights(ctx.system, 0.0))
        # freshly balanced: re-cutting the same curve plans no moves
        assert plan.empty

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError, match="zigzag"):
            SFCPartition("zigzag")
        with pytest.raises(ValueError, match="zigzag"):
            SFCLocal("zigzag")

    @pytest.mark.parametrize("scheme", ["sfc:morton", "sfc:hilbert"])
    def test_registered_scheme_runs_end_to_end(self, scheme):
        cfg = ExperimentConfig(procs_per_group=2, steps=2)
        result = run_experiment(cfg, scheme)
        assert result.total_time > 0
        assert make_scheme(scheme).spec.global_partition == "sfc"
