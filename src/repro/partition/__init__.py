"""Partitioning utilities: grid ownership, capacity shares, grid splitting,
space-filling-curve keys."""

from .mapping import GridAssignment
from .proportional import (
    group_capacities,
    group_targets,
    processor_targets,
    proportional_shares,
)
from .sfc import (
    CURVES,
    box_centroid_keys,
    contiguous_segments,
    curve_bits,
    curve_key,
    curve_order,
    grids_curve_order,
    hilbert_decode,
    hilbert_key,
    morton_decode,
    morton_key,
)
from .splitter import carve_workload, split_level0_grid

__all__ = [
    "GridAssignment",
    "group_capacities",
    "group_targets",
    "processor_targets",
    "proportional_shares",
    "carve_workload",
    "split_level0_grid",
    "CURVES",
    "curve_bits",
    "curve_key",
    "morton_key",
    "morton_decode",
    "hilbert_key",
    "hilbert_decode",
    "box_centroid_keys",
    "contiguous_segments",
    "curve_order",
    "grids_curve_order",
]
