"""Space-filling-curve keys and capacity-proportional curve cuts.

Extreme-scale SAMR partitioners (Schornbaum & Ruede, "Extreme-Scale
Block-Structured Adaptive Mesh Refinement") replace the paper's
axis-0-sorted contiguous group split with a space-filling curve: every
grid's centroid on the refinement lattice is encoded to a curve key, the
grids are sorted along the curve, and the curve is cut into contiguous
capacity-proportional segments -- per group, then per processor.  The cut
rule is exactly Eq. 5's proportional split; only the *ordering* changes,
from one axis to a locality-preserving curve, which keeps each owner's
grids spatially compact in every dimension instead of one.

Two curves are provided:

* ``morton`` -- bit interleaving (Z-order).  Cheapest to compute; adjacent
  keys are usually, not always, adjacent cells.
* ``hilbert`` -- the Hilbert curve via Skilling's iterative integer
  transform (no recursion, no lookup tables; "Programming the Hilbert
  curve", AIP Conf. Proc. 707).  Strictly better locality: consecutive
  keys are always face-adjacent lattice cells.

All kernels are vectorized over ``(N, ndim)`` integer coordinate arrays --
the :class:`~repro.amr.boxarray.BoxArray` corner layout -- and use plain
``int64`` arithmetic throughout (coordinates are non-negative and
``ndim * bits_per_axis`` is capped at 62, so keys never touch the sign
bit).  Decoders are provided for the round-trip tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..amr.boxarray import BoxArray

__all__ = [
    "CURVES",
    "curve_bits",
    "morton_key",
    "morton_decode",
    "hilbert_key",
    "hilbert_decode",
    "curve_key",
    "box_centroid_keys",
    "contiguous_segments",
    "curve_order",
]

#: curve names accepted by :func:`curve_key` and the SFC policies
CURVES = ("morton", "hilbert")

#: keys are built in int64; one bit is reserved for the sign
_MAX_KEY_BITS = 62


def curve_bits(coords: np.ndarray) -> int:
    """Bits per axis needed to address every coordinate in ``coords``.

    ``coords`` must be non-negative integers; the result is at least 1 so
    degenerate inputs (a single point at the origin) still get a valid
    curve.
    """
    coords = np.asarray(coords)
    if coords.size == 0:
        return 1
    m = int(coords.max())
    if m < 0 or int(coords.min()) < 0:
        raise ValueError("curve coordinates must be non-negative")
    return max(1, m.bit_length())


def _check_dims(coords: np.ndarray, nbits: int) -> np.ndarray:
    a = np.asarray(coords, dtype=np.int64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError(f"coords must have shape (N, ndim), got {a.shape}")
    if nbits < 1:
        raise ValueError(f"nbits must be >= 1, got {nbits}")
    if nbits * a.shape[1] > _MAX_KEY_BITS:
        raise ValueError(
            f"{a.shape[1]}-d keys at {nbits} bits/axis exceed "
            f"{_MAX_KEY_BITS} total bits"
        )
    if a.size and (int(a.min()) < 0 or int(a.max()) >> nbits):
        raise ValueError(f"coordinates out of range for {nbits} bits/axis")
    return a


def _interleave(coords: np.ndarray, nbits: int) -> np.ndarray:
    """Interleave per-axis bits into one key, axis 0 most significant.

    Bit ``b`` of axis ``d`` lands at key position ``b*ndim + (ndim-1-d)``:
    within every bit plane the axes keep their order, and higher bit planes
    dominate -- the standard Morton layout.
    """
    n, ndim = coords.shape
    keys = np.zeros(n, dtype=np.int64)
    for b in range(nbits):
        for d in range(ndim):
            keys |= ((coords[:, d] >> b) & 1) << (b * ndim + (ndim - 1 - d))
    return keys


def _deinterleave(keys: np.ndarray, ndim: int, nbits: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    coords = np.zeros((keys.shape[0], ndim), dtype=np.int64)
    for b in range(nbits):
        for d in range(ndim):
            coords[:, d] |= ((keys >> (b * ndim + (ndim - 1 - d))) & 1) << b
    return coords


def morton_key(coords: np.ndarray, nbits: int) -> np.ndarray:
    """Z-order keys of ``(N, ndim)`` lattice coordinates."""
    return _interleave(_check_dims(coords, nbits), nbits)


def morton_decode(keys: np.ndarray, ndim: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`morton_key`."""
    return _deinterleave(keys, ndim, nbits)


def hilbert_key(coords: np.ndarray, nbits: int) -> np.ndarray:
    """Hilbert keys of ``(N, ndim)`` lattice coordinates.

    Skilling's AxestoTranspose run bitwise over the whole batch: every
    iteration applies the invert/exchange step to one (axis, bit-plane)
    pair with boolean masks, so the work is ``O(nbits * ndim)`` vectorized
    array operations -- no recursion, no per-point Python.
    """
    x = _check_dims(coords, nbits).copy()
    n, ndim = x.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # inverse undo excess work
    q = 1 << (nbits - 1)
    while q > 1:
        p = q - 1
        for d in range(ndim):
            hit = (x[:, d] & q) != 0
            # invert the low bits of axis 0, or exchange them with axis d
            x[hit, 0] ^= p
            t = (x[~hit, 0] ^ x[~hit, d]) & p
            x[~hit, 0] ^= t
            x[~hit, d] ^= t
        q >>= 1
    # Gray encode
    for d in range(1, ndim):
        x[:, d] ^= x[:, d - 1]
    t_all = np.zeros(n, dtype=np.int64)
    q = 1 << (nbits - 1)
    while q > 1:
        hit = (x[:, ndim - 1] & q) != 0
        t_all[hit] ^= q - 1
        q >>= 1
    x ^= t_all[:, None]
    return _interleave(x, nbits)


def hilbert_decode(keys: np.ndarray, ndim: int, nbits: int) -> np.ndarray:
    """Inverse of :func:`hilbert_key` (Skilling's TransposetoAxes)."""
    x = _deinterleave(keys, ndim, nbits)
    n = x.shape[0]
    if n == 0:
        return x
    top = 2 << (nbits - 1)
    # Gray decode by H ^ (H/2)
    t_all = x[:, ndim - 1] >> 1
    for d in range(ndim - 1, 0, -1):
        x[:, d] ^= x[:, d - 1]
    x[:, 0] ^= t_all
    # undo excess work
    q = 2
    while q != top:
        p = q - 1
        for d in range(ndim - 1, -1, -1):
            hit = (x[:, d] & q) != 0
            x[hit, 0] ^= p
            t = (x[~hit, 0] ^ x[~hit, d]) & p
            x[~hit, 0] ^= t
            x[~hit, d] ^= t
        q <<= 1
    return x


def curve_key(coords: np.ndarray, nbits: int, curve: str) -> np.ndarray:
    """Dispatch to :func:`morton_key` or :func:`hilbert_key` by name."""
    if curve == "morton":
        return morton_key(coords, nbits)
    if curve == "hilbert":
        return hilbert_key(coords, nbits)
    raise ValueError(f"unknown curve {curve!r}; known: {', '.join(CURVES)}")


def box_centroid_keys(boxes: BoxArray, curve: str) -> np.ndarray:
    """Curve keys of a box batch's centroids on the doubled lattice.

    The centroid of a half-open integer box is ``(lo + hi) / 2``; working
    on the doubled lattice (``lo + hi``) keeps everything integer without
    losing resolution.  Coordinates are shifted to the batch's own origin,
    so only the *relative* order of the keys is meaningful -- which is all
    a curve cut consumes.
    """
    if len(boxes) == 0:
        return np.zeros(0, dtype=np.int64)
    centers = boxes.lo + boxes.hi
    centers = centers - centers.min(axis=0)
    return curve_key(centers, curve_bits(centers), curve)


def contiguous_segments(
    weights: Sequence[float], targets: Sequence[float]
) -> np.ndarray:
    """Cut a curve-ordered weight sequence into contiguous segments.

    ``targets`` are the desired per-segment totals (capacity-proportional
    shares from Eq. 5); the cut advances to the next segment when adding
    half of the next item would meet the current target -- the same
    midpoint rule the paper scheme's contiguous group fill uses, so an
    item straddling a boundary goes to whichever side it overlaps more.
    Returns the segment index of every item; every index stays in
    ``[0, len(targets))`` and segment membership is contiguous.
    """
    nseg = len(targets)
    if nseg == 0:
        raise ValueError("targets must be non-empty")
    owners = np.empty(len(weights), dtype=np.int64)
    si = 0
    filled = 0.0
    for i, w in enumerate(weights):
        if si < nseg - 1 and filled + w / 2.0 >= targets[si]:
            si += 1
            filled = 0.0
        owners[i] = si
        filled += w
    return owners


def curve_order(boxes: BoxArray, gids: Sequence[int], curve: str) -> np.ndarray:
    """Indices sorting a box batch along ``curve``, ties by gid.

    The gid tie-break makes the order deterministic when several grids
    share a centroid (possible after carves).
    """
    keys = box_centroid_keys(boxes, curve)
    return np.lexsort((np.asarray(gids, dtype=np.int64), keys))
