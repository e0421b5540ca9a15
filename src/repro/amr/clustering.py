"""Berger--Rigoutsos clustering: turn flagged cells into efficient boxes.

The SAMR grid generator takes the set of flagged cells on a level and covers
it with a small number of rectangular boxes whose *fill efficiency* (fraction
of cells inside the box that are flagged) exceeds a threshold.  This is the
classic signature/edge-detection algorithm of Berger & Rigoutsos (IEEE Trans.
SMC 21(5), 1991), the same grid generator family used by ENZO.

The algorithm, per candidate box:

1. Shrink the box to the bounding box of its flagged cells.
2. Accept it if its efficiency is high enough or it is too small to split.
3. Otherwise find a split plane, in preference order:
   a. a *hole* -- a zero of the flag signature :math:`\\Sigma_d(i)` (the flag
      count summed over all axes but ``d``);
   b. the strongest zero crossing of the signature Laplacian
      :math:`\\Delta_d(i) = \\Sigma_d(i+1) - 2\\Sigma_d(i) + \\Sigma_d(i-1)`;
   c. the midpoint of the longest axis.
4. Recurse on both halves.

The recursion runs one depth at a time: every candidate box of a depth
goes through steps 1--3 together, as array operations over the ragged
concatenation of all their signatures, and the halves of every split form
the next depth.  A candidate's fate depends only on its own box and the
flags, and the output is sorted, so the visiting order is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .box import Box
from .flagging import FlagField

__all__ = ["ClusterParams", "cluster_flags", "fill_efficiency"]


@dataclass(frozen=True)
class ClusterParams:
    """Tunable knobs of the grid generator.

    Parameters
    ----------
    min_efficiency:
        Minimum acceptable flagged-cell fraction of an output box.
    max_cells:
        Upper bound on the number of cells in an output box; larger boxes are
        split even if efficient.  Bounding the box size is what gives the
        load balancer enough *units* to move around -- one huge grid cannot
        be balanced.
    min_width:
        Boxes are never split below this width along any axis.
    """

    min_efficiency: float = 0.7
    max_cells: int = 4096
    min_width: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.min_efficiency <= 1.0:
            raise ValueError(f"min_efficiency must be in (0, 1], got {self.min_efficiency}")
        if self.max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {self.max_cells}")
        if self.min_width < 1:
            raise ValueError(f"min_width must be >= 1, got {self.min_width}")


def fill_efficiency(field: FlagField, box: Box) -> float:
    """Fraction of ``box``'s cells that are flagged (0 for an empty box)."""
    if box.is_empty:
        return 0.0
    sub = field.restrict(box)
    return sub.nflagged / box.ncells


def cluster_flags(field: FlagField, params: Optional[ClusterParams] = None) -> List[Box]:
    """Cover the flagged cells of ``field`` with efficient boxes.

    Returns a list of disjoint boxes, each contained in ``field.box``, that
    together cover every flagged cell.  The list is sorted (deterministic
    output for identical input).

    The candidates of one depth are two ``(k, ndim)`` arrays of corners, in
    coordinates relative to ``field.box.lo``.  Their signatures come from
    one summed-area table built once per call (:class:`_SummedAreaTable`),
    all ``k * ndim`` of them in one gather.  Every box is then shrunk,
    tested and, if it must be split, given a plane by
    :func:`_choose_planes`.  Signatures are integer counts and every float
    is computed elementwise from the same operands as a per-box scan would
    use, so the boxes do not depend on the batching.
    """
    params = params or ClusterParams()
    if not field.any:
        return []
    table = _SummedAreaTable(field.flags)
    ndim = field.flags.ndim
    lo = np.zeros((1, ndim), dtype=np.int64)
    hi = np.array([field.flags.shape], dtype=np.int64)
    kept_lo: List[np.ndarray] = []
    kept_hi: List[np.ndarray] = []
    while len(lo):
        sig, starts = table.signatures(lo, hi)
        # --- 1. shrink: first and last non-zero slab of every signature.
        # Every candidate holds flags (the whole field does, and each half
        # of a split keeps one of its parent's end slabs), so every segment
        # has a non-zero entry.  Trimming zero slabs along one axis removes
        # only flagless cells, so the untrimmed signatures, read inside
        # [first, last], are the shrunk box's signatures.
        seg_lo = starts[:-1]
        nz = np.flatnonzero(sig)
        first = (nz[np.searchsorted(nz, seg_lo)] - seg_lo).reshape(lo.shape)
        last = (nz[np.searchsorted(nz, starts[1:]) - 1] + 1 - seg_lo).reshape(lo.shape)
        lo, hi = lo + first, lo + last
        shape = last - first
        # --- 2. accept efficient boxes and boxes too small to split
        nflagged = np.add.reduceat(sig, seg_lo)[::ndim]
        ncells = shape.prod(axis=1)
        eff = nflagged / ncells
        splittable = (shape >= 2 * params.min_width).any(axis=1)
        accept = ~splittable | ((eff >= params.min_efficiency) & (ncells <= params.max_cells))
        kept_lo.append(lo[accept])
        kept_hi.append(hi[accept])
        split = ~accept
        if not split.any():
            break
        # --- 3. a plane for every box that is split; 4. both halves recurse
        axis, offset = _choose_planes(sig, seg_lo, first.ravel(), shape, split, params.min_width)
        lo, hi, axis = lo[split], hi[split], axis[split]
        rows = np.arange(len(lo))
        cut = lo[rows, axis] + offset[split]
        left_hi = hi.copy()
        left_hi[rows, axis] = cut
        right_lo = lo.copy()
        right_lo[rows, axis] = cut
        lo = np.concatenate([lo, right_lo])
        hi = np.concatenate([left_hi, hi])
    origin = np.asarray(field.box.lo, dtype=np.int64)
    out_lo = np.concatenate(kept_lo) + origin
    out_hi = np.concatenate(kept_hi) + origin
    # Output boxes are disjoint and non-empty, so no two share a lower
    # corner: ordering by ``lo`` alone is ``sorted()``'s (lo, hi) order.
    order = np.lexsort(out_lo.T[::-1])
    # corners are in-range offsets of the validated field box
    return [
        Box._unchecked(tuple(l), tuple(h))
        for l, h in zip(out_lo[order].tolist(), out_hi[order].tolist())
    ]


# --------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------- #


class _SummedAreaTable:
    """A summed-area table answering signature queries for many boxes at once.

    ``S[j0, j1, ...]`` is the number of flags in ``[0, j0) x [0, j1) x ...``:
    the inclusive prefix sum over every axis, zero-padded by one plane at
    each low end.  For a box ``[lo, hi)`` and an axis ``d``, combining ``S``
    over the ``2^(ndim-1)`` corners of the other axes (``+`` at ``hi``, ``-``
    at ``lo``, inclusion--exclusion) gives the flag count below each slab
    ``j`` of the box; the signature :math:`\\Sigma_d(i)` is the difference of
    that count at slabs ``i + 1`` and ``i``.

    The table is ``int32`` when every count fits, else ``int64``.  A corner
    sum is a flag count, so it fits too (a partial sum that left the range
    would wrap back: integer arrays compute modulo ``2**32``), and the
    signatures are cast to ``int64`` before anything multiplies them.
    """

    __slots__ = ("flat", "strides", "coef", "signs")

    def __init__(self, flags: np.ndarray) -> None:
        ndim = flags.ndim
        dtype = np.int32 if flags.size < 2**31 else np.int64
        table = np.zeros(tuple(n + 1 for n in flags.shape), dtype=dtype)
        inner = table[(slice(1, None),) * ndim]
        np.cumsum(flags, axis=0, dtype=dtype, out=inner)
        for ax in range(1, ndim):
            np.cumsum(inner, axis=ax, out=inner)
        self.flat = table.ravel()
        strides = np.array(table.strides, dtype=np.int64) // table.itemsize
        self.strides = strides
        # coef[side, a, c, d]: how much corner ``a`` of the box's ``lo``
        # (side 0) or ``hi`` (side 1) adds to the flat index of corner term
        # ``c`` of the axis-``d`` signature at its first slab.  Bit ``j`` of
        # ``c`` picks ``lo`` on the ``j``-th other axis; its sign is the
        # parity of ``c``.
        ncorner = 1 << (ndim - 1)
        coef = np.zeros((2, ndim, ncorner, ndim), dtype=np.int64)
        for d in range(ndim):
            coef[0, d, :, d] = strides[d]
            others = [a for a in range(ndim) if a != d]
            for c in range(ncorner):
                for j, a in enumerate(others):
                    coef[1 - ((c >> j) & 1), a, c, d] = strides[a]
        self.coef = coef.reshape(2 * ndim, ncorner * ndim)
        self.signs = [bin(c).count("1") % 2 for c in range(ncorner)]

    def signatures(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every signature of every box ``[lo[b], hi[b])``, concatenated.

        Segment ``s = b * ndim + d`` is :math:`\\Sigma_d` of box ``b`` and
        occupies ``sig[starts[s]:starts[s + 1]]``.  Returns ``(sig,
        starts)``, ``sig`` as ``int64``.
        """
        k, ndim = lo.shape
        nseg = k * ndim
        # Flag counts below slabs lo[d] .. hi[d]: one more entry per segment
        # than the signature has.
        ext = (hi - lo).ravel() + 1
        gstart = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(ext, out=gstart[1:])
        step = np.tile(self.strides, k)
        corner = (np.concatenate([lo, hi], axis=1) @ self.coef).reshape(k, -1, ndim)
        base = corner.transpose(1, 0, 2).reshape(-1, nseg) - gstart[:-1] * step
        index = np.repeat(base, ext, axis=1)
        index += np.arange(gstart[-1]) * np.repeat(step, ext)
        terms = self.flat[index]
        below = terms[0]
        for c in range(1, len(terms)):
            if self.signs[c]:
                below = below - terms[c]
            else:
                below = below + terms[c]
        sig = np.delete(np.diff(below), gstart[1:-1] - 1).astype(np.int64)
        return sig, gstart - np.arange(nseg + 1)


def _choose_planes(
    sig: np.ndarray,
    seg_lo: np.ndarray,
    first: np.ndarray,
    shape: np.ndarray,
    split: np.ndarray,
    min_w: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split axis and plane offset (from the shrunk ``lo``) of every box.

    ``sig``/``seg_lo`` are the untrimmed signatures; the shrunk box's part
    of segment ``s`` starts ``first[s]`` slabs in and is ``shape.flat[s]``
    long.  Only the entries of boxes with ``split`` set are meaningful.

    Candidates are listed in (axis, position) order within each box, so a
    box's first maximum is the winner of a per-axis first-maximum
    (``np.argmax``) scan with a strict ``>`` across axes.
    """
    ndim = shape.shape[1]
    n = shape.ravel()
    # (c) default: bisect the longest axis (first maximum).  A split box has
    # an axis of at least 2 * min_w, so both halves keep min_w.
    axis = np.argmax(shape, axis=1)
    offset = shape[np.arange(len(shape)), axis] // 2

    # (a) holes: each zero slab offers the planes before and after it.
    zpos = np.flatnonzero(sig == 0)
    zseg = np.searchsorted(seg_lo, zpos, side="right") - 1
    zoff = zpos - seg_lo[zseg] - first[zseg]
    inside = (zoff >= 0) & (zoff < n[zseg]) & split[zseg // ndim]
    zseg, zoff = zseg[inside], zoff[inside]
    cseg = np.repeat(zseg, 2)
    coff = np.stack([zoff, zoff + 1], axis=1).ravel()
    ok = (coff >= min_w) & (coff <= n[cseg] - min_w)
    cseg, coff = cseg[ok], coff[ok]
    # prefer holes near the middle of the box
    centrality = -np.abs(coff / n[cseg] - 0.5)
    box, pick = _first_max(centrality, cseg // ndim)
    axis[box] = cseg[pick] % ndim
    offset[box] = coff[pick]
    need = split.copy()
    need[box] = False

    # (b) Laplacian zero crossings, for split boxes without a hole.  A
    # crossing between Δ at slabs i+1 and i+2 reads slabs i .. i+3, which
    # must all lie in the shrunk part of one segment.
    if need.any():
        lap = sig[2:] - 2 * sig[1:-1] + sig[:-2]
        cross = np.flatnonzero(lap[:-1] * lap[1:] < 0)
        xseg = np.searchsorted(seg_lo, cross, side="right") - 1
        xoff = cross - seg_lo[xseg] - first[xseg]
        plane = xoff + 2
        ok = (
            (xoff >= 0) & (xoff + 3 < n[xseg]) & need[xseg // ndim]
            & (plane >= min_w) & (plane <= n[xseg] - min_w)
        )
        cross, xseg, plane = cross[ok], xseg[ok], plane[ok]
        strength = np.abs(lap[cross] - lap[cross + 1])
        box, pick = _first_max(strength, xseg // ndim)
        axis[box] = xseg[pick] % ndim
        offset[box] = plane[pick]
    return axis, offset


def _first_max(values: np.ndarray, groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each distinct ``group``, the index of its first maximum value.

    Returns ``(group, index)`` pairs; ``lexsort`` is stable, so among equal
    values the earliest entry wins, as with ``np.argmax``.
    """
    order = np.lexsort((-values, groups))
    g = groups[order]
    head = np.ones(len(g), dtype=bool)
    head[1:] = g[1:] != g[:-1]
    pick = order[head]
    return groups[pick], pick
