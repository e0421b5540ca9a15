"""Batch box geometry: many boxes as one ``(N, 2, ndim)`` integer array.

:class:`~repro.amr.box.Box` is the right value object for reasoning about a
single grid patch, but every hot loop of the SAMR runtime -- sibling
adjacency, regrid clipping, ghost-overlap discovery -- asks the *same*
geometric question of hundreds of boxes at once.  Doing that through
per-object method calls costs a Python-level loop per pair; extreme-scale
AMR codes (Schornbaum & Ruede's flat block arrays) instead keep box
coordinates in contiguous arrays and answer batched queries with array
arithmetic.

This module is that representation: a :class:`BoxArray` wraps an
``(N, 2, ndim)`` ``int64`` array (``[:, 0, :]`` = inclusive lower corners,
``[:, 1, :]`` = exclusive upper corners) and provides vectorized versions of
the :class:`Box` kernels.  Every kernel is *bit-for-bit equivalent* to the
scalar method it replaces -- all operations are integer arithmetic, so
equivalence is exact, and ``tests/test_boxarray.py`` pins it property-style
over random box pairs.  Every "which boxes touch?" question of the runtime is
one query, :meth:`BoxArray.overlap_pairs`.  The scalar :class:`Box` API
remains the public value type; :class:`BoxArray` is the runtime's batch
engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .box import Box

__all__ = ["BoxArray"]


class BoxArray:
    """A flat batch of half-open axis-aligned boxes on the integer lattice.

    Parameters
    ----------
    corners:
        Integer array of shape ``(N, 2, ndim)``; ``corners[i, 0]`` is box
        ``i``'s inclusive lower corner and ``corners[i, 1]`` its exclusive
        upper corner.  The array is taken by reference (no copy) when it is
        already a C-contiguous ``int64`` array.

    Notes
    -----
    Unlike :class:`Box`, a :class:`BoxArray` may hold *inverted* entries
    (``hi < lo`` on some axis) as the result of a vanishing pairwise
    intersection; :meth:`ncells` treats them as empty, exactly as
    :meth:`Box.intersection`'s per-axis clamping does.
    """

    __slots__ = ("corners",)

    def __init__(self, corners: np.ndarray) -> None:
        a = np.asarray(corners, dtype=np.int64)
        if a.ndim != 3 or a.shape[1] != 2 or a.shape[2] < 1:
            raise ValueError(
                f"corners must have shape (N, 2, ndim), got {a.shape}"
            )
        self.corners = a

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_boxes(cls, boxes: Iterable[Box], ndim: Optional[int] = None) -> "BoxArray":
        """Pack a sequence of :class:`Box` objects into one array."""
        seq = list(boxes)
        if not seq:
            if ndim is None:
                raise ValueError("empty BoxArray needs an explicit ndim")
            return cls(np.empty((0, 2, ndim), dtype=np.int64))
        nd = seq[0].ndim
        a = np.empty((len(seq), 2, nd), dtype=np.int64)
        for i, b in enumerate(seq):
            if b.ndim != nd:
                raise ValueError(f"rank mismatch: {nd}-d vs {b.ndim}-d at index {i}")
            a[i, 0] = b.lo
            a[i, 1] = b.hi
        return cls(a)

    @classmethod
    def from_box(cls, box: Box) -> "BoxArray":
        """A one-element batch (convenient broadcasting partner)."""
        return cls.from_boxes([box])

    def box(self, i: int) -> Box:
        """The ``i``-th entry as a :class:`Box` (clamping ``hi >= lo``)."""
        lo = self.corners[i, 0]
        hi = np.maximum(lo, self.corners[i, 1])
        return Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi))

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.corners.shape[0]

    @property
    def ndim(self) -> int:
        return self.corners.shape[2]

    @property
    def lo(self) -> np.ndarray:
        """Lower corners, shape ``(N, ndim)``."""
        return self.corners[:, 0, :]

    @property
    def hi(self) -> np.ndarray:
        """Upper corners, shape ``(N, ndim)``."""
        return self.corners[:, 1, :]

    def shapes(self) -> np.ndarray:
        """Per-box cell counts along each axis (clamped at 0), ``(N, ndim)``."""
        return np.maximum(self.hi - self.lo, 0)

    def ncells(self) -> np.ndarray:
        """Total cells per box (0 for empty/inverted entries), ``(N,)``."""
        return self.shapes().prod(axis=1)

    def is_empty(self) -> np.ndarray:
        """Boolean mask of empty entries, matching :attr:`Box.is_empty`."""
        return (self.hi <= self.lo).any(axis=1)

    def surface_cells(self) -> np.ndarray:
        """Cells on each box's surface shell (:meth:`Box.surface_cells`)."""
        shape = self.shapes()
        inner = np.maximum(shape - 2, 0)
        out = shape.prod(axis=1) - inner.prod(axis=1)
        out[self.is_empty()] = 0
        return out

    # ------------------------------------------------------------------ #
    # elementwise transforms (all return new BoxArrays)
    # ------------------------------------------------------------------ #

    def grow(self, n: int) -> "BoxArray":
        """Pad every box by ``n`` cells per face; raises if any box inverts,
        matching :meth:`Box.grow`."""
        a = self.corners.copy()
        a[:, 0, :] -= n
        a[:, 1, :] += n
        if n < 0 and bool((a[:, 1, :] < a[:, 0, :]).any()):
            bad = int(np.argmax((a[:, 1, :] < a[:, 0, :]).any(axis=1)))
            raise ValueError(f"grow({n}) would invert box {self.box(bad)}")
        return BoxArray(a)

    def refine(self, ratio: int) -> "BoxArray":
        """Image of every box on a mesh refined by ``ratio``."""
        Box._check_ratio(ratio)
        return BoxArray(self.corners * ratio)

    def coarsen(self, ratio: int) -> "BoxArray":
        """Smallest covering coarse boxes (floor ``lo``, ceil ``hi``)."""
        Box._check_ratio(ratio)
        a = np.empty_like(self.corners)
        a[:, 0, :] = self.corners[:, 0, :] // ratio
        a[:, 1, :] = -((-self.corners[:, 1, :]) // ratio)
        return BoxArray(a)

    def clip(self, bounds: Box) -> "BoxArray":
        """Intersect every box with one bounding :class:`Box`."""
        lo = np.maximum(self.lo, np.asarray(bounds.lo, dtype=np.int64))
        hi = np.minimum(self.hi, np.asarray(bounds.hi, dtype=np.int64))
        hi = np.maximum(lo, hi)
        return BoxArray(np.stack([lo, hi], axis=1))

    def intersection(self, other: "BoxArray") -> "BoxArray":
        """Elementwise intersection (lengths must match or broadcast from 1).

        Matches :meth:`Box.intersection` including the per-axis ``hi >= lo``
        clamp of non-overlapping dimensions.
        """
        lo = np.maximum(self.lo, other.lo)
        hi = np.maximum(lo, np.minimum(self.hi, other.hi))
        return BoxArray(np.stack(np.broadcast_arrays(lo, hi), axis=1))

    # ------------------------------------------------------------------ #
    # pair queries
    # ------------------------------------------------------------------ #

    def contains_pairwise(self, other: "BoxArray") -> np.ndarray:
        """Boolean ``(N, M)``: does box ``i`` contain box ``j`` entirely?

        Matches :meth:`Box.contains`: an empty ``other`` is contained in
        every box.
        """
        if other.ndim != self.ndim:
            raise ValueError(f"rank mismatch: {self.ndim}-d vs {other.ndim}-d")
        a, b = self.corners[:, None], other.corners[None, :]
        inside = ((a[:, :, 0] <= b[:, :, 0]) & (a[:, :, 1] >= b[:, :, 1])).all(axis=2)
        return inside | other.is_empty()[None, :]

    def overlap_pairs(
        self, other: Optional["BoxArray"] = None, reach: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every index pair ``(i, j)`` whose boxes overlap once both upper
        corners are extended by ``reach`` cells.

        A pair qualifies when ``max(lo_i, lo_j) < min(hi_i, hi_j) + reach``
        on every axis; empty and inverted entries pair with nothing.  So
        ``reach=0`` is :meth:`Box.intersects`, and ``reach=2*ghost`` keeps
        every pair with a non-zero :meth:`Box.shared_face_area`.  Without
        ``other`` the pairs are within this array with ``i < j``; with it,
        ``i`` indexes this array and ``j`` indexes ``other``.  Returns two
        ``int64`` arrays sorted by ``(i, j)``.

        Sweep and prune: boxes sorted by their lower corner on one axis are
        paired with the boxes whose lower corner falls inside their extent
        on that axis, and the other axes filter those candidates.  The
        sweep runs on the axis with the fewest candidates, so the cost does
        not depend on how a layout is oriented, and candidates materialise
        in bounded batches, so memory stays flat even when every box shares
        one interval.
        """
        b = self if other is None else other
        if b.ndim != self.ndim:
            raise ValueError(f"rank mismatch: {self.ndim}-d vs {b.ndim}-d")
        if reach < 0:
            raise ValueError(f"reach must be >= 0, got {reach}")
        a_idx = np.flatnonzero(~self.is_empty())
        b_idx = a_idx if other is None else np.flatnonzero(~b.is_empty())
        # non-empty boxes as (ndim, n) corners, one contiguous row per axis
        a_lo, a_hi = self.lo[a_idx].T.copy(), (self.hi[a_idx] + reach).T.copy()
        b_lo, b_hi = b.lo[b_idx].T.copy(), (b.hi[b_idx] + reach).T.copy()
        sweeps = [_sweep_windows(a_lo[d], a_hi[d], b_lo[d], b_hi[d], other is None)
                  for d in range(self.ndim)]
        axis = min(range(self.ndim), key=lambda d: sum(
            int(np.maximum(stop - start, 0).sum())
            for _, _, start, stop, _ in sweeps[d]))
        others = [d for d in range(self.ndim) if d != axis]
        found_i, found_j = [], []
        for rows, cols, start, stop, mirrored in sweeps[axis]:
            sides = [(a_lo, a_hi), (b_lo, b_hi)][::-1 if mirrored else 1]
            # the other axes' extents in sweep order, so the batches below
            # read them almost sequentially
            (r_lo, r_hi), (c_lo, c_hi) = [
                (lo[others].take(order, axis=1), hi[others].take(order, axis=1))
                for (lo, hi), order in zip(sides, (rows, cols))]
            for p, q in _window_batches(start, stop):
                for rl, rh, cl, ch in zip(r_lo, r_hi, c_lo, c_hi):
                    hit = np.maximum(rl[p], cl[q]) < np.minimum(rh[p], ch[q])
                    p, q = p[hit], q[hit]
                i, j = (cols[q], rows[p]) if mirrored else (rows[p], cols[q])
                found_i.append(i)
                found_j.append(j)
        i = a_idx[np.concatenate(found_i)] if found_i else a_idx[:0]
        j = b_idx[np.concatenate(found_j)] if found_j else b_idx[:0]
        if other is None:
            i, j = np.minimum(i, j), np.maximum(i, j)
        m = max(len(b), 1)
        return np.divmod(np.sort(i * m + j), m)

    def shared_face_area_pairs(
        self, ia: np.ndarray, ib: np.ndarray, ghost: int = 1
    ) -> np.ndarray:
        """Two-way ghost-exchange volumes for explicit index pairs
        ``(ia[k], ib[k])``.

        Bit-for-bit :meth:`Box.shared_face_area` on every pair: each side
        receives ``self.grow(ghost) & other`` minus directly shared cells,
        clamped at zero, and the two directions add.  All arithmetic is on
        ``int64`` lattice counts, so the equivalence is exact.  Pairs
        outside ``overlap_pairs(reach=2 * ghost)`` always come out 0.
        """
        direct = recv_a = recv_b = np.ones(len(ia), dtype=np.int64)
        for d in range(self.ndim):  # 1-D columns: much faster than (N, ndim) rows
            lo, hi = self.corners[:, 0, d], self.corners[:, 1, d]
            alo, ahi, blo, bhi = lo[ia], hi[ia], lo[ib], hi[ib]
            direct = direct * np.maximum(np.minimum(ahi, bhi) - np.maximum(alo, blo), 0)
            recv_a = recv_a * np.maximum(
                np.minimum(ahi + ghost, bhi) - np.maximum(alo - ghost, blo), 0)
            recv_b = recv_b * np.maximum(
                np.minimum(bhi + ghost, ahi) - np.maximum(blo - ghost, alo), 0)
        vals = np.maximum(recv_a - direct, 0) + np.maximum(recv_b - direct, 0)
        # Box.shared_face_area returns 0 when either operand is empty.
        empty = self.is_empty()
        mask = empty[ia] | empty[ib]
        if mask.any():
            vals = np.where(mask, 0, vals)
        return vals

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray(n={len(self)}, ndim={self.ndim})"


#: candidate pairs materialised per batch by :meth:`BoxArray.overlap_pairs`
_BATCH_PAIRS = 1 << 15

#: a sweep's windows: ``(rows, cols, start, stop, mirrored)`` pairs every
#: ``rows[p]`` with ``cols[start[p]:stop[p]]``; rows index the first array
#: and cols the second, or the other way round when ``mirrored``
_Windows = List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]]


def _sweep_windows(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray,
                   b_hi: np.ndarray, self_pairs: bool) -> _Windows:
    """Candidate windows of a sweep along one axis, given every box's
    extent on it: each pair of non-empty boxes whose (reach-extended)
    extents overlap on that axis, exactly once.

    With boxes sorted by ``lo``, box ``a`` overlaps the ``b`` boxes whose
    ``lo`` lies in ``[a.lo, a.hi)`` -- a contiguous window.  A self sweep
    takes only the boxes after ``a`` in that order; a two-array sweep adds
    the mirrored window of ``a`` boxes opening strictly after each ``b``.
    """
    oa = np.argsort(a_lo, kind="stable")
    sa = a_lo[oa]
    if self_pairs:
        start = np.arange(1, len(oa) + 1)
        return [(oa, oa, start, np.searchsorted(sa, a_hi[oa], side="left"), False)]
    ob = np.argsort(b_lo, kind="stable")
    sb = b_lo[ob]
    return [
        (oa, ob, np.searchsorted(sb, sa, side="left"),
         np.searchsorted(sb, a_hi[oa], side="left"), False),
        (ob, oa, np.searchsorted(sa, sb, side="right"),
         np.searchsorted(sa, b_hi[ob], side="left"), True),
    ]


def _window_batches(
    start: np.ndarray, stop: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand windows into ``(p, q)`` index arrays, ``q`` running over
    ``[start[p], stop[p])``, in batches of about ``_BATCH_PAIRS`` pairs."""
    count = np.maximum(stop - start, 0)
    end = np.cumsum(count)
    row = 0
    while row < len(count):
        first = int(end[row] - count[row])
        last = max(row + 1, int(np.searchsorted(end, first + _BATCH_PAIRS,
                                                side="right")))
        c = count[row:last]
        p = np.repeat(np.arange(row, last), c)
        q = np.arange(first, int(end[last - 1])) - np.repeat(
            end[row:last] - c - start[row:last], c)
        yield p, q
        row = last
