"""Integer index-space boxes.

SAMR grids live on an integer lattice: a *box* is an axis-aligned rectangular
region ``[lo, hi)`` of lattice cells (``lo`` inclusive, ``hi`` exclusive), the
same convention used by Berger--Colella style AMR codes (ENZO, Chombo, BoxLib).
All geometric reasoning in this package -- intersection, proper nesting, ghost
zones, shared faces between sibling grids -- is done through this module.

Boxes are immutable value objects; all operations return new boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Box"]

IntVec = Tuple[int, ...]


def _as_intvec(v: Sequence[int], name: str) -> IntVec:
    """Validate and normalise a coordinate vector to a tuple of python ints."""
    try:
        out = tuple(int(x) for x in v)
    except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
        raise TypeError(f"{name} must be a sequence of integers, got {v!r}") from exc
    if len(out) == 0:
        raise ValueError(f"{name} must have at least one dimension")
    return out


@dataclass(frozen=True)
class Box:
    """A half-open axis-aligned box ``[lo, hi)`` on the integer lattice.

    Parameters
    ----------
    lo:
        Inclusive lower corner, one integer per dimension.
    hi:
        Exclusive upper corner; must satisfy ``hi[d] >= lo[d]`` in every
        dimension.  ``hi[d] == lo[d]`` yields an *empty* box, which is a
        legal value (e.g. the result of a vanishing intersection).

    Notes
    -----
    The class is hashable and totally ordered lexicographically on
    ``(lo, hi)`` so boxes can be used in sets, dict keys and sorted
    deterministically -- determinism matters because load-balancing decisions
    must be reproducible across runs.
    """

    lo: IntVec
    hi: IntVec

    def __post_init__(self) -> None:
        lo = _as_intvec(self.lo, "lo")
        hi = _as_intvec(self.hi, "hi")
        if len(lo) != len(hi):
            raise ValueError(f"lo and hi must have the same rank: {lo} vs {hi}")
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError(f"hi must be >= lo in every dimension: lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _unchecked(cls, lo: IntVec, hi: IntVec) -> "Box":
        """Construct without validation (hot paths with known-good corners).

        ``lo``/``hi`` must already be equal-rank tuples of python ints with
        ``hi >= lo`` -- batch kernels that derive corners from validated
        integer arrays use this to skip the per-box re-validation.
        """
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> IntVec:
        """Cell counts along each axis (cached -- the box is immutable)."""
        try:
            return self._shape  # type: ignore[attr-defined]
        except AttributeError:
            shape = tuple(h - l for l, h in zip(self.lo, self.hi))
            object.__setattr__(self, "_shape", shape)
            return shape

    @property
    def ncells(self) -> int:
        """Total number of lattice cells in the box (0 if empty; cached)."""
        try:
            return self._ncells  # type: ignore[attr-defined]
        except AttributeError:
            n = 1
            for s in self.shape:
                n *= s
            object.__setattr__(self, "_ncells", n)
            return n

    @property
    def is_empty(self) -> bool:
        """True if the box contains no cells (cached)."""
        try:
            return self._is_empty  # type: ignore[attr-defined]
        except AttributeError:
            empty = any(h <= l for l, h in zip(self.lo, self.hi))
            object.__setattr__(self, "_is_empty", empty)
            return empty

    def center(self) -> Tuple[float, ...]:
        """Geometric centre of the box in cell coordinates."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    # ------------------------------------------------------------------ #
    # set-like operations
    # ------------------------------------------------------------------ #

    def intersection(self, other: "Box") -> "Box":
        """The overlap of two boxes; may be empty (zero cells)."""
        self._check_rank(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        # Clamp to avoid hi < lo in non-overlapping dimensions.
        hi = tuple(max(l, h) for l, h in zip(lo, hi))
        return Box(lo, hi)

    def intersects(self, other: "Box") -> bool:
        """True if the two boxes share at least one cell."""
        self._check_rank(other)
        return all(max(a, b) < min(c, d) for a, b, c, d in zip(self.lo, other.lo, self.hi, other.hi))

    def contains(self, other: "Box") -> bool:
        """True if ``other`` lies entirely inside ``self``.

        An empty ``other`` is contained in every box.
        """
        self._check_rank(other)
        if other.is_empty:
            return True
        return all(a <= b and c >= d for a, b, c, d in zip(self.lo, other.lo, self.hi, other.hi))

    def contains_point(self, point: Sequence[int]) -> bool:
        """True if the lattice cell ``point`` lies inside the box."""
        p = _as_intvec(point, "point")
        self._check_rank_vec(p)
        return all(l <= x < h for l, x, h in zip(self.lo, p, self.hi))

    def difference(self, other: "Box") -> Tuple["Box", ...]:
        """Decompose ``self - other`` into disjoint boxes.

        Standard axis-sweep decomposition: produces at most ``2*ndim`` boxes.
        Returns ``(self,)`` when there is no overlap and ``()`` when ``other``
        covers ``self`` entirely.
        """
        self._check_rank(other)
        inter = self.intersection(other)
        if inter.is_empty:
            return (self,) if not self.is_empty else ()
        if inter == self:
            return ()
        pieces = []
        lo = list(self.lo)
        hi = list(self.hi)
        for d in range(self.ndim):
            if lo[d] < inter.lo[d]:
                piece_hi = list(hi)
                piece_hi[d] = inter.lo[d]
                pieces.append(Box(tuple(lo), tuple(piece_hi)))
                lo[d] = inter.lo[d]
            if inter.hi[d] < hi[d]:
                piece_lo = list(lo)
                piece_lo[d] = inter.hi[d]
                pieces.append(Box(tuple(piece_lo), tuple(hi)))
                hi[d] = inter.hi[d]
        return tuple(p for p in pieces if not p.is_empty)

    # ------------------------------------------------------------------ #
    # refinement / coarsening
    # ------------------------------------------------------------------ #

    def refine(self, ratio: int) -> "Box":
        """The image of this box on a mesh refined by ``ratio``."""
        self._check_ratio(ratio)
        return Box(tuple(l * ratio for l in self.lo), tuple(h * ratio for h in self.hi))

    def coarsen(self, ratio: int) -> "Box":
        """The smallest coarse box covering this box on a coarser mesh.

        Uses floor for ``lo`` and ceiling for ``hi`` so no fine cell is lost
        -- required for proper-nesting checks.
        """
        self._check_ratio(ratio)
        lo = tuple(l // ratio for l in self.lo)
        hi = tuple(-(-h // ratio) for h in self.hi)
        return Box(lo, hi)

    # ------------------------------------------------------------------ #
    # growing / splitting
    # ------------------------------------------------------------------ #

    def grow(self, n: int) -> "Box":
        """Pad the box by ``n`` cells on every face (ghost-zone footprint).

        Negative ``n`` shrinks the box; shrinking past empty raises.
        """
        lo = tuple(l - n for l in self.lo)
        hi = tuple(h + n for h in self.hi)
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError(f"grow({n}) would invert box {self}")
        return Box(lo, hi)

    def clip(self, bounds: "Box") -> "Box":
        """Intersect with ``bounds`` (alias used when clamping to the domain)."""
        return self.intersection(bounds)

    def split(self, axis: int, at: int) -> Tuple["Box", "Box"]:
        """Split into two boxes along ``axis`` at lattice plane ``at``.

        ``at`` must satisfy ``lo[axis] < at < hi[axis]`` so both halves are
        non-empty.
        """
        if not 0 <= axis < self.ndim:
            raise ValueError(f"axis {axis} out of range for {self.ndim}-d box")
        if not (self.lo[axis] < at < self.hi[axis]):
            raise ValueError(
                f"split plane {at} outside open interval "
                f"({self.lo[axis]}, {self.hi[axis]}) on axis {axis}"
            )
        at = int(at)
        left_hi = list(self.hi)
        left_hi[axis] = at
        right_lo = list(self.lo)
        right_lo[axis] = at
        # corners are this box's validated corners plus the checked plane
        return (
            Box._unchecked(self.lo, tuple(left_hi)),
            Box._unchecked(tuple(right_lo), self.hi),
        )

    def longest_axis(self) -> int:
        """Index of the longest axis (ties broken toward lower index)."""
        shape = self.shape
        return int(np.argmax(shape))

    # ------------------------------------------------------------------ #
    # face / adjacency geometry (drives ghost-exchange message volumes)
    # ------------------------------------------------------------------ #

    def surface_cells(self) -> int:
        """Number of cells on the surface shell of the box.

        Used as the prolongation/restriction volume proxy for parent-child
        communication.
        """
        if self.is_empty:
            return 0
        inner = [max(0, s - 2) for s in self.shape]
        inner_cells = 1
        for s in inner:
            inner_cells *= s
        return self.ncells - inner_cells

    def shared_face_area(self, other: "Box", ghost: int = 1) -> int:
        """Total two-way ghost-zone exchange volume between two boxes.

        Each grid fills its ghost shell from the other: ``self`` receives
        ``self.grow(ghost) & other`` cells and ``other`` receives
        ``other.grow(ghost) & self`` cells; the returned count is the sum
        (0 when the boxes are not within ``ghost`` cells of each other).
        Symmetric by construction.  Cells the boxes share directly
        (unphysical for well-formed sibling grids, but tolerated) are not
        counted.
        """
        self._check_rank(other)
        if self.is_empty or other.is_empty:
            return 0
        direct = self.intersection(other).ncells
        recv_self = self.grow(ghost).intersection(other).ncells - direct
        recv_other = other.grow(ghost).intersection(self).ncells - direct
        return max(0, recv_self) + max(0, recv_other)

    # ------------------------------------------------------------------ #
    # iteration helpers
    # ------------------------------------------------------------------ #

    def slices(self, origin: Optional[Sequence[int]] = None) -> Tuple[slice, ...]:
        """Numpy slices addressing this box inside an array.

        ``origin`` is the lattice coordinate of the array's ``[0, 0, ...]``
        element (defaults to the zero vector).
        """
        if origin is None:
            origin = (0,) * self.ndim
        org = _as_intvec(origin, "origin")
        self._check_rank_vec(org)
        return tuple(slice(l - o, h - o) for l, h, o in zip(self.lo, self.hi, org))

    def cell_coordinates(self) -> np.ndarray:
        """All lattice cell coordinates in the box, shape ``(ncells, ndim)``.

        Intended for tests and small boxes; not used on hot paths.
        """
        if self.is_empty:
            return np.empty((0, self.ndim), dtype=np.int64)
        axes = [np.arange(l, h, dtype=np.int64) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def __iter__(self) -> Iterator[IntVec]:
        for row in self.cell_coordinates():
            yield tuple(int(x) for x in row)

    # ------------------------------------------------------------------ #
    # dunder / plumbing
    # ------------------------------------------------------------------ #

    def __lt__(self, other: "Box") -> bool:
        return (self.lo, self.hi) < (other.lo, other.hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(lo={self.lo}, hi={self.hi})"

    def _check_rank(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise ValueError(f"rank mismatch: {self.ndim}-d vs {other.ndim}-d")

    def _check_rank_vec(self, v: IntVec) -> None:
        if len(v) != self.ndim:
            raise ValueError(f"rank mismatch: box is {self.ndim}-d, vector is {len(v)}-d")

    @staticmethod
    def _check_ratio(ratio: int) -> None:
        if int(ratio) != ratio or ratio < 1:
            raise ValueError(f"refinement ratio must be a positive integer, got {ratio}")

    @staticmethod
    def cube(lo: int, hi: int, ndim: int = 3) -> "Box":
        """Convenience constructor for a cube ``[lo, hi)^ndim``."""
        return Box((lo,) * ndim, (hi,) * ndim)
