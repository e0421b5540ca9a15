"""Cell flagging: marking cells that need refinement.

Applications decide *where* resolution is needed by flagging cells (Section 2
of the paper: "in regions that require higher resolution, a finer subgrid is
added").  This module provides the flag container used between the
application (:mod:`repro.amr.applications`) and the grid generator
(:mod:`repro.amr.clustering`), plus the standard buffering step that pads
flagged regions so features cannot escape a fine grid between regrids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import Box

__all__ = ["FlagField", "buffer_flags"]


@dataclass
class FlagField:
    """A boolean field over a box of cells at one level's resolution.

    Parameters
    ----------
    box:
        The region the flags cover, in level coordinates.
    flags:
        Boolean array with ``flags.shape == box.shape``.
    """

    box: Box
    flags: np.ndarray

    def __post_init__(self) -> None:
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.shape != self.box.shape:
            raise ValueError(
                f"flag array shape {self.flags.shape} does not match box shape {self.box.shape}"
            )

    @property
    def nflagged(self) -> int:
        """Number of flagged cells."""
        return int(self.flags.sum())

    @property
    def any(self) -> bool:
        return bool(self.flags.any())

    def restrict(self, sub: Box) -> "FlagField":
        """The flag field over ``sub`` (must be contained in :attr:`box`)."""
        if not self.box.contains(sub):
            raise ValueError(f"{sub} is not contained in {self.box}")
        return FlagField(sub, self.flags[sub.slices(origin=self.box.lo)])

    @staticmethod
    def empty(box: Box) -> "FlagField":
        """An all-false flag field over ``box``."""
        return FlagField(box, np.zeros(box.shape, dtype=bool))

    @staticmethod
    def full(box: Box) -> "FlagField":
        """An all-true flag field over ``box``."""
        return FlagField(box, np.ones(box.shape, dtype=bool))


def buffer_flags(field: FlagField, width: int = 1) -> FlagField:
    """Dilate flags by ``width`` cells in every direction (within the box).

    SAMR codes buffer flagged cells so that the refined region extends a
    safety margin beyond the feature that triggered refinement; without the
    buffer, a moving shock would leave its fine grids between adaptations.
    Implemented as ``width`` box-dilation passes using shifted boolean ORs
    (pure NumPy, no SciPy dependency on this hot path).
    """
    if width < 0:
        raise ValueError(f"buffer width must be >= 0, got {width}")
    out = field.flags.copy()
    ndim = out.ndim
    for _ in range(width):
        # apply axes sequentially so one pass is a full box (Chebyshev-ball)
        # dilation, not a plus-shaped one
        for axis in range(ndim):
            acc = out.copy()
            # shift +1
            src = [slice(None)] * ndim
            dst = [slice(None)] * ndim
            src[axis] = slice(0, -1)
            dst[axis] = slice(1, None)
            acc[tuple(dst)] |= out[tuple(src)]
            # shift -1
            src[axis] = slice(1, None)
            dst[axis] = slice(0, -1)
            acc[tuple(dst)] |= out[tuple(src)]
            out = acc
    return FlagField(field.box, out)
