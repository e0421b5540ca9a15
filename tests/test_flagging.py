"""Unit and property tests for flag fields and buffering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.flagging import FlagField, buffer_flags


class TestFlagField:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            FlagField(Box((0, 0), (2, 2)), np.zeros((3, 3), dtype=bool))

    def test_nflagged(self):
        flags = np.zeros((4, 4), dtype=bool)
        flags[1, 2] = True
        f = FlagField(Box((0, 0), (4, 4)), flags)
        assert f.nflagged == 1
        assert f.any

    def test_empty_and_full(self):
        box = Box((0, 0), (3, 3))
        assert FlagField.empty(box).nflagged == 0
        assert FlagField.full(box).nflagged == 9

    def test_restrict(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        sub = f.restrict(Box((1, 1), (3, 3)))
        assert sub.box == Box((1, 1), (3, 3))
        assert sub.nflagged == 4

    def test_restrict_outside_raises(self):
        f = FlagField.full(Box((0, 0), (4, 4)))
        with pytest.raises(ValueError):
            f.restrict(Box((2, 2), (6, 6)))

    def test_dtype_coerced_to_bool(self):
        f = FlagField(Box((0,), (3,)), np.array([0, 2, 0]))
        assert f.flags.dtype == bool
        assert f.nflagged == 1


class TestBufferFlags:
    def test_single_cell_dilates_to_cube(self):
        flags = np.zeros((5, 5), dtype=bool)
        flags[2, 2] = True
        out = buffer_flags(FlagField(Box((0, 0), (5, 5)), flags), width=1)
        # box dilation: the 3x3 plus-star? our implementation dilates along
        # axes sequentially within one pass, giving the full 3x3 square
        assert out.nflagged == 9
        assert out.flags[1:4, 1:4].all()

    def test_zero_width_is_identity(self):
        flags = np.random.default_rng(0).random((4, 4)) < 0.5
        f = FlagField(Box((0, 0), (4, 4)), flags)
        out = buffer_flags(f, width=0)
        assert (out.flags == flags).all()

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            buffer_flags(FlagField.empty(Box((0,), (3,))), width=-1)

    def test_does_not_escape_box(self):
        flags = np.zeros((3, 3), dtype=bool)
        flags[0, 0] = True
        out = buffer_flags(FlagField(Box((0, 0), (3, 3)), flags), width=5)
        assert out.flags.shape == (3, 3)
        assert out.flags.all()  # saturates inside the box

    @given(st.integers(min_value=0, max_value=3))
    def test_buffering_is_monotone(self, width):
        rng = np.random.default_rng(42)
        flags = rng.random((6, 6)) < 0.2
        f = FlagField(Box((0, 0), (6, 6)), flags)
        out = buffer_flags(f, width)
        # original flags always survive
        assert (out.flags | ~flags).all() or (out.flags[flags]).all()

    @given(st.integers(min_value=1, max_value=3))
    def test_buffer_composition(self, width):
        """buffer(w) == buffer(1) applied w times."""
        rng = np.random.default_rng(7)
        flags = rng.random((8, 8)) < 0.15
        f = FlagField(Box((0, 0), (8, 8)), flags)
        once = buffer_flags(f, width)
        step = f
        for _ in range(width):
            step = buffer_flags(step, 1)
        assert (once.flags == step.flags).all()
