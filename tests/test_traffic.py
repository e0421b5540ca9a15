"""Unit tests for the occupancy models and the ceilings their consumers own."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.distsys.network import MAX_OCCUPANCY, Link
from repro.distsys.processor import MIN_AVAILABILITY, Processor
from repro.distsys.traffic import (
    BurstyTraffic,
    ComposedTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    NoTraffic,
    TraceTraffic,
    WindowTraffic,
)
from repro.service.arrivals import RequestArrivals

times = st.floats(min_value=0.0, max_value=1.0e5, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0)


def _link(traffic) -> Link:
    return Link("shared", latency=1e-3, bandwidth=1e6, traffic=traffic)


class TestNoTraffic:
    @given(times)
    def test_always_zero(self, t):
        assert NoTraffic().occupancy(t) == 0.0


class TestConstantTraffic:
    @given(times)
    def test_constant(self, t):
        assert ConstantTraffic(0.4).occupancy(t) == 0.4

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ConstantTraffic(-0.1)
        with pytest.raises(ValueError):
            ConstantTraffic(1.01)


class TestDiurnalTraffic:
    def test_periodicity(self):
        m = DiurnalTraffic(mean=0.4, amplitude=0.2, period=100.0)
        assert m.occupancy(13.0) == pytest.approx(m.occupancy(113.0))

    @given(times)
    def test_clamped(self, t):
        # the model floors at zero; the link applies the ceiling
        m = DiurnalTraffic(mean=0.5, amplitude=0.9, period=60.0)
        assert m.occupancy(t) >= 0.0
        assert 0.0 <= _link(m).occupancy(t) <= MAX_OCCUPANCY

    def test_mean_at_phase_zero(self):
        m = DiurnalTraffic(mean=0.35, amplitude=0.25, period=600.0)
        assert m.occupancy(0.0) == pytest.approx(0.35)

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            DiurnalTraffic(period=0)
        with pytest.raises(ValueError):
            DiurnalTraffic(amplitude=-1)


class TestBurstyTraffic:
    def test_deterministic(self):
        a = BurstyTraffic(seed=4)
        b = BurstyTraffic(seed=4)
        for t in np.linspace(0, 500, 37):
            assert a.occupancy(t) == b.occupancy(t)

    def test_values_are_base_or_burst(self):
        m = BurstyTraffic(seed=1, base=0.1, burst=0.7)
        vals = {m.occupancy(t) for t in np.arange(0, 2000, 20.0)}
        assert vals <= {0.1, 0.7}
        assert len(vals) == 2  # both states occur over a long window

    def test_constant_within_bucket(self):
        m = BurstyTraffic(seed=2, bucket_seconds=50.0)
        assert m.occupancy(10.0) == m.occupancy(49.9)

    def test_burst_probability_respected(self):
        m = BurstyTraffic(seed=3, burst_probability=0.25, bucket_seconds=1.0)
        samples = [m.occupancy(t) for t in range(5000)]
        frac = sum(1 for s in samples if s == m.burst) / len(samples)
        assert 0.2 < frac < 0.3

    def test_extreme_probabilities(self):
        always = BurstyTraffic(seed=0, burst_probability=1.0)
        never = BurstyTraffic(seed=0, burst_probability=0.0)
        assert always.occupancy(5.0) == always.burst
        assert never.occupancy(5.0) == never.base

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            BurstyTraffic(bucket_seconds=0)
        with pytest.raises(ValueError):
            BurstyTraffic(burst_probability=1.5)
        with pytest.raises(ValueError):
            BurstyTraffic(burst=1.5)
        with pytest.raises(ValueError):
            BurstyTraffic(base=-0.1)


class TestFlashCrowdTraffic:
    def test_deterministic(self):
        a = FlashCrowdTraffic(seed=11)
        b = FlashCrowdTraffic(seed=11)
        for t in np.linspace(0, 1000, 73):
            assert a.occupancy(t) == b.occupancy(t)

    @given(times)
    def test_clamped(self, t):
        m = FlashCrowdTraffic(seed=2, base=0.3, peak=0.9,
                              crowd_probability=1.0)
        assert m.occupancy(t) >= 0.0
        assert 0.0 <= _link(m).occupancy(t) <= MAX_OCCUPANCY

    def test_no_pre_history_window(self):
        m = FlashCrowdTraffic(seed=0)
        assert m.crowd_in_window(-1) is None

    def test_onset_in_first_half_of_window(self):
        m = FlashCrowdTraffic(seed=5, crowd_probability=1.0,
                              window_seconds=100.0)
        for w in range(20):
            onset, peak = m.crowd_in_window(w)
            assert w * 100.0 <= onset <= (w + 0.5) * 100.0
            assert peak == m.peak

    def test_linear_onset_then_exponential_decay(self):
        m = FlashCrowdTraffic(seed=3, base=0.1, peak=0.5,
                              crowd_probability=1.0, window_seconds=1000.0,
                              onset_seconds=4.0, decay_seconds=10.0)
        onset, peak = m.crowd_in_window(0)
        # before the crowd: base only
        assert m.occupancy(max(onset - 1.0, 0.0)) == pytest.approx(0.1)
        # halfway through the onset ramp
        assert m.occupancy(onset + 2.0) == pytest.approx(0.1 + 0.25)
        # at the peak
        assert m.occupancy(onset + 4.0) == pytest.approx(0.6)
        # one decay constant later: peak * e^-1 on top of base
        assert m.occupancy(onset + 14.0) == pytest.approx(
            0.1 + 0.5 * np.exp(-1.0))

    def test_extreme_probabilities(self):
        never = FlashCrowdTraffic(seed=0, base=0.2, crowd_probability=0.0)
        for t in np.linspace(0, 500, 23):
            assert never.occupancy(t) == 0.2
        always = FlashCrowdTraffic(seed=0, crowd_probability=1.0)
        assert all(always.crowd_in_window(w) is not None for w in range(10))

    def test_crowd_probability_respected(self):
        m = FlashCrowdTraffic(seed=9, crowd_probability=0.4)
        frac = sum(m.crowd_in_window(w) is not None
                   for w in range(4000)) / 4000
        assert 0.35 < frac < 0.45

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            FlashCrowdTraffic(window_seconds=0)
        with pytest.raises(ValueError):
            FlashCrowdTraffic(onset_seconds=0)
        with pytest.raises(ValueError):
            FlashCrowdTraffic(decay_seconds=-1)
        with pytest.raises(ValueError):
            FlashCrowdTraffic(crowd_probability=1.2)
        with pytest.raises(ValueError):
            FlashCrowdTraffic(base=1.5)
        with pytest.raises(ValueError):
            FlashCrowdTraffic(peak=-0.1)


class TestWindowTraffic:
    def test_boundaries(self):
        w = WindowTraffic(10.0, 20.0, 0.75)
        assert w.occupancy(9.999) == 0.0
        assert w.occupancy(10.0) == 0.75
        assert w.occupancy(19.999) == 0.75
        assert w.occupancy(20.0) == 0.0

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            WindowTraffic(20.0, 10.0, 0.5)
        with pytest.raises(ValueError):
            WindowTraffic(0.0, 10.0, 1.5)


class TestComposedTraffic:
    """Compositions are plain sums; the consumer clamps once, after the sum."""

    PARTS = (
        DiurnalTraffic(mean=0.3, amplitude=0.2, period=240.0),
        BurstyTraffic(seed=7, base=0.0, burst=0.3, burst_probability=0.25,
                      bucket_seconds=10.0),
        FlashCrowdTraffic(seed=8, base=0.0, peak=0.6, crowd_probability=0.7,
                          window_seconds=60.0),
    )

    def test_plain_sum_below_saturation(self):
        m = ComposedTraffic((ConstantTraffic(0.2), ConstantTraffic(0.3)))
        assert m.occupancy(5.0) == pytest.approx(0.5)

    @given(times)
    def test_composite_never_exceeds_max(self, t):
        m = ComposedTraffic(self.PARTS)
        assert m.occupancy(t) >= 0.0
        assert 0.0 <= _link(m).occupancy(t) <= MAX_OCCUPANCY

    @given(times)
    def test_equivalent_to_nested_overlays(self, t):
        """Nesting compositions (a link's weather plus a fault overlay) is
        the flat sum, and the consumer's single clamp sees the same value:
        ``min(C, (a+b) + c) == min(C, a+b+c)`` up to summation order."""
        composed = ComposedTraffic(self.PARTS)
        nested = ComposedTraffic((ComposedTraffic(self.PARTS[:2]), self.PARTS[2]))
        assert composed.occupancy(t) == pytest.approx(nested.occupancy(t))
        assert _link(composed).occupancy(t) == pytest.approx(
            _link(nested).occupancy(t))

    def test_saturating_stack_clamps_to_max_exactly(self):
        # three 0.5 sources sum to 1.5; the link clamps to MAX_OCCUPANCY, so
        # the effective-bandwidth floor (1 - MAX_OCCUPANCY) survives any stack
        m = ComposedTraffic(tuple(ConstantTraffic(0.5) for _ in range(3)))
        assert m.occupancy(0.0) == 1.5
        link = _link(m)
        assert link.occupancy(0.0) == MAX_OCCUPANCY
        assert link.effective_bandwidth(0.0) == pytest.approx(
            link.bandwidth * (1.0 - MAX_OCCUPANCY))

    def test_empty_composition_is_silence(self):
        assert ComposedTraffic(()).occupancy(3.0) == 0.0


class TestTraceTraffic:
    def test_step_function(self):
        m = TraceTraffic([0.0, 10.0, 20.0], [0.1, 0.5, 0.2])
        assert m.occupancy(5.0) == 0.1
        assert m.occupancy(10.0) == 0.5
        assert m.occupancy(15.0) == 0.5
        assert m.occupancy(1000.0) == 0.2

    def test_must_cover_t0(self):
        with pytest.raises(ValueError):
            TraceTraffic([5.0], [0.2])

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            TraceTraffic([0.0, 0.0], [0.1, 0.2])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            TraceTraffic([0.0, 1.0], [0.1])

    def test_occupancy_bounds_validated(self):
        with pytest.raises(ValueError):
            TraceTraffic([0.0], [1.5])
        with pytest.raises(ValueError):
            TraceTraffic([0.0], [-0.1])


# a random occupancy model, parameterised by fractions
models = st.one_of(
    st.builds(ConstantTraffic, fractions),
    st.builds(WindowTraffic, st.just(0.0), st.just(math.inf), fractions),
    st.builds(BurstyTraffic, seed=st.integers(0, 2**32 - 1), base=fractions,
              burst=fractions, burst_probability=fractions,
              bucket_seconds=st.just(5.0)),
    st.builds(DiurnalTraffic, mean=fractions, amplitude=fractions,
              period=st.just(60.0)),
    st.builds(FlashCrowdTraffic, seed=st.integers(0, 2**32 - 1),
              base=fractions, peak=fractions, crowd_probability=fractions),
    st.builds(TraceTraffic, st.just([0.0, 50.0]),
              st.lists(fractions, min_size=2, max_size=2)),
)


class TestConsumersOwnTheCeilings:
    """Models apply no ceiling; every consumer applies its own."""

    @given(st.lists(models, min_size=2, max_size=6), times,
           st.floats(min_value=1.0, max_value=1.0e6))
    def test_saturated_composition(self, parts, t, rps):
        m = ComposedTraffic(tuple(parts))
        raw = m.occupancy(t)
        # above both the link/arrival ceiling and the processor's
        assume(raw > 0.99)
        assert raw == pytest.approx(sum(p.occupancy(t) for p in parts))

        occ = _link(m).occupancy(t)
        assert 0.0 <= occ <= MAX_OCCUPANCY

        proc = Processor(pid=0, group_id=0, load=m)
        assert proc.availability(t) >= MIN_AVAILABILITY

        rate = RequestArrivals(m, requests_per_second=rps,
                               tick_seconds=1.0).rate(t)
        # the saturated rate is (rps * C) / C, which rounds to rps or to
        # one of its float neighbours
        assert rate <= math.nextafter(rps, math.inf)
        assert rate == pytest.approx(rps)
