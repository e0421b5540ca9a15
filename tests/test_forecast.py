"""Unit tests for the NWS-style forecasters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forecast import (
    AdaptiveForecaster,
    ExponentialSmoothingForecaster,
    LastValueForecaster,
    SlidingMeanForecaster,
    SlidingMedianForecaster,
)


class TestLastValue:
    def test_none_before_data(self):
        assert LastValueForecaster().forecast() is None

    def test_tracks_last(self):
        f = LastValueForecaster()
        f.update(1.0)
        f.update(3.0)
        assert f.forecast() == 3.0

    def test_reset(self):
        f = LastValueForecaster()
        f.update(1.0)
        f.reset()
        assert f.forecast() is None


class TestSlidingMean:
    def test_mean_of_window(self):
        f = SlidingMeanForecaster(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            f.update(v)
        assert f.forecast() == pytest.approx(3.0)  # last three

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            SlidingMeanForecaster(window=0)


class TestSlidingMedian:
    def test_median_odd(self):
        f = SlidingMedianForecaster(window=5)
        for v in (1.0, 100.0, 2.0):
            f.update(v)
        assert f.forecast() == 2.0

    def test_median_even(self):
        f = SlidingMedianForecaster(window=4)
        for v in (1.0, 2.0, 3.0, 4.0):
            f.update(v)
        assert f.forecast() == 2.5

    def test_robust_to_burst(self):
        """One outlier does not drag the median (it would drag the mean)."""
        med = SlidingMedianForecaster(window=5)
        mean = SlidingMeanForecaster(window=5)
        for v in (1.0, 1.0, 1.0, 1.0, 50.0):
            med.update(v)
            mean.update(v)
        assert med.forecast() == 1.0
        assert mean.forecast() > 10.0


class TestExponentialSmoothing:
    def test_smoothing(self):
        f = ExponentialSmoothingForecaster(gamma=0.5)
        f.update(0.0)
        f.update(1.0)
        assert f.forecast() == pytest.approx(0.5)

    def test_gamma_one_is_last_value(self):
        f = ExponentialSmoothingForecaster(gamma=1.0)
        f.update(1.0)
        f.update(7.0)
        assert f.forecast() == 7.0

    def test_bad_gamma_raises(self):
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(gamma=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(gamma=1.5)


class TestAdaptive:
    def test_none_before_data(self):
        assert AdaptiveForecaster().forecast() is None

    def test_empty_members_raise(self):
        with pytest.raises(ValueError):
            AdaptiveForecaster(members=[])

    def test_constant_series_predicted_exactly(self):
        f = AdaptiveForecaster()
        for _ in range(10):
            f.update(0.4)
        assert f.forecast() == pytest.approx(0.4)

    def test_picks_best_member_on_steady_series(self):
        """On a flat series with rare spikes the median member wins."""
        f = AdaptiveForecaster()
        rng = np.random.default_rng(0)
        for i in range(200):
            v = 0.7 if rng.random() < 0.1 else 0.1
            f.update(v)
        # forecast should be near the baseline, not dragged to the spike
        assert f.forecast() < 0.3

    def test_beats_last_value_on_noisy_series(self):
        """Ensemble MAE <= the worst member's MAE by construction; check it
        also tracks a noisy AR series sensibly."""
        rng = np.random.default_rng(42)
        series = 0.4 + 0.05 * rng.standard_normal(300)
        f = AdaptiveForecaster()
        err = 0.0
        n = 0
        for v in series:
            pred = f.forecast()
            if pred is not None:
                err += abs(pred - v)
                n += 1
            f.update(v)
        assert err / n < 0.1

    def test_reset_clears_state(self):
        f = AdaptiveForecaster()
        for v in (1.0, 2.0):
            f.update(v)
        f.reset()
        assert f.forecast() is None
        assert all(t.n == 0 and t.error == 0.0 for t in f._members)
