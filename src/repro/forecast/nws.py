"""Network Weather Service style link forecasting (paper Section 6).

The paper's future work: "we will connect this proposed DLB scheme with
tools such as the NWS service to get more accurate evaluation of underlying
networks."  NWS (Wolski, 1996) runs an *ensemble* of simple time-series
predictors over periodic measurements and, for each forecast, uses the
predictor with the lowest accumulated error so far.

This module implements that idea over the probe measurements the cost model
already takes: sliding-window mean and median, last-value, and exponential
smoothing predictors, combined by an :class:`AdaptiveForecaster`.  The NWS
ablation benchmark compares cost-model accuracy with and without it under
bursty traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

__all__ = [
    "Forecaster",
    "LastValueForecaster",
    "SlidingMeanForecaster",
    "SlidingMedianForecaster",
    "ExponentialSmoothingForecaster",
    "AdaptiveForecaster",
]


class Forecaster:
    """Base class: feed measurements with :meth:`update`, read
    :meth:`forecast`.

    ``forecast()`` before any update returns ``None`` -- callers fall back
    to the instantaneous probe, which is the paper's base behaviour.
    """

    def update(self, value: float) -> None:
        raise NotImplementedError

    def forecast(self) -> Optional[float]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class LastValueForecaster(Forecaster):
    """Predict the next measurement equals the last one."""

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = float(value)

    def forecast(self) -> Optional[float]:
        return self._last

    def reset(self) -> None:
        self._last = None


class _WindowForecaster(Forecaster):
    """Shared machinery for sliding-window predictors."""

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._values: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._values.append(float(value))

    def reset(self) -> None:
        self._values.clear()


class SlidingMeanForecaster(_WindowForecaster):
    """Mean of the last ``window`` measurements."""

    def forecast(self) -> Optional[float]:
        if not self._values:
            return None
        return sum(self._values) / len(self._values)


class SlidingMedianForecaster(_WindowForecaster):
    """Median of the last ``window`` measurements (robust to bursts)."""

    def forecast(self) -> Optional[float]:
        if not self._values:
            return None
        vals = sorted(self._values)
        n = len(vals)
        mid = n // 2
        if n % 2:
            return vals[mid]
        return 0.5 * (vals[mid - 1] + vals[mid])


class ExponentialSmoothingForecaster(Forecaster):
    """``s <- gamma*value + (1-gamma)*s`` exponential smoothing."""

    def __init__(self, gamma: float = 0.5) -> None:
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.gamma = gamma
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        v = float(value)
        self._state = v if self._state is None else self.gamma * v + (1 - self.gamma) * self._state

    def forecast(self) -> Optional[float]:
        return self._state

    def reset(self) -> None:
        self._state = None


@dataclass
class _Tracked:
    forecaster: Forecaster
    error: float = 0.0
    n: int = 0


class AdaptiveForecaster(Forecaster):
    """NWS-style ensemble: forecast with the historically best predictor.

    Each :meth:`update` first scores every member's pending forecast against
    the arriving measurement (accumulating mean absolute error), then feeds
    the measurement to every member.  :meth:`forecast` returns the
    prediction of the member with the lowest accumulated error.
    """

    def __init__(self, members: Optional[Sequence[Forecaster]] = None) -> None:
        if members is None:
            members = [
                LastValueForecaster(),
                SlidingMeanForecaster(window=8),
                SlidingMedianForecaster(window=8),
                ExponentialSmoothingForecaster(gamma=0.5),
            ]
        if not members:
            raise ValueError("members must be non-empty")
        self._members: List[_Tracked] = [_Tracked(m) for m in members]

    def update(self, value: float) -> None:
        v = float(value)
        for t in self._members:
            pred = t.forecaster.forecast()
            if pred is not None:
                t.error += abs(pred - v)
                t.n += 1
            t.forecaster.update(v)

    def forecast(self) -> Optional[float]:
        best = None
        best_mae = float("inf")
        for t in self._members:
            pred = t.forecaster.forecast()
            if pred is None:
                continue
            mae = t.error / t.n if t.n else float("inf")
            if mae < best_mae or best is None:
                best, best_mae = pred, mae
        return best

    def reset(self) -> None:
        for t in self._members:
            t.forecaster.reset()
            t.error = 0.0
            t.n = 0
