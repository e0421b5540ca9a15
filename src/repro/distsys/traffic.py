"""Occupancy models: external load on shared links, processors and arrivals.

The paper's premise (Section 1) is that distributed systems are *shared*:
"the performance of [shared] resources changes with the external load".
The paper's networks (Gigabit-Ethernet LAN at ANL, MREN ATM OC-3 WAN between
ANL and NCSA) carry other users' traffic, and its processors run other
users' jobs -- precisely the dynamic load the DLB scheme adapts to.

One model family describes all of it.  A model maps simulation time to a
non-negative *occupancy*: the fraction of a resource consumed by external
load at that instant.  The same models drive the background traffic of a
:class:`~repro.distsys.network.Link`, the external CPU load of a
:class:`~repro.distsys.processor.Processor` (installed by
:mod:`repro.faults.schedule`) and the arrival rate of
:class:`~repro.service.arrivals.RequestArrivals`.  Parameters are checked
against the fraction domain ``[0, 1]``, but a model applies no ceiling;
each consumer applies its own (``Link.occupancy`` and the arrival rate cap
at :data:`~repro.distsys.network.MAX_OCCUPANCY`, ``Processor.availability``
floors at :data:`~repro.distsys.processor.MIN_AVAILABILITY`).

All models are deterministic functions of time (randomness is fixed at
construction from a seed), so paired experiment runs -- parallel DLB then
distributed DLB, as in the paper's back-to-back methodology -- observe the
identical weather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TrafficModel",
    "NoTraffic",
    "ConstantTraffic",
    "DiurnalTraffic",
    "BurstyTraffic",
    "FlashCrowdTraffic",
    "WindowTraffic",
    "TraceTraffic",
    "ComposedTraffic",
]


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


class TrafficModel:
    """Base class: occupancy as a deterministic function of time."""

    def occupancy(self, time: float) -> float:
        """Fraction of the resource consumed by external load (>= 0)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoTraffic(TrafficModel):
    """A dedicated resource (the parallel-machine case)."""

    def occupancy(self, time: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantTraffic(TrafficModel):
    """Steady external load, e.g. a persistent bulk transfer or batch job."""

    level: float = 0.3

    def __post_init__(self) -> None:
        _check_fraction("level", self.level)

    def occupancy(self, time: float) -> float:
        return self.level


@dataclass(frozen=True)
class DiurnalTraffic(TrafficModel):
    """Smooth sinusoidal load: the day/night cycle of a shared system.

    ``occupancy(t) = max(0, mean + amplitude * sin(2*pi*(t/period) + phase))``.
    """

    mean: float = 0.35
    amplitude: float = 0.25
    period: float = 600.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def occupancy(self, time: float) -> float:
        raw = self.mean + self.amplitude * math.sin(2.0 * math.pi * time / self.period + self.phase)
        return max(0.0, raw)


@dataclass(frozen=True)
class BurstyTraffic(TrafficModel):
    """Piecewise-constant random bursts (competing jobs come and go).

    Time is divided into buckets of ``bucket_seconds``; each bucket
    independently carries a burst with probability ``burst_probability``.
    The per-bucket draw is a hash of ``(seed, bucket_index)``, so occupancy
    is a pure function of time -- no hidden RNG state, resumable anywhere.
    """

    seed: int = 0
    base: float = 0.1
    burst: float = 0.7
    burst_probability: float = 0.3
    bucket_seconds: float = 20.0

    def __post_init__(self) -> None:
        if self.bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be positive, got {self.bucket_seconds}")
        for name in ("base", "burst", "burst_probability"):
            _check_fraction(name, getattr(self, name))

    def occupancy(self, time: float) -> float:
        bucket = int(time // self.bucket_seconds)
        # One-shot Philox draw keyed by (seed, bucket): deterministic and
        # statistically independent across buckets.
        u = np.random.Generator(np.random.Philox(key=self.seed, counter=bucket)).random()
        return self.burst if u < self.burst_probability else self.base


@dataclass(frozen=True)
class FlashCrowdTraffic(TrafficModel):
    """Sudden crowd spikes: a fast linear onset, then exponential decay.

    Time is divided into *windows* of ``window_seconds``; each window
    independently hosts a flash crowd with probability
    ``crowd_probability``.  The spike's onset offset within the window and
    its peak height are drawn from a Philox hash of ``(seed, window)``, so
    occupancy is a pure function of time -- no hidden RNG state, identical
    crowds for paired runs, resumable anywhere (the same discipline as
    :class:`BurstyTraffic` and the ``synth:*`` generators).

    Within a window hosting a crowd, occupancy ramps linearly from
    ``base`` to ``base + peak`` over ``onset_seconds``, then decays
    exponentially back toward ``base`` with time constant
    ``decay_seconds`` -- the canonical empirical flash-crowd shape
    (breaking news: near-instant arrival surge, slow loss of interest).
    """

    seed: int = 0
    base: float = 0.05
    peak: float = 0.8
    crowd_probability: float = 0.5
    window_seconds: float = 120.0
    onset_seconds: float = 5.0
    decay_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")
        if self.onset_seconds <= 0 or self.decay_seconds <= 0:
            raise ValueError("onset_seconds and decay_seconds must be positive")
        _check_fraction("crowd_probability", self.crowd_probability)
        _check_fraction("base", self.base)
        if self.peak < 0:
            raise ValueError(f"peak must be >= 0, got {self.peak}")

    def crowd_in_window(self, window: int) -> Optional[Tuple[float, float]]:
        """``(onset_time, peak)`` of the crowd in ``window``, or ``None``.

        Exposed so the service-arrival presets (and tests) can locate the
        spikes a seed produces without scanning occupancy curves.
        """
        if window < 0:  # runs start at t=0; there is no pre-history window
            return None
        g = np.random.Generator(np.random.Philox(key=self.seed, counter=window))
        u, offset_frac = g.random(2)
        if u >= self.crowd_probability:
            return None
        # onset somewhere in the first half of the window, so the decay
        # tail mostly plays out before the next window's draw
        onset = (window + 0.5 * float(offset_frac)) * self.window_seconds
        return onset, self.peak

    def occupancy(self, time: float) -> float:
        occ = self.base
        window = int(time // self.window_seconds)
        # a crowd in the previous window can still be decaying into this
        # one; later contributions sum (two overlapping crowds stack)
        for w in (window - 1, window):
            crowd = self.crowd_in_window(w)
            if crowd is None:
                continue
            onset, peak = crowd
            dt = time - onset
            if dt < 0:
                continue
            if dt < self.onset_seconds:
                occ += peak * dt / self.onset_seconds
            else:
                occ += peak * math.exp(-(dt - self.onset_seconds) / self.decay_seconds)
        return occ


@dataclass(frozen=True)
class WindowTraffic(TrafficModel):
    """A single occupancy window ``[start, end)`` -- the building block of
    transient slowdowns, dropout/rejoin windows and link outages."""

    start: float
    end: float
    level: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"window must have end > start, got [{self.start}, {self.end})"
            )
        _check_fraction("level", self.level)

    def occupancy(self, time: float) -> float:
        return self.level if self.start <= time < self.end else 0.0


class TraceTraffic(TrafficModel):
    """Step-function occupancy from a recorded trace (e.g. host monitoring).

    Parameters
    ----------
    times:
        Strictly increasing sample times; ``times[0]`` must be ``<= 0`` so
        the trace covers the start of the run.
    occupancies:
        Occupancy holding from ``times[i]`` until ``times[i+1]`` (the last
        value holds forever).
    """

    def __init__(self, times: Sequence[float], occupancies: Sequence[float]) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.occupancies = np.asarray(occupancies, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.occupancies.shape:
            raise ValueError("times and occupancies must be 1-d and equal length")
        if len(self.times) == 0:
            raise ValueError("trace must have at least one sample")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.times[0] > 0:
            raise ValueError("trace must start at or before t=0")
        if np.any((self.occupancies < 0) | (self.occupancies > 1)):
            raise ValueError("occupancies must be in [0, 1]")

    def occupancy(self, time: float) -> float:
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        idx = max(0, idx)
        return float(self.occupancies[idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceTraffic({len(self.times)} samples)"


@dataclass(frozen=True)
class ComposedTraffic(TrafficModel):
    """Sum of component occupancies -- several external stressors at once.

    The sum is left unclamped: the consumer applies its ceiling once, to
    the whole composite (e.g. the service arrival preset's diurnal +
    bursty + flash crowd, or a link's weather plus a fault overlay).
    """

    parts: Tuple[TrafficModel, ...] = ()

    def occupancy(self, time: float) -> float:
        return sum((p.occupancy(time) for p in self.parts), 0.0)
