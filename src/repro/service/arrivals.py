"""Request arrival processes: traffic-shaped rates with Zipf key skew.

The arrival side composes two orthogonal structures:

* **when** requests arrive -- a :class:`~repro.distsys.traffic.TrafficModel`
  shapes the aggregate rate over time.  The presets compose diurnal,
  bursty and flash-crowd sources through
  :class:`~repro.distsys.traffic.ComposedTraffic`, reusing the exact
  weather machinery the network links run on; the rate applies the
  ceiling once, to the composite;
* **where** they land -- a Zipf popularity field over the key space gives
  every key-space *cell* a rank-``1/r^s`` weight under a seeded
  permutation, so each shard's arrival share is the sum of its cells'
  weights.  Shard splits (the paper's carve step) re-derive shares from
  the same field -- a split hotspot's halves inherit exactly the keys they
  cover.

Determinism follows the ``synth:*`` discipline: every draw is a pure
function of ``(seed, tick)`` through a counter-based Philox generator --
no hidden RNG state, identical arrivals for paired runs, resumable at any
tick.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..amr.box import Box
from ..distsys.network import MAX_OCCUPANCY
from ..distsys.traffic import (
    BurstyTraffic,
    ComposedTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    TrafficModel,
)

__all__ = [
    "ARRIVAL_PRESETS",
    "available_arrival_presets",
    "make_arrival_model",
    "RequestArrivals",
    "ZipfPopularity",
]


def _steady(seed: int) -> TrafficModel:
    return ConstantTraffic(0.6)


def _diurnal(seed: int) -> TrafficModel:
    return DiurnalTraffic(mean=0.5, amplitude=0.35, period=240.0)


def _bursty(seed: int) -> TrafficModel:
    return ComposedTraffic((
        ConstantTraffic(0.35),
        BurstyTraffic(seed=seed, base=0.0, burst=0.45, burst_probability=0.3,
                      bucket_seconds=10.0),
    ))


def _flash_crowd(seed: int) -> TrafficModel:
    return ComposedTraffic((
        ConstantTraffic(0.25),
        FlashCrowdTraffic(seed=seed, base=0.0, peak=0.65, crowd_probability=0.8,
                          window_seconds=45.0, onset_seconds=3.0,
                          decay_seconds=15.0),
    ))


def _composite(seed: int) -> TrafficModel:
    # three independent sources; sub-seeds are fixed offsets of the preset
    # seed so one seed pins the whole composition
    return ComposedTraffic((
        DiurnalTraffic(mean=0.3, amplitude=0.2, period=240.0),
        BurstyTraffic(seed=seed, base=0.0, burst=0.3, burst_probability=0.25,
                      bucket_seconds=10.0),
        FlashCrowdTraffic(seed=seed + 1, base=0.0, peak=0.6,
                          crowd_probability=0.7, window_seconds=60.0,
                          onset_seconds=3.0, decay_seconds=20.0),
    ))


#: arrival-shape presets; each factory maps a seed to a traffic model
ARRIVAL_PRESETS: Dict[str, Callable[[int], TrafficModel]] = {
    "steady": _steady,
    "diurnal": _diurnal,
    "bursty": _bursty,
    "flash-crowd": _flash_crowd,
    "composite": _composite,
}


def available_arrival_presets() -> List[str]:
    return sorted(ARRIVAL_PRESETS)


def make_arrival_model(name: str, seed: int = 0) -> TrafficModel:
    """The preset's traffic model, seeded."""
    try:
        factory = ARRIVAL_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival preset {name!r}; "
            f"available: {', '.join(available_arrival_presets())}"
        ) from None
    return factory(seed)


class RequestArrivals:
    """Per-tick Poisson arrival counts, shaped by a traffic model.

    The instantaneous aggregate rate is ``requests_per_second *
    min(MAX_OCCUPANCY, occupancy(t)) / MAX_OCCUPANCY`` -- the traffic
    model's occupancy, capped at the link ceiling and mapped onto
    ``[0, requests_per_second]`` so ``requests_per_second`` is the
    saturation rate a fully-developed flash crowd reaches.  Per-shard
    expected counts split the aggregate by popularity share; the Poisson
    draw for tick ``k`` comes from ``Philox(key=seed, counter=k)``.
    """

    def __init__(self, model: TrafficModel, requests_per_second: float,
                 tick_seconds: float, seed: int = 0) -> None:
        if requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        self.model = model
        self.requests_per_second = float(requests_per_second)
        self.tick_seconds = float(tick_seconds)
        self.seed = int(seed)

    def rate(self, time: float) -> float:
        """Aggregate arrival rate (requests/second) at ``time``."""
        return (self.requests_per_second
                * min(MAX_OCCUPANCY, self.model.occupancy(time)) / MAX_OCCUPANCY)

    def counts_for_tick(self, tick: int, shares: np.ndarray) -> np.ndarray:
        """Arrival counts per shard for tick ``tick``.

        ``shares`` is the popularity share vector (sums to ~1); the rate is
        sampled at tick start (ticks are short next to every preset's time
        constants).
        """
        expected = self.rate(tick * self.tick_seconds) * self.tick_seconds * shares
        rng = np.random.Generator(np.random.Philox(key=self.seed, counter=tick))
        return rng.poisson(expected).astype(np.int64)


class ZipfPopularity:
    """Zipf-ranked popularity over the key-space lattice.

    Every cell of the ``shape`` lattice gets the weight ``1 / rank^s``
    where ranks are assigned by a seeded permutation -- hotspots land at
    deterministic but arbitrary key-space positions, and neighbouring hot
    keys are *not* correlated (the adversarial case for contiguous
    partitions; the locality-preserving schemes must earn their keep on
    the migration-cost side, not on artificial share smoothness).
    """

    def __init__(self, shape: Sequence[int], exponent: float = 1.1,
                 seed: int = 0) -> None:
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self.shape = tuple(int(n) for n in shape)
        n = int(np.prod(self.shape))
        if n < 1:
            raise ValueError(f"empty key space {self.shape}")
        self.exponent = float(exponent)
        self.seed = int(seed)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
        ranks = rng.permutation(n).astype(np.float64)
        weights = (ranks + 1.0) ** (-self.exponent)
        weights /= weights.sum()
        #: per-cell popularity, summing to exactly 1 over the lattice
        self.cell_weights = weights.reshape(self.shape)

    def shard_shares(self, boxes: Sequence[Box]) -> np.ndarray:
        """Popularity share of each box (the sum of its cells' weights)."""
        out = np.empty(len(boxes), dtype=np.float64)
        for i, box in enumerate(boxes):
            sl = tuple(slice(int(lo), int(hi)) for lo, hi in zip(box.lo, box.hi))
            out[i] = float(self.cell_weights[sl].sum())
        return out
