"""Service-run reports: latency distributions and SLO accounting.

The serving simulator's quantity of interest is the *request latency
distribution* -- p50/p95/p99 -- which no scalar accumulator captures.
:class:`LatencyHistogram` is a fixed-bucket log-scale histogram: bucket
edges are pinned at construction (identical for every run), observations
are vectorized ``searchsorted`` + ``bincount`` accumulation, and quantiles
read deterministically off the cumulative counts.  Fixed buckets make the
whole report a pure function of ``(config, scheme, seed)``: the same run
always yields the identical JSON dict and therefore the identical
:func:`report_hash` -- the bit-for-bit determinism gate of
``benchmarks/test_perf_service.py``.

:class:`ServiceReport` is the JSON-safe summary attached to
``RunResult.service``; unlike the obs metrics snapshot it *is* kept by the
result cache and the persistence layer, so sweeps over router x migration
policy combinations carry their p50/p99/throughput/migration-cost numbers
through the executor, the daemon and ``save_run``/``load_run`` unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "LatencyHistogram",
    "ServiceReport",
    "report_hash",
    "format_service_report",
]

#: default latency bucket edges (seconds): 120 log-spaced buckets from
#: 0.1 ms to 100 s, plus an underflow and an overflow bucket.  Spanning six
#: decades keeps both an intra-group round trip (~microseconds of queueing)
#: and a flash-crowd queue blowup (tens of seconds) resolvable.
DEFAULT_EDGES_DECADES = (-4.0, 2.0)
DEFAULT_NBUCKETS = 120


def _default_edges() -> np.ndarray:
    lo, hi = DEFAULT_EDGES_DECADES
    return np.logspace(lo, hi, DEFAULT_NBUCKETS + 1)


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram with exact extremes.

    ``counts[0]`` holds observations ``<= edges[0]`` (underflow);
    ``counts[i]`` holds ``(edges[i-1], edges[i]]``; ``counts[-1]`` holds
    ``> edges[-1]`` (overflow).  Mean/min/max are tracked exactly; quantiles
    are resolved to the upper edge of the bucket containing the target rank
    (a deterministic, conservative estimate).
    """

    def __init__(self, edges: Optional[np.ndarray] = None) -> None:
        self.edges = np.asarray(edges if edges is not None else _default_edges(),
                                dtype=np.float64)
        if self.edges.ndim != 1 or len(self.edges) < 2:
            raise ValueError("edges must be a 1-d array with >= 2 entries")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe_array(self, latencies: np.ndarray,
                      ends: Optional[Sequence[int]] = None) -> np.ndarray:
        """Accumulate a batch of latency samples (seconds).

        ``ends`` splits the batch into consecutive segments
        ``latencies[ends[i-1]:ends[i]]`` (the first starts at 0, and
        ``ends[-1]`` must be the batch length); ``None`` is one segment.
        Returns each segment's sum.  ``sum`` adds those sums in segment
        order, one pairwise ``.sum()`` per segment, so it is the float a
        separate call per segment would give: numpy's pairwise summation
        depends on where an array is split, and ``np.add.reduceat`` is
        not bit-identical to per-segment sums.  Counts, ``total``, ``min``
        and ``max`` do not depend on order.
        """
        lat = np.asarray(latencies, dtype=np.float64)
        bounds = [lat.size] if ends is None else [int(e) for e in ends]
        sums = np.zeros(len(bounds), dtype=np.float64)
        if lat.size == 0:
            return sums
        if not bounds or bounds[-1] != lat.size:
            raise ValueError(
                f"segment ends {bounds[-1:]} do not end at the batch's "
                f"{lat.size} samples")
        idx = np.searchsorted(self.edges, lat, side="left")
        self.counts += np.bincount(idx, minlength=len(self.counts))
        self.total += int(lat.size)
        start = 0
        for i, end in enumerate(bounds):
            if end > start:  # an empty segment is a call that adds nothing
                sums[i] = lat[start:end].sum()
                self.sum += float(sums[i])
            start = end
        lo = float(lat.min())
        hi = float(lat.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)
        return sums

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile latency (upper bucket edge; exact extremes)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cum = np.cumsum(self.counts)
        bucket = int(np.searchsorted(cum, rank, side="left"))
        if bucket == 0:
            return float(self.edges[0])
        if bucket >= len(self.edges):
            # overflow bucket: the exact maximum is the only honest answer
            return float(self.max) if self.max is not None else float(self.edges[-1])
        return float(self.edges[bucket])

    def to_dict(self) -> Dict[str, Any]:
        """JSON form; edges are implied by the fixed default when standard."""
        return {
            "counts": [int(c) for c in self.counts],
            "total": int(self.total),
            "sum": float(self.sum),
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LatencyHistogram":
        h = cls()
        counts = np.asarray(data["counts"], dtype=np.int64)
        if counts.shape != h.counts.shape:
            raise ValueError(
                f"histogram has {len(counts)} buckets, expected {len(h.counts)}"
            )
        h.counts = counts
        h.total = int(data["total"])
        h.sum = float(data["sum"])
        h.min = data.get("min")
        h.max = data.get("max")
        return h


@dataclass
class ServiceReport:
    """Everything a service run measured, JSON-safe and hashable.

    Attached to ``RunResult.service`` as a plain dict (see
    :meth:`to_dict`); rebuild the typed view with :meth:`from_dict` or
    :meth:`from_run`.
    """

    router: str
    scheme: str
    arrivals: str
    nticks: int
    tick_seconds: float
    duration: float
    total_requests: int
    throughput_rps: float
    latency: LatencyHistogram
    p50: float
    p95: float
    p99: float
    mean_latency: float
    max_latency: float
    slo_ms: float
    slo_violations: int
    stalled_requests: int
    migrations: int
    migration_bytes: float
    migration_stall_seconds: float
    balance_invocations: int
    redistributions: int
    decisions: int
    queue_depth_max: float
    final_backlog: float
    per_shard: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "router": self.router,
            "scheme": self.scheme,
            "arrivals": self.arrivals,
            "nticks": self.nticks,
            "tick_seconds": self.tick_seconds,
            "duration": self.duration,
            "total_requests": self.total_requests,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.to_dict(),
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "slo_ms": self.slo_ms,
            "slo_violations": self.slo_violations,
            "stalled_requests": self.stalled_requests,
            "migrations": self.migrations,
            "migration_bytes": self.migration_bytes,
            "migration_stall_seconds": self.migration_stall_seconds,
            "balance_invocations": self.balance_invocations,
            "redistributions": self.redistributions,
            "decisions": self.decisions,
            "queue_depth_max": self.queue_depth_max,
            "final_backlog": self.final_backlog,
            "per_shard": self.per_shard,
        }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceReport":
        fields = dict(data)
        fields["latency"] = LatencyHistogram.from_dict(fields["latency"])
        return cls(**fields)

    @classmethod
    def from_run(cls, result) -> "ServiceReport":
        """The typed report of a service :class:`~repro.metrics.RunResult`."""
        if getattr(result, "service", None) is None:
            raise ValueError("run result carries no service report")
        return cls.from_dict(result.service)

    @property
    def hash(self) -> str:
        return report_hash(self.to_dict())


def report_hash(report: Dict[str, Any]) -> str:
    """Content hash of a report dict: the determinism gate's fingerprint.

    Canonical JSON (sorted keys, no whitespace variance) -> sha256.  Two
    runs agree on this hash iff every counted request landed in the same
    latency bucket, every migration moved the same bytes, and every policy
    made the same decision -- bit-for-bit behavioural equality.
    """
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def format_service_report(report: ServiceReport) -> str:
    """Human-readable block for the ``repro route`` CLI."""
    ms = 1e3
    lines = [
        f"service run | scheme {report.scheme} | router {report.router}"
        f" | arrivals {report.arrivals}",
        f"  {report.total_requests} requests over {report.duration:.0f}s"
        f" ({report.nticks} ticks) -> {report.throughput_rps:.0f} req/s",
        f"  latency p50 {report.p50 * ms:.2f}ms | p95 {report.p95 * ms:.2f}ms"
        f" | p99 {report.p99 * ms:.2f}ms | mean {report.mean_latency * ms:.2f}ms"
        f" | max {report.max_latency * ms:.2f}ms",
        f"  SLO {report.slo_ms:.0f}ms: {report.slo_violations} violations"
        f" ({_pct(report.slo_violations, report.total_requests)})",
        f"  migrations: {report.migrations} shard moves,"
        f" {report.migration_bytes / 1e6:.2f} MB state transfer,"
        f" {report.migration_stall_seconds:.3f}s in-flight"
        f" ({report.stalled_requests} stalled requests)",
        f"  balancing: {report.balance_invocations} balance points,"
        f" {report.decisions} gate evaluations,"
        f" {report.redistributions} redistributions",
        f"  queues: max depth {report.queue_depth_max:.0f},"
        f" final backlog {report.final_backlog:.0f}",
    ]
    return "\n".join(lines)


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.2f}%" if whole else "0.00%"
