"""Configuration dataclasses shared by the runtime, schemes and harness.

Every class here is a frozen dataclass with validated fields: hashable (so
it can participate in content-addressed cache keys, see
``docs/PERFORMANCE.md``) and JSON-friendly (every field is a scalar or
``None``).  Scheme *composition* is configured separately, through
:class:`repro.core.registry.SchemeSpec` (see ``docs/SCHEMES.md``);
:class:`SchemeParams` holds the runtime tunables shared by whichever
composition runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Final, Tuple

__all__ = ["SimParams", "SchemeParams", "FaultParams", "ExecParams",
           "TraceParams", "ServiceConfig", "FAULT_SCENARIOS"]

#: fault scenarios the harness knows how to build (see
#: :func:`repro.harness.experiment.make_faults`)
FAULT_SCENARIOS: Final[Tuple[str, ...]] = (
    "none",
    "slowdown",
    "dropout",
    "cpu-load",
    "link-degraded",
    "mixed",
)


def _check_floats(obj: Any, *, finite: bool = False) -> None:
    """Reject NaN -- and, with ``finite``, the infinities -- in every
    ``float`` field of the dataclass ``obj``, naming the field.

    NaN passes every ordered comparison, so a range check such as
    ``gamma < 0`` lets it through; every config runs this first.
    """
    for f in fields(obj):
        if f.type != "float":
            continue
        value = getattr(obj, f.name)
        if math.isnan(value) or (finite and math.isinf(value)):
            need = "be finite" if finite else "not be NaN"
            raise ValueError(f"{f.name} must {need}, got {value!r}")


@dataclass(frozen=True)
class SimParams:
    """Physical constants of the simulated SAMR runtime.

    These map cell counts to bytes and balancing actions to compute
    overhead.  Absolute values shift the compute/communication ratio; the
    defaults are chosen so a mid-size run on the WAN system reproduces the
    paper's regime (communication a large minority of distributed runtime).

    Parameters
    ----------
    bytes_per_cell:
        Solver state shipped per cell for ghost exchange and migration.
        ENZO carries ~10 double-precision fields per cell -> 80 bytes.
    ghost_width:
        Ghost-zone depth for sibling adjacency (cells).
    parent_child_factor:
        Fraction of a child grid's surface shell exchanged with its parent
        per fine step (boundary interpolation + restriction).
    repartition_fixed_seconds:
        Fixed computational overhead of one global redistribution: "the time
        to partition the grids at the top level, rebuild the internal data
        structures, and update boundary conditions" (Section 4.2).  Together
        with the per-grid term this is the measured ``delta`` the cost model
        records for its next prediction.
    repartition_seconds_per_grid:
        Per level-0-grid share of that overhead.
    regrid_seconds_per_grid:
        Computational overhead charged per grid created by a regrid (data
        structure construction); identical for both schemes, so it cancels
        in comparisons but keeps totals honest.

    Every float field must be finite: NaN or an infinity raises a
    ``ValueError`` that names the field.
    """

    bytes_per_cell: float = 80.0
    ghost_width: int = 1
    parent_child_factor: float = 1.0
    repartition_fixed_seconds: float = 0.02
    repartition_seconds_per_grid: float = 2.0e-4
    regrid_seconds_per_grid: float = 5.0e-5

    def __post_init__(self) -> None:
        _check_floats(self, finite=True)
        if self.bytes_per_cell <= 0:
            raise ValueError("bytes_per_cell must be positive")
        if self.ghost_width < 0:
            raise ValueError("ghost_width must be >= 0")
        if self.parent_child_factor < 0:
            raise ValueError("parent_child_factor must be >= 0")
        for name in (
            "repartition_fixed_seconds",
            "repartition_seconds_per_grid",
            "regrid_seconds_per_grid",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SchemeParams:
    """Tunables of the DLB schemes.

    Parameters
    ----------
    gamma:
        The gain/cost gate factor: global redistribution runs only when
        ``Gain > gamma * Cost`` (paper Section 4.4; default 2.0 as in the
        paper).
    imbalance_threshold:
        Minimum ratio of capacity-normalised group loads (max/min) that
        counts as "imbalance exists" and triggers the gain/cost evaluation.
    local_tolerance:
        Local phase stops improving once every processor is within this
        relative distance of its target load.
    max_local_moves:
        Safety cap on grid moves per local balancing action.

    A NaN float field raises a ``ValueError`` that names it.  ``gamma``
    and ``imbalance_threshold`` may be infinite: the gate they set then
    never fires.
    """

    gamma: float = 2.0
    imbalance_threshold: float = 1.05
    local_tolerance: float = 0.05
    max_local_moves: int = 10_000

    def __post_init__(self) -> None:
        _check_floats(self)
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.imbalance_threshold < 1.0:
            raise ValueError("imbalance_threshold must be >= 1.0")
        if not 0.0 < self.local_tolerance < 1.0:
            raise ValueError("local_tolerance must be in (0, 1)")
        if self.max_local_moves < 1:
            raise ValueError("max_local_moves must be >= 1")


@dataclass(frozen=True)
class ExecParams:
    """How the harness executes batches of experiment runs.

    Consumed by :func:`repro.exec.make_executor`; the CLI builds one from
    its ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes in-process (serial); ``> 1`` fans
        runs out over a process pool with deterministic result ordering.
    use_cache:
        Whether to consult/populate the content-addressed result cache.
    cache_dir:
        Cache directory.  ``None`` means the default
        (``$REPRO_CACHE_DIR`` or ``.repro_cache`` under the working
        directory).
    """

    jobs: int = 1
    use_cache: bool = False
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class TraceParams:
    """Trace source for a replayed experiment (see ``docs/TRACES.md``).

    When :class:`~repro.harness.experiment.ExperimentConfig` carries one of
    these, the harness replays the workload trace through the cluster
    simulator instead of running the AMR solver -- same schemes, systems,
    gamma and fault schedules, an order of magnitude faster.

    Parameters
    ----------
    source:
        Either a trace file path (``*.trace.jsonl.gz``, written by
        ``repro record`` / :func:`repro.traces.record_run`) or a synthetic
        generator reference ``"synth:<name>"`` (``synth:hotspot``,
        ``synth:bursty``, ``synth:adversarial``, or anything registered via
        :func:`repro.traces.register_synth_workload`).
    content_hash:
        sha256 of the trace file bytes.  ``""`` means "resolve at run
        time": the harness fills it in before building cache keys, so
        cached replay results are keyed by trace *content*, not path.
        A non-empty mismatching hash fails the run (stale-trace guard).
        Ignored for synthetic sources.
    seed / intensity:
        Generator parameters for synthetic sources (ignored for files).
    strict:
        Replay cross-checks recorded per-grid workloads against the
        replayed hierarchy and fails loudly on divergence.  Only
        meaningful when replaying under the recorded scheme + system;
        cross-scheme replays legitimately diverge.

    A NaN ``intensity`` raises a ``ValueError`` that names it.
    """

    source: str = ""
    content_hash: str = ""
    seed: int = 0
    intensity: float = 1.0
    strict: bool = False

    def __post_init__(self) -> None:
        _check_floats(self)
        if not self.source:
            raise ValueError("trace source must be a file path or 'synth:<name>'")
        if self.source.startswith("synth:") and len(self.source) <= len("synth:"):
            raise ValueError("empty synthetic workload name in trace source")
        if self.intensity <= 0:
            raise ValueError("intensity must be > 0")

    @property
    def is_synthetic(self) -> bool:
        """Whether the source is a generator reference, not a file."""
        return self.source.startswith("synth:")


@dataclass(frozen=True)
class ServiceConfig:
    """A serving-simulator run (see ``docs/SERVICE.md``).

    When an :class:`~repro.harness.experiment.ExperimentConfig` carries one
    of these, the harness runs the shard/replica request router of
    :mod:`repro.service` instead of the AMR solver: the scheme under test
    becomes the *shard migration* policy (its gain/cost gate and partition
    run unchanged), ``router`` picks the per-request replica, and the
    result carries a latency/throughput/migration-cost report on
    ``RunResult.service``.

    Parameters
    ----------
    nshards / replication / shard_side:
        The shard set: ``nshards`` shards, up to ``replication`` replicas
        each (replicas stay within the primary's group), each shard a
        ``shard_side``-wide strip of the key lattice (``>= 2`` so hot
        shards stay splittable).
    requests_per_second:
        Aggregate arrival rate at traffic saturation -- the arrival
        preset's occupancy maps onto ``[0, requests_per_second]``.
    service_rate:
        Requests/second one nominal-speed processor serves; faster or
        externally loaded processors scale proportionally.
    request_bytes:
        Payload per request crossing an inter-group route (gateway to a
        remote replica).
    tick_seconds / duration_seconds:
        Event-loop resolution and total simulated serving time.
    arrivals / arrival_seed:
        Arrival-shape preset (:func:`repro.service.available_arrival_presets`)
        and its seed.
    zipf_exponent / zipf_seed:
        Key-popularity skew: per-cell Zipf weights under a seeded
        permutation; ``0`` exponent means uniform popularity.
    router / router_seed:
        Replica-selection policy
        (:func:`repro.service.available_router_policies`) and the seed for
        sampling policies.
    ewma_alpha / warmup_ticks:
        EWMA smoothing for the response-time router state and the warm-up
        ticks during which the ``ewma`` router splits evenly.
    balance_every_seconds:
        Balance-point interval -- how often observed shard load is handed
        to the migration scheme.
    gateway_group:
        Group index where requests enter the system; replicas in other
        groups pay the inter-group route latency per request.
    slo_ms:
        Latency objective; requests slower than this count as violations.
    migration_stall_ms:
        Extra latency added to a shard's requests while its state transfer
        is in flight.

    Every float field must be finite: NaN or an infinity raises a
    ``ValueError`` that names the field.
    """

    nshards: int = 32
    replication: int = 2
    shard_side: int = 16
    requests_per_second: float = 2000.0
    service_rate: float = 150.0
    request_bytes: float = 2048.0
    tick_seconds: float = 1.0
    duration_seconds: float = 60.0
    arrivals: str = "flash-crowd"
    arrival_seed: int = 0
    zipf_exponent: float = 1.1
    zipf_seed: int = 0
    router: str = "round-robin"
    router_seed: int = 0
    ewma_alpha: float = 0.3
    warmup_ticks: int = 5
    balance_every_seconds: float = 10.0
    gateway_group: int = 0
    slo_ms: float = 250.0
    migration_stall_ms: float = 50.0

    def __post_init__(self) -> None:
        _check_floats(self, finite=True)
        if self.nshards < 1:
            raise ValueError("nshards must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.shard_side < 2:
            raise ValueError("shard_side must be >= 2")
        for name in ("requests_per_second", "service_rate", "request_bytes",
                     "tick_seconds", "duration_seconds",
                     "balance_every_seconds"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.warmup_ticks < 0:
            raise ValueError("warmup_ticks must be >= 0")
        if self.gateway_group < 0:
            raise ValueError("gateway_group must be >= 0")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.migration_stall_ms < 0:
            raise ValueError("migration_stall_ms must be >= 0")

    @property
    def nticks(self) -> int:
        """Number of event-loop ticks in the run (at least one)."""
        return max(1, int(round(self.duration_seconds / self.tick_seconds)))

    @property
    def balance_every_ticks(self) -> int:
        """Ticks between balance points (at least one)."""
        return max(1, int(round(self.balance_every_seconds / self.tick_seconds)))


@dataclass(frozen=True)
class FaultParams:
    """Declarative fault scenario for an experiment.

    A compact, JSON-friendly description that the harness expands into a
    :class:`repro.faults.FaultSchedule` (see ``make_faults``).  One knob,
    ``severity``, scales every scenario: it is the slowdown *factor* of the
    affected resource, so ``severity=4`` means CPUs run 4x slower during a
    ``"slowdown"`` window and, for the occupancy-style scenarios
    (``"cpu-load"``, ``"link-degraded"``), the equivalent stolen share
    ``1 - 1/severity`` (75% at severity 4).

    Parameters
    ----------
    scenario:
        One of ``"none"``, ``"slowdown"`` (transient CPU slowdown of one
        group), ``"dropout"`` (a group's processors effectively gone for a
        window), ``"cpu-load"`` (continuous bursty external CPU load on one
        group), ``"link-degraded"`` (inter-group link occupancy window),
        ``"mixed"`` (slowdown + link degradation + background CPU weather).
    group:
        Index of the targeted group (ignored by ``"link-degraded"``).
    start / duration:
        The fault window ``[start, start + duration)`` in simulated
        seconds (``"cpu-load"`` is continuous and ignores it).
    severity:
        Slowdown factor, ``> 1``.
    seed:
        Seed for the stochastic scenarios' load models.

    A NaN float field raises a ``ValueError`` that names it, and so does
    an infinite ``start``.  ``duration`` may be infinite: the window then
    never closes.
    """

    scenario: str = "none"
    group: int = 1
    start: float = 2.0
    duration: float = 6.0
    severity: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_floats(self)
        if self.scenario not in FAULT_SCENARIOS:
            raise ValueError(
                f"unknown fault scenario {self.scenario!r}; "
                f"expected one of {FAULT_SCENARIOS}"
            )
        if self.group < 0:
            raise ValueError("group must be >= 0")
        if math.isinf(self.start):
            raise ValueError(f"start must be finite, got {self.start!r}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.severity <= 1.0:
            raise ValueError(f"severity must be > 1, got {self.severity}")

    @property
    def end(self) -> float:
        """Close of the fault window: ``start + duration``."""
        return self.start + self.duration

    @property
    def stolen_share(self) -> float:
        """Occupancy equivalent of the slowdown factor: ``1 - 1/severity``."""
        return 1.0 - 1.0 / self.severity
