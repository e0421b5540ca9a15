"""Per-layer spans recorded from outside the program.

The traced benchmark run wraps the public functions of each layer of
``repro`` in spans, kept as the program's own :class:`repro.obs.SpanRecord`
and exported with its Chrome-trace writer.  Each wrapper is installed where
the *caller* looks the name up (for example
``repro.runtime.runner.plan_regrid``, not ``repro.amr.regrid.plan_regrid``),
so nothing under ``src/`` changes and the untraced run pays nothing.

A layer's self time is its span's duration minus the time its direct child
spans cover; counts are read from each call's arguments and return value.
This module does not import ``repro`` at import time: the benchmark's parent
process reads the metric names from it without loading the program.
"""

from __future__ import annotations

import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

#: count name -> f(args, kwargs, return value); args include ``self`` for methods
Count = Tuple[str, Callable[[tuple, dict, Any], float]]


@dataclass(frozen=True)
class Layer:
    """One wrapped layer function.

    ``name`` prefixes the layer's metrics; ``targets`` are ``module:attr``
    or ``module:Class.attr`` paths at which callers resolve the function;
    ``counts`` become ``<name>.<count>`` metrics.
    """

    name: str
    targets: Tuple[str, ...]
    counts: Tuple[Count, ...] = ()


def _calls(args, kwargs, ret):
    return 1


def _comm_messages(args, kwargs, ret):
    return ret.local_messages + ret.remote_messages


def _comm_bytes(args, kwargs, ret):
    return ret.local_bytes + ret.remote_bytes


LAYERS: Tuple[Layer, ...] = (
    # amr: flagging, clustering and the regrid pipeline
    Layer("amr.assemble_flags", ("repro.amr.regrid:assemble_flags",)),
    Layer("amr.cluster_flags", ("repro.amr.regrid:cluster_flags",),
          (("boxes", lambda a, k, r: len(r)),)),
    Layer("amr.plan_regrid", ("repro.runtime.runner:plan_regrid",)),
    Layer("amr.apply_cluster_boxes",
          ("repro.runtime.runner:apply_cluster_boxes",
           "repro.traces.replay:apply_cluster_boxes"),
          (("grids", lambda a, k, r: len(r)),)),
    Layer("amr.sibling_pairs", ("repro.amr.hierarchy:GridHierarchy.sibling_pairs",),
          (("pairs", lambda a, k, r: len(r)),)),
    # core: the scheme hooks and the LPT placement primitive
    Layer("core.initial_distribution",
          ("repro.core.composed:ComposedScheme.initial_distribution",)),
    Layer("core.place_new_grids",
          ("repro.core.composed:ComposedScheme.place_new_grids",)),
    Layer("core.local_balance",
          ("repro.core.composed:ComposedScheme.local_balance",)),
    Layer("core.global_balance",
          ("repro.core.composed:ComposedScheme.global_balance",),
          (("calls", _calls),)),
    Layer("core.lpt_assign", ("repro.core.policies:lpt_assign",),
          (("calls", _calls),
           ("grids", lambda a, k, r: len(a[0])),
           ("grid_x_procs", lambda a, k, r: len(a[0]) * len(a[1])))),
    # distsys: the cluster simulator's phases
    Layer("distsys.run_compute",
          ("repro.distsys.simulator:ClusterSimulator.run_compute",)),
    Layer("distsys.run_comm",
          ("repro.distsys.simulator:ClusterSimulator.run_comm",),
          (("messages", _comm_messages), ("bytes", _comm_bytes))),
    Layer("distsys.probe_inter_link",
          ("repro.distsys.simulator:ClusterSimulator.probe_inter_link",),
          (("calls", _calls),)),
    # traces: synthetic trace generation (runs in set-up)
    Layer("traces.generate_trace", ("repro.traces.synth:generate_trace",)),
    # service: the serving simulator's per-tick stages
    Layer("service.arrivals",
          ("repro.service.arrivals:RequestArrivals.counts_for_tick",),
          (("requests", lambda a, k, r: int(r.sum())),)),
    Layer("service.route", ("repro.service.router:EwmaRouter.route_tick",)),
    Layer("service.histogram",
          ("repro.service.report:LatencyHistogram.observe_array",),
          (("samples", lambda a, k, r: len(a[1])),)),
    Layer("service.replica_matrix",
          ("repro.service.shards:ShardMap.replica_matrix",)),
    Layer("service.migration",
          ("repro.service.migration:MigrationEngine.balance",),
          (("moves", lambda a, k, r: r.migrations),)),
    Layer("service.loop", ("repro.service:simulate_service",)),
)

#: metrics that belong to no wrapped layer: time outside every layer, the
#: tracing cost, and two simulated outputs kept beside the host timings
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("unit.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("sim.makespan_s", "sim_s"),
    ("sim.p99_s", "sim_s"),
)

_COUNT_UNITS = {"bytes": "bytes"}


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out: List[Tuple[str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer.name}.self_s", "s"))
        for count, _ in layer.counts:
            out.append((f"{layer.name}.{count}", _COUNT_UNITS.get(count, "count")))
        out.append((f"{layer.name}.errors", "count"))
    out.extend(EXTRA_METRICS)
    return out


def _resolve(target: str) -> Tuple[Any, str]:
    """``module:attr`` / ``module:Class.attr`` -> (owner object, attr)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


class LayerTrace:
    """Records a span around every call to a :data:`LAYERS` target.

    ``with trace.installed(): ...`` patches the targets for the block;
    ``with trace.root("unit-0"): ...`` opens a root span (named ``setup``
    or ``unit``) whose label every span under it carries as its ``unit``
    attribute.  :meth:`take` returns the finished spans as
    :class:`repro.obs.SpanRecord`, so the program's exporters read them,
    and forgets them.

    Spans are kept as plain tuples while recording: ``repro.obs.Tracer``
    spends about 4 us per span, which on ``service-flash`` (~41k layer
    calls per unit, most of them histogram updates) adds 8-15% to the
    unit; this costs about a third of that.  Times are host
    ``perf_counter`` seconds since ``origin`` on both of the record's
    clocks, so a Chrome trace of the records shows host time.
    """

    def __init__(self, track: str, origin: float = 0.0) -> None:
        self.track = track
        self.origin = origin
        self._ids = itertools.count(1)
        #: open span ids; the bottom ``None`` is the parent of a root
        self._stack: List[Any] = [None]
        #: (name, span id, parent id, start, end, count values, error name)
        self._raw: List[tuple] = []
        self._labels: Dict[int, str] = {}

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        # the hot path: ~38k calls per service-flash unit, so no attribute
        # lookups, no per-call dicts, and the span id from a C counter
        name, clock, ids = layer.name, time.perf_counter, self._ids
        measures = tuple(measure for _, measure in layer.counts)
        raw, stack = self._raw, self._stack

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            values, error = (), None
            start = clock()
            try:
                ret = fn(*args, **kwargs)
                if measures:
                    values = tuple([m(args, kwargs, ret) for m in measures])
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                raw.append((name, span_id, parent, start, end, values, error))
            return ret

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Patch every target for the duration of the block."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    owner, attr = _resolve(target)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def root(self, unit: str) -> Iterator[None]:
        """A root span labelled ``unit``: ``setup``, or one timed unit."""
        span_id = next(self._ids)
        self._labels[span_id] = unit
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            name = "setup" if unit == "setup" else "unit"
            self._raw.append((name, span_id, None, start, end, (), None))

    def take(self) -> List:
        """The finished spans as ``SpanRecord``, in completion order."""
        from repro.obs import SpanRecord

        count_names = {layer.name: [c for c, _ in layer.counts] for layer in LAYERS}
        out = []
        label = ""
        # a root completes after every span under it: walk backwards so
        # each span meets its root's label first
        for name, span_id, parent, start, end, values, error in reversed(self._raw):
            if parent is None:
                label = self._labels.pop(span_id, "")
            attrs = {"unit": label, **dict(zip(count_names.get(name, ()), values))}
            if error is not None:
                attrs["error"] = error
            start, end = start - self.origin, end - self.origin
            out.append(SpanRecord(name=name, span_id=span_id, parent_id=parent,
                                  track=self.track, sim_start=start, sim_end=end,
                                  wall_start=start, wall_end=end, attrs=attrs))
        self._raw.clear()
        out.reverse()
        return out


def self_times(records: Sequence) -> Dict[int, float]:
    """span id -> host self time: the span's duration minus the durations
    of its direct children."""
    covered: Dict[int, float] = {}
    for r in records:
        if r.parent_id is not None:
            covered[r.parent_id] = covered.get(r.parent_id, 0.0) + r.wall_elapsed
    return {r.span_id: r.wall_elapsed - covered.get(r.span_id, 0.0) for r in records}


def layer_metrics(records: Iterable) -> Dict[str, float]:
    """Aggregate layer spans into ``<layer>.self_s`` / counts / errors.

    ``records`` are the spans of one or more root spans (a set-up or a
    timed unit), roots included; root spans feed no layer metric.  Every
    declared layer metric is present, zero where its layer did not run.
    """
    records = list(records)
    selfs = self_times(records)
    extra = {name for name, _ in EXTRA_METRICS}
    out = {name: 0 for name, _ in per_layer_metrics() if name not in extra}
    by_name = {layer.name: layer for layer in LAYERS}
    for r in records:
        layer = by_name.get(r.name)
        if layer is None:
            continue
        out[f"{r.name}.self_s"] += selfs[r.span_id]
        out[f"{r.name}.errors"] += int("error" in r.attrs)
        for count, _ in layer.counts:
            out[f"{r.name}.{count}"] += r.attrs.get(count, 0)
    return out
