"""Workload trace record/replay and synthetic workload generators.

The subsystem decouples the expensive part of an experiment (the AMR
solver + clustering) from the part under study (the DLB schemes):

* :func:`record_run` runs one real experiment while capturing its
  workload signal -- per-substep grid workloads and regrid cluster boxes
  -- into a :class:`Trace` (optionally written as deterministic gzipped
  JSONL).
* :class:`TraceReplayRunner` / :func:`replay_trace` feed a trace back
  through the cluster simulator under *any* scheme / system / gamma /
  fault schedule, without the solver -- several times faster (see
  ``BENCH_replay.json``), deriving ghost and parent/child messages from
  the replayed hierarchy, and bit-for-bit identical to the recorded run
  when replayed under the recorded scheme + system.
* :mod:`repro.traces.synth` generates traces from parameterised
  synthetic workloads (``synth:hotspot``, ``synth:bursty``,
  ``synth:adversarial``) for stress cases the paper's applications
  don't reach.

See ``docs/TRACES.md`` for the file format and the replay-equivalence
contract.
"""

from .recorder import TraceRecorder, record_run
from .replay import (
    TraceReplayRunner,
    default_replay_steps,
    load_trace_source,
    replay_trace,
)
from .schema import (
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceFormatError,
    TraceReplayError,
    read_trace,
    trace_file_hash,
    write_trace,
)
from .synth import (
    AdversarialImbalance,
    BurstyRefinement,
    MovingHotspot,
    SyntheticWorkload,
    available_synth_workloads,
    generate_trace,
    make_synth_workload,
    parse_synth_source,
    register_synth_workload,
)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceFormatError",
    "TraceReplayError",
    "TraceRecorder",
    "TraceReplayRunner",
    "record_run",
    "replay_trace",
    "load_trace_source",
    "default_replay_steps",
    "read_trace",
    "write_trace",
    "trace_file_hash",
    "SyntheticWorkload",
    "MovingHotspot",
    "BurstyRefinement",
    "AdversarialImbalance",
    "register_synth_workload",
    "available_synth_workloads",
    "make_synth_workload",
    "parse_synth_source",
    "generate_trace",
]
