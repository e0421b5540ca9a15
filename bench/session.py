"""One benchmark session, run by ``run.py`` in a fresh process.

    python bench/session.py WORKLOAD --seed N --budget SECONDS [--traced]
                            [--quick] [--trace-out PATH]

An untraced session times, in order: importing ``repro`` and building the
inputs (``setup_s``), one cold unit (``first_run_s``), then warm units until
``--budget`` seconds have passed since the session started (at least one).

A traced session builds the inputs with the layer wrappers installed, runs
one untimed warm-up unit, then alternates untraced and traced units until
the budget is spent (at least one of each).  It reports the layer metrics
of the last traced unit and writes that unit's spans, with the set-up's, to
``--trace-out`` as a Chrome trace.  ``trace.overhead_frac`` compares the
median traced and untraced unit.

The last line of standard output is one JSON object; every unit's digest
(or its error) is in it, in the order the units ran.  The exit code is
non-zero only when the session cannot start, e.g. ``repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _timed(workload, inputs, out, span=None):
    """Run one unit, inside ``span`` if given; append its digest or error
    to ``out``; return its wall time and result (``None`` on error)."""
    import workloads

    t0 = time.perf_counter()
    try:
        with span if span is not None else nullcontext():
            result = workload.unit(inputs)
        elapsed = time.perf_counter() - t0
        workloads.check_result(result)
        out["digests"].append(workloads.digest(result))
    except Exception:
        elapsed = time.perf_counter() - t0
        out["digests"].append(None)
        out["errors"].append(traceback.format_exc(limit=3))
        return elapsed, None
    return elapsed, result


def _untraced(args, start, workload, inputs, out):
    out["first_run_s"], _ = _timed(workload, inputs, out)
    out["wall_s"] = []
    while not out["wall_s"] or time.perf_counter() - start < args.budget:
        out["wall_s"].append(_timed(workload, inputs, out)[0])


def _traced(args, start, recorder, setup_spans, workload, inputs, out):
    import layers
    import workloads
    from repro.obs import write_chrome_trace

    _timed(workload, inputs, out)  # warm-up: caches and lazy imports
    plain, traced = [], []
    while not traced or time.perf_counter() - start < args.budget:
        plain.append(_timed(workload, inputs, out)[0])
        with recorder.installed():
            elapsed, result = _timed(workload, inputs, out,
                                     recorder.root(f"unit-{len(traced)}"))
        traced.append(elapsed)
        unit_spans = recorder.take()  # the last traced unit is the one reported
    root = next(r for r in unit_spans if r.parent_id is None)
    metrics = layers.layer_metrics(setup_spans + unit_spans)
    metrics["unit.self_s"] = layers.self_times(unit_spans)[root.span_id]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.spans"] = len(unit_spans) - 1
    if result is not None:
        metrics.update(workloads.sim_metrics(result))
    else:
        metrics.update({"sim.makespan_s": 0.0, "sim.p99_s": 0.0})
    out["layers"] = metrics
    out["traced_unit_s"] = root.wall_elapsed
    if args.trace_out:
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(setup_spans + unit_spans, path,
                           metadata={"clock": "host-seconds",
                                     "workload": args.workload, "seed": args.seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import numpy
    import workloads  # imports repro

    workloads.check_source(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    out = {"digests": [], "errors": [], "python": sys.version.split()[0],
           "numpy": numpy.__version__}
    if args.traced:
        import layers

        recorder = layers.LayerTrace(track=args.workload, origin=start)
        with recorder.installed(), recorder.root("setup"):
            inputs = workload.setup(args.seed, args.quick)
        _traced(args, start, recorder, recorder.take(), workload, inputs, out)
    else:
        inputs = workload.setup(args.seed, args.quick)
        out["setup_s"] = time.perf_counter() - start
        _untraced(args, start, workload, inputs, out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
