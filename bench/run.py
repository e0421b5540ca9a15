"""The repo benchmark: timed, checked runs of the four workloads.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python bench/run.py --traced                 # same as --trace 1
    python bench/run.py --compare A.jsonl B.jsonl
    python bench/run.py --write-pins

The loop is closed: one client, and each unit starts only when the previous
one has finished.  This process imports nothing from ``repro``; it starts
one fresh ``session.py`` process at a time (single-threaded BLAS, fixed
hash seed) and aggregates what the sessions report.

Untraced (``--trace 0``): sessions of ``S / 5`` seconds each, the workload
order rotating each round, until a workload has spent ``S`` seconds in at
least three sessions.  Reports the end-to-end metrics of ``BENCHMARK.json``
as medians with their sample counts.

Traced (``--trace 1``): one session per workload, measuring for ``S``
seconds, reports the per-layer metrics and writes
``bench/out/trace-<workload>.json``.

Every unit's result digest must equal the pin in ``bench/pins.json`` for
its seed; unpinned seeds (and ``--quick`` runs) require every unit of the
run to agree.  With ``--workload``, the last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
appends the run's full record (git rev, CPU count, versions, seed, sample
counts, quartiles) to a JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"

#: an untraced session (fresh process) measures for this share of the run;
#: cheap workloads get up to five sessions, so up to five set-up and cold
#: samples, while a 4 s unit still fits a cold and a warm unit per session
SESSION_SHARE = 0.2
#: fewest untraced sessions per workload per run
MIN_SESSIONS = 3
#: seeds ``--write-pins`` pins
PINNED_SEEDS = range(10)
#: a run stops waiting for one workload's sessions after this many seconds
DEADLINE_S = 170.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SessionError(RuntimeError):
    """A session process failed to start or to report."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_session(workload: str, seed: int, budget: float, *, traced: bool = False,
                quick: bool = False, trace_out: Optional[Path] = None,
                timeout: float = DEADLINE_S) -> dict:
    """Run one ``session.py`` process to completion and return its report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in _THREAD_VARS})
    cmd = [sys.executable, str(HERE / "session.py"), workload,
           "--seed", str(seed), "--budget", repr(budget)]
    if traced:
        cmd.append("--traced")
    if quick:
        cmd.append("--quick")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise SessionError(f"{workload}: session exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise SessionError(f"{workload}: session exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def expected_digest(workload: str, seed: int, digests: Sequence[Optional[str]],
                    quick: bool) -> Optional[str]:
    """The pinned digest, or for unpinned runs the most common one."""
    if not quick and PINS_PATH.exists():
        pinned = json.loads(PINS_PATH.read_text()).get(workload, {}).get(str(seed))
        if pinned is not None:
            return pinned
    ok = Counter(d for d in digests if d is not None)
    return ok.most_common(1)[0][0] if ok else None


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def summarise(workload: str, seed: int, sessions: List[dict], *, traced: bool,
              quick: bool, seconds: float, spec: dict) -> dict:
    """One workload's run record from its sessions' reports."""
    digests = [d for s in sessions for d in s["digests"]]
    expected = expected_digest(workload, seed, digests, quick)
    failed = sum(d is None or d != expected for d in digests)
    if traced:
        values = sessions[0]["layers"]
        declared = spec["per_layer"]
        samples = {"traced_units": 1}
        quartiles: Dict[str, List[float]] = {}
    else:
        warm = [w for s in sessions for w in s["wall_s"]]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in sessions),
            "first_run_s": statistics.median(s["first_run_s"] for s in sessions),
            "wall_s": statistics.median(warm),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        }
        declared = spec["end_to_end"]
        samples = {"setup_s": len(sessions), "first_run_s": len(sessions),
                   "wall_s": len(warm), "peak_rss_mb": len(sessions)}
        quartiles = {"wall_s": _quartiles(warm)}
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SessionError(f"{workload}: measured metrics {sorted(values)} "
                           f"differ from BENCHMARK.json {sorted(names)}")
    return {
        "workload": workload, "seed": seed, "traced": traced, "quick": quick,
        "seconds": seconds, "rev": _git_rev(), "cpu_count": os.cpu_count(),
        "python": sessions[0]["python"], "numpy": sessions[0]["numpy"],
        "samples": samples, "quartiles": quartiles,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "attempted": len(digests), "failed": failed,
        "correct": failed == 0 and len(digests) > 0,
        "errors": [e for s in sessions for e in s["errors"]][:3],
    }


def measure(names: Sequence[str], seed: int, seconds: float, *, traced: bool,
            quick: bool, spec: dict) -> List[dict]:
    """Run the sessions of ``names``, rotating the workload order each
    round, until each workload has spent ``seconds`` in at least
    ``MIN_SESSIONS`` sessions (one session when traced); one record each."""
    deadline = time.monotonic() + DEADLINE_S * len(names)
    reports: Dict[str, List[dict]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    budget = seconds if traced else seconds * SESSION_SHARE

    def wanted(name: str) -> bool:
        if traced:
            return not reports[name]
        return len(reports[name]) < MIN_SESSIONS or spent[name] < seconds

    rounds = 0
    while any(wanted(name) for name in names):
        k = rounds % len(names)
        rounds += 1
        for name in list(names[k:]) + list(names[:k]):
            if not wanted(name):
                continue
            trace_out = OUT_DIR / f"trace-{name}.json" if traced else None
            t0 = time.monotonic()
            reports[name].append(run_session(
                name, seed, budget, traced=traced, quick=quick,
                trace_out=trace_out, timeout=deadline - t0))
            spent[name] += time.monotonic() - t0
    return [summarise(name, seed, reports[name], traced=traced, quick=quick,
                      seconds=seconds, spec=spec) for name in names]


def print_record(rec: dict) -> None:
    mode = "traced" if rec["traced"] else "untraced"
    print(f"{rec['workload']} (seed {rec['seed']}, {mode}): "
          f"{rec['attempted']} units, {rec['failed']} failed")
    for name, m in rec["metrics"].items():
        n = rec["samples"].get(name, "")
        q = rec["quartiles"].get(name)
        extra = f"  q1 {q[0]:.4g}  q3 {q[1]:.4g}" if q else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} "
              f"{'n=' + str(n) if n else ''}{extra}")
    for err in rec["errors"]:
        print(err, file=sys.stderr)


# ---------------------------------------------------------------- compare


def _verdict(a: List[float], b: List[float], bound: Optional[float],
             lower_better: bool) -> str:
    """Classify B against A (choosing-metrics sections 6 and 8).

    Regressed: B's median is worse by more than the bound.  Improved: B
    wins 9 in 10 of the runs paired in file order and its median is better
    by more than A's quartile spread.  When A's spread exceeds the bound,
    only complete separation of the two sides decides; otherwise the row
    is unresolved.  Metrics without a bound (per-layer) only say whether
    the medians moved.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    if bound is None or ma == 0.0:
        return "unchanged" if mb == ma else "changed"
    sign = 1.0 if lower_better else -1.0
    worse = sign * (mb - ma) / abs(ma)  # > 0: B is worse
    q1, q3 = _quartiles(a)
    spread = (q3 - q1) / abs(ma)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if -worse > spread and wins >= 0.9 * min(len(a), len(b)):
        return "improved"
    return "unchanged"


def _summary(values: Sequence[float]) -> str:
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(path_a: Path, path_b: Path, spec: dict) -> None:
    """Print both sides' medians and quartiles per workload and metric."""
    def load(path: Path) -> Dict[tuple, List[dict]]:
        groups: Dict[tuple, List[dict]] = {}
        for line in path.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["traced"]), []).append(rec)
        return groups

    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload / metric':<52} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'bound':>6}  verdict")
    for key in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[key], side_b[key]
        print(f"{key[0]}{' (traced)' if key[1] else ''}: "
              f"{len(ra)} vs {len(rb)} runs, failed units "
              f"{sum(r['failed'] for r in ra)} vs {sum(r['failed'] for r in rb)}")
        for name in ra[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not a or not b:
                continue
            d = defs.get(name, {})
            bound = d.get("bound")
            verdict = _verdict(a, b, bound, d.get("better", "lower") == "lower")
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<50} {_summary(a):>32} {_summary(b):>32} "
                  f"{shown:>6}  {verdict}")


def write_pins() -> None:
    """Pin every workload's digest for each of ``PINNED_SEEDS``."""
    pins: Dict[str, Dict[str, str]] = {}
    for name in [w["name"] for w in load_spec()["workloads"]]:
        pins[name] = {}
        for seed in PINNED_SEEDS:
            report = run_session(name, seed, 0.0)
            digests = set(report["digests"])
            if len(digests) != 1 or None in digests:
                raise SessionError(f"{name} seed {seed}: units disagree: {digests}")
            pins[name][str(seed)] = digests.pop()
            print(f"{name} seed {seed}: {pins[name][str(seed)]}")
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, rotating)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes (self-tests)")
    parser.add_argument("--out", type=Path, help="append run records (JSON lines)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.write_pins:
            write_pins()
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                parser.error(f"unknown workload {args.workload!r}; one of {names}")
            names = [args.workload]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        records = measure(names, args.seed, seconds, traced=bool(args.trace),
                          quick=args.quick, spec=spec)
    except (SessionError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print_record(rec)
    if args.out is not None:
        with args.out.open("a") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if args.workload is not None:
        rec = records[0]
        print(json.dumps({key: rec[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
