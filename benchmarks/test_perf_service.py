"""Serving-simulator benchmark: throughput floor + bit-for-bit determinism.

Two gates guard :mod:`repro.service` (see docs/SERVICE.md):

* **throughput** -- the event loop must simulate at least
  ``REPRO_SERVICE_MIN_REQS`` requests per wall-clock second (default
  50,000): serving "millions of simulated users" has to stay an
  interactive-scale experiment, not an overnight one;
* **determinism** -- the same config must produce the bit-identical
  service report (the sha256 of its canonical JSON) across repeated
  in-process runs *and* through the serving daemon's worker pool.  Any
  hidden RNG state, dict-ordering dependence or cross-process divergence
  breaks the hash equality here before it can corrupt a sweep.

Numbers land in ``BENCH_service.json`` at the repo root.  Environment
overrides for CI smoke runs:

* ``REPRO_SERVICE_DURATION`` -- simulated seconds (default 300)
* ``REPRO_SERVICE_MIN_REQS`` -- requests/sec wall-clock floor (default 50000)
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import threading
import time
from pathlib import Path

from repro.config import ServiceConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import format_table
from repro.daemon import ServeClient, ServeError, ServeServer
from repro.service import report_hash

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

DURATION = float(os.environ.get("REPRO_SERVICE_DURATION", "300"))
MIN_REQS_PER_SEC = float(os.environ.get("REPRO_SERVICE_MIN_REQS", "50000"))

#: the paper-default serving scenario: 32 shards x 2 replicas on 4+4 procs,
#: 2000 req/s saturation under flash-crowd arrivals, balancing every 10 s
SERVICE = ServiceConfig(duration_seconds=DURATION)
CONFIG = ExperimentConfig(procs_per_group=4, service=SERVICE)
SCHEME = "distributed"


@contextlib.contextmanager
def _running_server(tmp_path: Path):
    sock = str(tmp_path / "serve.sock")
    started: concurrent.futures.Future = concurrent.futures.Future()

    def body():
        async def amain():
            server = ServeServer(socket_path=sock, workers=2, queue_size=4,
                                 cache_dir=str(tmp_path / "serve_cache"))
            await server.start()
            started.set_result(server)
            await server.serve_until_shutdown()

        try:
            asyncio.run(amain())
        except BaseException as err:  # pragma: no cover - surfacing only
            if not started.done():
                started.set_exception(err)
            raise

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    started.result(timeout=30)
    try:
        yield ServeClient(socket_path=sock, timeout=600)
    finally:
        with contextlib.suppress(OSError, ServeError):
            ServeClient(socket_path=sock, timeout=30).shutdown(force=True)
        thread.join(timeout=120)


def _scenario(tmp_path: Path):
    t0 = time.perf_counter()
    first = run_experiment(CONFIG, SCHEME)
    first_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    second = run_experiment(CONFIG, SCHEME)
    second_s = time.perf_counter() - t0

    with _running_server(tmp_path) as client:
        t0 = time.perf_counter()
        job = client.submit(CONFIG, scheme=SCHEME)
        daemon_s = time.perf_counter() - t0
    daemon_report = job.raw_run["service"]

    svc = first.service
    hashes = {
        "in_process": report_hash(svc),
        "repeat": report_hash(second.service),
        "daemon": report_hash(daemon_report),
    }
    wall = min(first_s, second_s)
    return {
        "benchmark": "service-loop",
        "config": {
            "nshards": SERVICE.nshards,
            "replication": SERVICE.replication,
            "requests_per_second": SERVICE.requests_per_second,
            "duration_seconds": SERVICE.duration_seconds,
            "arrivals": SERVICE.arrivals,
            "router": SERVICE.router,
            "scheme": SCHEME,
            "procs_per_group": CONFIG.procs_per_group,
        },
        "cpu_count": os.cpu_count(),
        "simulated_requests": svc["total_requests"],
        "simulated_seconds": svc["duration"],
        "wall_seconds_first": first_s,
        "wall_seconds_repeat": second_s,
        "wall_seconds_daemon_round_trip": daemon_s,
        "requests_per_wall_second": svc["total_requests"] / wall,
        "p50_ms": svc["p50"] * 1e3,
        "p99_ms": svc["p99"] * 1e3,
        "slo_violations": svc["slo_violations"],
        "migrations": svc["migrations"],
        "migration_bytes": svc["migration_bytes"],
        "report_hashes": hashes,
        "deterministic": len(set(hashes.values())) == 1,
    }


def test_service_throughput_and_determinism(once, benchmark, tmp_path):
    record = once(benchmark, _scenario, tmp_path)

    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    rows = [
        ("in-process run", record["wall_seconds_first"],
         record["simulated_requests"] / record["wall_seconds_first"]),
        ("repeat run", record["wall_seconds_repeat"],
         record["simulated_requests"] / record["wall_seconds_repeat"]),
        ("daemon round trip", record["wall_seconds_daemon_round_trip"],
         record["simulated_requests"]
         / record["wall_seconds_daemon_round_trip"]),
    ]
    print()
    print(format_table(
        ["execution path", "wall-clock [s]", "simulated req/s"], rows,
        title=f"{record['simulated_requests']} requests over "
              f"{record['simulated_seconds']:.0f} simulated seconds, "
              f"p99 {record['p99_ms']:.1f}ms -> {BENCH_PATH.name}",
    ))

    assert record["deterministic"], (
        f"service report hashes diverged: {record['report_hashes']}"
    )
    assert record["requests_per_wall_second"] >= MIN_REQS_PER_SEC, (
        f"expected >= {MIN_REQS_PER_SEC:.0f} simulated requests per "
        f"wall-clock second, got {record['requests_per_wall_second']:.0f}"
    )
