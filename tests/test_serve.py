"""Tests for the serving daemon: protocol, queue, scheduler behavior, and
the end-to-end determinism / backpressure / cancellation / shutdown
contracts of ``repro serve``.

The end-to-end tests run a real :class:`ServeServer` on its own event
loop in a background thread (worker processes and all) and drive it with
the blocking :class:`ServeClient` over a per-test unix socket.  Signal
handling is exercised in a subprocess -- see ``TestSignals``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.experiment import (
    ExperimentConfig,
    execute_scheme,
    resolve_trace_config,
)
from repro.harness.persist import run_result_to_dict
from repro.config import TraceParams
from repro.daemon import (
    AsyncServeClient,
    Job,
    JobNotFoundError,
    JobQueue,
    JobSpec,
    MalformedRequestError,
    QueueFullError,
    ServeClient,
    ServeError,
    ServeServer,
    ShuttingDownError,
    job_track,
)
from repro.daemon.protocol import (
    decode_message,
    encode_message,
    error_payload,
    raise_for_error,
)
from repro.daemon.wire import (
    config_from_wire,
    config_to_wire,
    spec_from_payload,
    spec_to_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: a fast job: 2-step synthetic-trace replay, ~50ms of simulator work
REPLAY_CFG = ExperimentConfig(procs_per_group=2, steps=2,
                              trace=TraceParams(source="synth:hotspot"))

#: a slower job (full AMR solver) for catching mid-run states
SOLVER_CFG = ExperimentConfig(procs_per_group=2, steps=4)


def expected_run_dict(cfg, scheme="distributed"):
    """What the daemon must stream: the in-process canonical result."""
    return run_result_to_dict(execute_scheme(resolve_trace_config(cfg), scheme))


# ---------------------------------------------------------------------------
# protocol + wire units (no daemon)
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_message_roundtrip(self):
        msg = {"op": "submit", "n": 3, "nested": {"a": [1, 2]}}
        line = encode_message(msg)
        assert line.endswith(b"\n")
        assert decode_message(line) == msg

    def test_decode_garbage_is_malformed(self):
        with pytest.raises(MalformedRequestError):
            decode_message(b"{not json\n")
        with pytest.raises(MalformedRequestError):
            decode_message(b'"a bare string"\n')

    def test_error_payload_roundtrip(self):
        err = QueueFullError("queue is full")
        payload = error_payload(err)
        assert payload["code"] == "queue_full"
        with pytest.raises(QueueFullError, match="queue is full"):
            raise_for_error(payload)

    def test_unknown_code_raises_base_error(self):
        with pytest.raises(ServeError):
            raise_for_error({"code": "mystery", "message": "?"})


class TestWire:
    def test_config_roundtrip_with_trace(self):
        wire = config_to_wire(REPLAY_CFG)
        json.dumps(wire)  # must be JSON-safe
        assert config_from_wire(wire) == REPLAY_CFG

    def test_spec_roundtrip(self):
        spec = JobSpec(kind="sweep", config=SOLVER_CFG, scheme="parallel",
                       priority=2, use_cache=False, procs=(1, 2),
                       schemes=("parallel", "distributed"))
        back = spec_from_payload(spec_to_payload(spec))
        assert back == spec

    @pytest.mark.parametrize("mutate", [
        lambda p: p.__setitem__("kind", "nonsense"),
        lambda p: p.__setitem__("scheme", "no-such-scheme"),
        lambda p: p.__setitem__("config", "not a dict"),
        lambda p: p.__setitem__("config", {"procs_per_group": -3}),
        lambda p: p.__setitem__("priority", "high"),
    ])
    def test_bad_payloads_are_malformed(self, mutate):
        payload = spec_to_payload(JobSpec(kind="run", config=REPLAY_CFG))
        mutate(payload)
        with pytest.raises(MalformedRequestError):
            spec_from_payload(payload)

    def test_sweep_needs_positive_procs(self):
        payload = spec_to_payload(
            JobSpec(kind="sweep", config=SOLVER_CFG, procs=(0,),
                    schemes=("distributed",)))
        with pytest.raises(MalformedRequestError):
            spec_from_payload(payload)

    def test_sweep_rejects_system_spec(self):
        """A sweep varies procs_per_group, which a spec ignores: the job
        would run the same system once per entry of ``procs``."""
        from dataclasses import replace

        from repro.distsys import multi_site_spec

        cfg = replace(SOLVER_CFG, system=multi_site_spec([2, 2, 2]))
        payload = spec_to_payload(
            JobSpec(kind="sweep", config=cfg, procs=(1, 2),
                    schemes=("distributed",)))
        with pytest.raises(MalformedRequestError, match="system spec"):
            spec_from_payload(payload)


class TestJobQueue:
    def mk(self, client, priority=0, seq=0):
        return Job(job_id=f"j{seq}", client=client,
                   spec=JobSpec(config=REPLAY_CFG, priority=priority), seq=seq)

    def test_priority_then_fairness_then_seq(self):
        q = JobQueue(maxsize=10)
        a1 = self.mk("a", priority=1, seq=1)
        a2 = self.mk("a", priority=0, seq=2)
        b1 = self.mk("b", priority=0, seq=3)
        a3 = self.mk("a", priority=0, seq=4)
        for j in (a1, a2, b1, a3):
            q.push(j)
        # priority 0 first; a entered the fairness order first, then the
        # clients alternate; the priority-1 job goes last
        assert [q.pop_next() for _ in range(4)] == [a2, b1, a3, a1]

    def test_fairness_one_chatty_client_cannot_starve(self):
        q = JobQueue(maxsize=10)
        chatty = [self.mk("chatty", seq=i) for i in range(1, 5)]
        quiet = self.mk("quiet", seq=5)
        for j in chatty + [quiet]:
            q.push(j)
        order = [q.pop_next() for _ in range(5)]
        # the quiet client is served second, not after all four chatty jobs
        assert order[1] is quiet

    def test_bounded_push_raises(self):
        q = JobQueue(maxsize=2)
        q.push(self.mk("a", seq=1))
        q.push(self.mk("a", seq=2))
        assert not q.can_accept()
        with pytest.raises(QueueFullError):
            q.push(self.mk("a", seq=3))

    def test_can_accept_batch(self):
        q = JobQueue(maxsize=3)
        q.push(self.mk("a", seq=1))
        assert q.can_accept(2)
        assert not q.can_accept(3)

    def test_remove_and_drain(self):
        q = JobQueue(maxsize=4)
        j1, j2 = self.mk("a", seq=1), self.mk("a", seq=2)
        q.push(j1)
        q.push(j2)
        assert q.remove(j1)
        assert not q.remove(j1)
        assert q.drain() == [j2]
        assert len(q) == 0


# ---------------------------------------------------------------------------
# end-to-end: a real daemon on a background thread
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(tmp_path, workers=2, queue_size=8, use_cache=True):
    sock = str(tmp_path / "serve.sock")
    started: concurrent.futures.Future = concurrent.futures.Future()

    def body():
        async def amain():
            server = ServeServer(socket_path=sock, workers=workers,
                                 queue_size=queue_size,
                                 cache_dir=str(tmp_path / "serve_cache"),
                                 use_cache=use_cache)
            await server.start()
            # not the main thread: must decline gracefully
            assert server.install_signal_handlers() is False
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
    server = started.result(timeout=30)
    client = ServeClient(socket_path=sock, timeout=300)
    try:
        yield client, server
    finally:
        with contextlib.suppress(OSError, ServeError):
            ServeClient(socket_path=sock, timeout=30).shutdown(force=True)
        thread.join(timeout=60)
        assert not thread.is_alive(), "daemon thread failed to drain"


class TestDaemonRoundTrip:
    def test_replay_job_matches_in_process(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            res = client.submit(REPLAY_CFG, scheme="distributed")
        assert res.status == "done" and res.ok and not res.cached
        assert res.raw_run == expected_run_dict(REPLAY_CFG)
        # the reconstructed RunResult matches any persisted result
        assert res.result().total_time == res.raw_run["total_time"]
        assert [e["event"] for e in res.events] == ["started"]

    def test_four_jobs_in_flight_deterministic(self, tmp_path):
        # distinct (config, scheme) pairs so nothing dedups via the cache;
        # each runs for a few hundred ms so none can finish during the
        # submit loop and the in-flight assertion below is not racy
        jobs = [
            (ExperimentConfig(procs_per_group=p, steps=3), scheme)
            for p, scheme in ((4, "distributed"), (6, "distributed"),
                              (6, "parallel"), (8, "distributed"))
        ]
        with running_server(tmp_path, workers=4) as (client, _):
            ids = [client.submit(cfg, scheme=s, wait=False)
                   for cfg, s in jobs]
            counts = client.state()["jobs"]
            in_flight = counts.get("queued", 0) + counts.get("running", 0)
            assert in_flight >= 4
            results = [client.wait(job_id) for job_id in ids]
        for (cfg, scheme), res in zip(jobs, results):
            assert res.status == "done", res.error
            assert res.raw_run == expected_run_dict(cfg, scheme)

    def test_cache_hit_bit_identical_without_worker_slot(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            fresh = client.submit(REPLAY_CFG)
            hit = client.submit(REPLAY_CFG)
            metrics = client.metrics_text()
        assert not fresh.cached and hit.cached
        assert hit.raw_run == fresh.raw_run == expected_run_dict(REPLAY_CFG)
        # the hit never started a worker: no "started" event, one execution
        assert hit.events == []
        assert "serve_cache_hits_total 1" in metrics
        assert "serve_jobs_executed_total 1" in metrics

    def test_wait_replays_history_after_completion(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            job_id = client.submit(REPLAY_CFG, wait=False)
            first = client.wait(job_id)
            again = client.wait(job_id)
        assert first.status == again.status == "done"
        assert first.raw_run == again.raw_run
        assert [e["event"] for e in again.events] == ["started"]

    def test_sweep_job_streams_partials(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            res = client.submit_sweep(REPLAY_CFG, procs=[1, 2],
                                      schemes=["distributed"])
        assert res.status == "done"
        assert [(r["procs"], r["scheme"]) for r in res.runs] == [
            (1, "distributed"), (2, "distributed")]
        partials = [e for e in res.events if e["event"] == "partial"]
        assert len(partials) == 2
        assert {p["total"] for p in partials} == {2}
        for r in res.runs:
            cfg = ExperimentConfig(
                procs_per_group=r["procs"], steps=REPLAY_CFG.steps,
                trace=REPLAY_CFG.trace)
            assert r["run"] == expected_run_dict(cfg, r["scheme"])

    def test_sequential_pseudo_scheme_job(self, tmp_path):
        cfg = ExperimentConfig(procs_per_group=1, steps=2)
        with running_server(tmp_path) as (client, _):
            res = client.submit(cfg, scheme="sequential")
        assert res.status == "done"
        assert res.raw_run == expected_run_dict(cfg, "sequential")

    def test_async_client_same_result(self, tmp_path):
        with running_server(tmp_path) as (client, server):
            async def go():
                aclient = AsyncServeClient(socket_path=client.socket_path)
                return await aclient.submit(REPLAY_CFG)

            res = asyncio.run(go())
        assert res.status == "done"
        assert res.raw_run == expected_run_dict(REPLAY_CFG)


class TestBackpressureAndFailure:
    def test_queue_full_typed_rejection(self, tmp_path):
        with running_server(tmp_path, workers=1, queue_size=2) as (client, _):
            accepted = []
            with pytest.raises(QueueFullError) as excinfo:
                for _ in range(8):
                    accepted.append(client.submit(SOLVER_CFG, wait=False,
                                                  use_cache=False))
            assert excinfo.value.code == "queue_full"
            # 1 running + 2 queued fit before the bounded queue pushed back
            assert len(accepted) == 3
            # the daemon keeps serving after the rejection
            assert client.state()["queue"]["capacity"] == 2

    def test_malformed_request_does_not_kill_server(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(30)
                raw.connect(client.socket_path)
                stream = raw.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                reply = decode_message(stream.readline())
                assert reply["event"] == "error"
                assert reply["error"]["code"] == "malformed"
                # same connection still works afterwards
                stream.write(encode_message({"op": "state"}))
                stream.flush()
                assert decode_message(stream.readline())["event"] == "state"
            # malformed job payloads get the typed rejection, server survives
            with pytest.raises(MalformedRequestError):
                client.submit_spec(JobSpec(kind="run", config=REPLAY_CFG,
                                           scheme="no-such-scheme"))
            assert client.submit(REPLAY_CFG).status == "done"

    def test_unknown_op_and_job_id(self, tmp_path):
        with running_server(tmp_path) as (client, _):
            with pytest.raises(JobNotFoundError):
                client.wait("j9999")
            with pytest.raises(JobNotFoundError):
                client.cancel("j9999")
            with pytest.raises(MalformedRequestError):
                client._one({"op": "frobnicate"}, "never")

    def test_failing_job_reports_failed(self, tmp_path):
        bad = ExperimentConfig(
            steps=2, trace=TraceParams(source=str(tmp_path / "missing.gz")))
        with running_server(tmp_path) as (client, _):
            res = client.submit(bad, use_cache=False)
            assert res.status == "failed"
            assert res.error["code"] == "failed"
            with pytest.raises(ServeError):
                res.raise_for_status()
            # the worker slot is free again: a good job still completes
            assert client.submit(REPLAY_CFG).status == "done"

    def test_cancel_queued_job(self, tmp_path):
        with running_server(tmp_path, workers=1, queue_size=4) as (client, _):
            running = client.submit(SOLVER_CFG, wait=False, use_cache=False)
            queued = client.submit(SOLVER_CFG, wait=False, use_cache=False)
            status = client.cancel(queued)
            assert status in ("cancelled", "cancelling")
            res = client.wait(queued)
            assert res.status == "cancelled"
            assert client.wait(running).status == "done"

    def test_cancel_mid_run_frees_worker_slot(self, tmp_path):
        slow = ExperimentConfig(procs_per_group=4, steps=8)
        with running_server(tmp_path, workers=1) as (client, _):
            job_id = client.submit(slow, wait=False, use_cache=False)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                listed = {j["job_id"]: j for j in client.jobs()}
                if listed[job_id]["status"] == "running":
                    break
                time.sleep(0.05)
            else:
                pytest.fail("job never started running")
            assert client.cancel(job_id) == "cancelling"
            res = client.wait(job_id)
            assert res.status == "cancelled"
            assert res.raw_run is None
            # the freed slot runs the next job to completion
            follow = client.submit(REPLAY_CFG, use_cache=False)
            assert follow.status == "done"
            metrics = client.metrics_text()
            assert 'serve_jobs_completed_total{status="cancelled"} 1' in metrics


class TestShutdown:
    def test_draining_rejects_with_typed_error(self, tmp_path):
        with running_server(tmp_path) as (client, server):
            # flip the drain flag only (no shutdown): submissions must get
            # the 503-style typed rejection while old jobs stay queryable
            done = client.submit(REPLAY_CFG)
            server.scheduler.state.draining = True
            with pytest.raises(ShuttingDownError):
                client.submit(REPLAY_CFG)
            assert client.wait(done.job_id).status == "done"
            server.scheduler.state.draining = False
            assert client.submit(REPLAY_CFG).status == "done"

    def test_shutdown_op_drains_in_flight_jobs(self, tmp_path):
        with running_server(tmp_path, workers=2) as (client, server):
            ids = [client.submit(SOLVER_CFG, wait=False, use_cache=False),
                   client.submit(ExperimentConfig(steps=3), wait=False,
                                 use_cache=False)]
            client.shutdown()  # graceful: admitted jobs must finish
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and server._server is not None:
                time.sleep(0.05)
            for job_id in ids:
                assert server.state.get(job_id).status == "done"

    def test_forced_shutdown_cancels(self, tmp_path):
        slow = ExperimentConfig(procs_per_group=4, steps=8)
        with running_server(tmp_path, workers=1, queue_size=4) as (client, server):
            ids = [client.submit(slow, wait=False, use_cache=False)
                   for _ in range(3)]
            client.shutdown(force=True)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and server._server is not None:
                time.sleep(0.05)
            statuses = [server.state.get(job_id).status for job_id in ids]
            assert all(s == "cancelled" for s in statuses), statuses


class TestPerJobTraceTracks:
    def test_two_traced_jobs_get_distinct_tracks(self, tmp_path):
        with running_server(tmp_path, workers=2) as (client, _):
            ids = [
                client.submit(REPLAY_CFG, trace_spans=True, wait=False),
                client.submit(ExperimentConfig(procs_per_group=1, steps=2),
                              trace_spans=True, wait=False),
            ]
            for job_id in ids:
                assert client.wait(job_id).status == "done"
            trace = client.spans()
        tracks = {e["args"]["name"] for e in trace["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "process_name"}
        assert tracks == {job_track(ids[0]), job_track(ids[1])}
        assert sorted(trace["otherData"]["jobs"]) == sorted(ids)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # two jobs -> two distinct pids, every span belongs to one of them
        assert len({e["pid"] for e in spans}) == 2


# ---------------------------------------------------------------------------
# real signals, real process
# ---------------------------------------------------------------------------


def _spawn_daemon(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    sock = str(tmp_path / "daemon.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, *extra],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    assert "listening on unix socket" in line, line
    return proc, sock


class TestSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            client = ServeClient(socket_path=sock, timeout=120)
            # cold cache: guaranteed miss, and the worker stores the result
            job_id = client.submit(SOLVER_CFG, wait=False)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert "drained, exiting" in out
            assert not Path(sock).exists()
            assert "Traceback" not in out
            # the in-flight job was finished, not dropped: the worker wrote
            # its result into the shared cache before the daemon exited
            assert job_id
            assert list((tmp_path / "cache").glob("*/*.json"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_second_signal_force_cancels(self, tmp_path):
        proc, sock = _spawn_daemon(tmp_path, "--workers", "1")
        try:
            client = ServeClient(socket_path=sock, timeout=60)
            for _ in range(3):
                client.submit(ExperimentConfig(procs_per_group=4, steps=8),
                              wait=False, use_cache=False)
            proc.send_signal(signal.SIGINT)
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained, exiting" in out
            assert "Traceback" not in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
