"""Admission control: the queue, the worker pool, and the cache fast path.

The :class:`Scheduler` runs entirely on the daemon's event loop.  Jobs
are admitted from the :class:`~repro.daemon.jobs.JobQueue` into a bounded
pool of worker *processes* (one per running job, so cancellation can
terminate mid-run work and a crashing run never touches the daemon).
Warm cache hits complete at submission time without ever occupying a
worker slot or a queue place -- the daemon's analogue of the executor's
cache-first policy.

Concurrency model: all bookkeeping happens on the loop; the only blocking
calls (``Connection.recv`` / ``Process.join``) run in
``asyncio.to_thread`` inside per-job watcher tasks, so the pool size
bounds both processes and watcher threads.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from .jobs import Job, JobQueue, JobSpec
from .protocol import QueueFullError, ShuttingDownError
from .state import ServerState
from .worker import run_job_in_child

__all__ = ["Scheduler"]


class Scheduler:
    """Admit jobs to workers; own every job-state transition."""

    def __init__(
        self,
        state: ServerState,
        workers: int = 2,
        queue_size: int = 16,
        cache=None,
        cache_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.state = state
        self.queue = JobQueue(queue_size)
        self.workers = workers
        #: ResultCache consulted at submission (None: no fast path) and the
        #: directory worker children store fresh results into
        self.cache = cache
        self.cache_dir = cache_dir
        self._running: Dict[str, Tuple[Any, Any]] = {}  # job_id -> (proc, conn)
        self._watchers: Dict[str, asyncio.Task] = {}
        self._seq = 0
        #: set once a force-drain decided nothing more may start
        self._stopped = False

    # -- submission --------------------------------------------------------

    async def submit(self, spec: JobSpec, client: str) -> Job:
        """Admit one job (or a sweep fan-out); returns the registered job.

        Raises :class:`ShuttingDownError` while draining and
        :class:`QueueFullError` when the bounded queue cannot take the
        submission (for sweeps: all non-cached children, atomically).
        """
        if self.state.draining:
            self.state.metrics.counter("serve.jobs_rejected",
                                       reason="shutting_down").inc()
            raise ShuttingDownError("server is draining; not accepting jobs")
        if spec.kind == "sweep":
            return await self._submit_sweep(spec, client)
        cached = self._cache_lookup(spec)
        if cached is None and not self.queue.can_accept():
            self.state.metrics.counter("serve.jobs_rejected",
                                       reason="queue_full").inc()
            raise QueueFullError(
                f"job queue is full ({self.queue.maxsize} queued); retry later"
            )
        job = self._register(spec, client)
        if cached is not None:
            await self._complete_cached(job, cached)
        else:
            self._enqueue(job)
            self._maybe_start()
        return job

    async def _submit_sweep(self, spec: JobSpec, client: str) -> Job:
        child_specs: List[JobSpec] = []
        for procs in spec.procs:
            for scheme in spec.schemes:
                child_specs.append(
                    JobSpec(
                        kind="run",
                        config=replace(spec.config, procs_per_group=procs),
                        scheme=scheme,
                        priority=spec.priority,
                        use_cache=spec.use_cache,
                        trace_spans=spec.trace_spans,
                    )
                )
        lookups = [self._cache_lookup(cs) for cs in child_specs]
        misses = sum(1 for hit in lookups if hit is None)
        if not self.queue.can_accept(misses):
            self.state.metrics.counter("serve.jobs_rejected",
                                       reason="queue_full").inc()
            raise QueueFullError(
                f"sweep needs {misses} queue places, "
                f"{self.queue.maxsize - len(self.queue)} free; retry later"
            )
        parent = self._register(spec, client)
        children = [self._register(cs, client) for cs in child_specs]
        for child in children:
            child.parent_id = parent.job_id
            parent.children.append(child.job_id)
        # enqueue misses first so hits completing synchronously see the
        # full child list on the parent
        for child, hit in zip(children, lookups):
            if hit is None:
                self._enqueue(child)
        for child, hit in zip(children, lookups):
            if hit is not None:
                await self._complete_cached(child, hit)
        self._maybe_start()
        return parent

    def _register(self, spec: JobSpec, client: str) -> Job:
        self._seq += 1
        job = Job(job_id=self.state.new_job_id(), client=client, spec=spec,
                  seq=self._seq)
        job._submitted_at = time.monotonic()
        self.state.add(job)
        self.state.metrics.counter("serve.jobs_submitted").inc()
        return job

    def _enqueue(self, job: Job) -> None:
        self.queue.push(job)
        self.state.metrics.gauge("serve.queue_depth").set(len(self.queue))

    def _cache_lookup(self, spec: JobSpec):
        """The cached run dict for a run spec, verbatim, or ``None``.

        The *stored* persisted form is streamed (not a re-serialized
        :class:`RunResult`, which would lose ``event_counts``), so a cache
        hit is bit-identical to the fresh run that populated the entry.
        Any failure to key or read (missing trace file, unreadable cache)
        is a miss: the worker will surface the real error.
        """
        if self.cache is None or not spec.use_cache or spec.trace_spans:
            return None
        try:
            from ..exec import task_key
            from ..harness.experiment import resolve_trace_config

            key = task_key(resolve_trace_config(spec.config), spec.scheme)
            return self.cache.get_run_dict(key)
        except Exception:
            return None

    async def _complete_cached(self, job: Job, run: Dict[str, Any]) -> None:
        job.cached = True
        self.state.metrics.counter("serve.cache_hits").inc()
        await self._finish(job, "done", run=run)

    # -- worker pool -------------------------------------------------------

    def _maybe_start(self) -> None:
        while not self._stopped and len(self._running) < self.workers:
            job = self.queue.pop_next()
            if job is None:
                break
            self.state.metrics.gauge("serve.queue_depth").set(len(self.queue))
            self._start(job)

    def _start(self, job: Job) -> None:
        from .wire import config_to_wire

        job.status = "running"
        job._started_at = time.monotonic()
        job.queue_seconds = job._started_at - job._submitted_at
        self.state.metrics.counter("serve.jobs_executed").inc()
        self.state.metrics.histogram("serve.job_queue_seconds").observe(
            job.queue_seconds)
        store_dir = (self.cache_dir
                     if self.cache is not None and job.spec.use_cache else None)
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=run_job_in_child,
            args=(child_conn, config_to_wire(job.spec.config), job.spec.scheme,
                  job.job_id, job.spec.trace_spans, store_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._running[job.job_id] = (proc, parent_conn)
        self.state.metrics.gauge("serve.workers_busy").set(len(self._running))
        self._watchers[job.job_id] = asyncio.get_running_loop().create_task(
            self._watch(job, proc, parent_conn))
        asyncio.get_running_loop().create_task(
            job.push_update({"event": "started", "job_id": job.job_id}))

    async def _watch(self, job: Job, proc, conn) -> None:
        try:
            payload = await asyncio.to_thread(conn.recv)
        except (EOFError, OSError):
            payload = None
        await asyncio.to_thread(proc.join)
        conn.close()
        self._running.pop(job.job_id, None)
        self._watchers.pop(job.job_id, None)
        self.state.metrics.gauge("serve.workers_busy").set(len(self._running))
        job.wall_seconds = time.monotonic() - job._started_at
        self.state.metrics.histogram("serve.job_wall_seconds").observe(
            job.wall_seconds)
        if payload is not None and payload.get("ok"):
            if job.spec.trace_spans:
                self.state.store_spans(job.job_id, payload.get("spans", []))
            await self._finish(job, "done", run=payload["run"])
        elif job.cancel_requested:
            await self._finish(job, "cancelled")
        elif payload is not None:
            await self._finish(job, "failed", error=payload["error"])
        else:
            await self._finish(job, "failed", error={
                "code": "failed",
                "message": f"worker process died (exit code {proc.exitcode})",
            })
        self._maybe_start()

    # -- completion --------------------------------------------------------

    async def _finish(self, job: Job, status: str,
                      run: Optional[Dict[str, Any]] = None,
                      error: Optional[Dict[str, str]] = None) -> None:
        job.status = status
        job.run = run
        job.error = error
        self.state.metrics.counter("serve.jobs_completed", status=status).inc()
        done = {"event": "done", "job_id": job.job_id, "status": status,
                "cached": job.cached}
        if run is not None:
            done["run"] = run
        if error is not None:
            done["error"] = error
        await job.push_update(done)
        if job.parent_id is not None:
            await self._child_finished(job)

    async def _child_finished(self, child: Job) -> None:
        parent = self.state.get(child.parent_id)
        if parent is None or parent.is_terminal:  # pragma: no cover - guard
            return
        finished = [self.state.get(cid) for cid in parent.children]
        ndone = sum(1 for c in finished if c.is_terminal)
        await parent.push_update({
            "event": "partial",
            "job_id": parent.job_id,
            "child": child.job_id,
            "index": ndone - 1,
            "total": len(parent.children),
            "procs": child.spec.config.procs_per_group,
            "scheme": child.spec.scheme,
            "status": child.status,
            "cached": child.cached,
            "run": child.run,
        })
        if ndone < len(parent.children):
            return
        statuses = {c.status for c in finished}
        if "failed" in statuses:
            status = "failed"
        elif "cancelled" in statuses:
            status = "cancelled"
        else:
            status = "done"
        runs = [
            {"procs": c.spec.config.procs_per_group, "scheme": c.spec.scheme,
             "status": c.status, "cached": c.cached, "run": c.run}
            for c in finished
        ]
        parent.status = status
        parent.run = {"runs": runs}
        self.state.metrics.counter("serve.jobs_completed", status=status).inc()
        await parent.push_update({"event": "done", "job_id": parent.job_id,
                                  "status": status, "cached": False,
                                  "runs": runs})

    def running_count(self) -> int:
        return len(self._running)

    # -- cancellation ------------------------------------------------------

    async def cancel(self, job: Job) -> str:
        """Cancel a job; returns the status it ended in.

        Queued jobs leave the queue immediately; running jobs have their
        worker process terminated (the watcher completes the transition);
        sweep parents cancel every non-terminal child.  Cancelling a
        terminal job is a no-op returning its final status.
        """
        if job.is_terminal:
            return job.status
        if job.spec.kind == "sweep":
            job.cancel_requested = True
            for cid in job.children:
                child = self.state.get(cid)
                if child is not None and not child.is_terminal:
                    await self.cancel(child)
            return job.status
        if job.status == "queued" and self.queue.remove(job):
            self.state.metrics.gauge("serve.queue_depth").set(len(self.queue))
            await self._finish(job, "cancelled")
            return job.status
        if job.status == "running":
            job.cancel_requested = True
            entry = self._running.get(job.job_id)
            if entry is not None:
                entry[0].terminate()
            # the watcher observes the EOF and finishes the job
            return "cancelling"
        return job.status  # pragma: no cover - raced to terminal

    # -- shutdown ----------------------------------------------------------

    async def begin_drain(self, force: bool = False) -> None:
        """Stop accepting submissions; with ``force``, cancel everything."""
        self.state.draining = True
        if not force:
            return
        self._stopped = True
        for job in self.queue.drain():
            await self._finish(job, "cancelled")
        self.state.metrics.gauge("serve.queue_depth").set(0)
        for job_id in list(self._running):
            job = self.state.get(job_id)
            if job is not None:
                job.cancel_requested = True
            self._running[job_id][0].terminate()
