"""Jobs and the bounded, fair, priority job queue of the serving runtime.

A :class:`Job` is one unit of daemon work -- an experiment or trace-replay
run (``kind="run"``), or a fan-out sweep (``kind="sweep"``) whose children
are themselves run jobs.  The :class:`JobQueue` orders admissions by

1. **priority** (lower value first, 0 is the default),
2. **per-client fairness**: among clients with equally urgent work, the
   least recently served client goes first, so one chatty client cannot
   starve the others no matter how many jobs it enqueues, and
3. **submission order** within one client and priority.

The queue is bounded: pushing past ``maxsize`` raises
:class:`~repro.daemon.protocol.QueueFullError` -- the 429-style
backpressure signal the server forwards to the client instead of
buffering unboundedly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .protocol import QueueFullError

__all__ = ["JobSpec", "Job", "JobQueue", "JOB_KINDS", "TERMINAL_STATUSES"]

JOB_KINDS = ("run", "sweep")

#: statuses a job can end in; everything else is in flight
TERMINAL_STATUSES = ("done", "failed", "cancelled")


@dataclass
class JobSpec:
    """What to run: the daemon-side mirror of an executor task.

    ``config`` is a full :class:`~repro.harness.experiment.ExperimentConfig`
    (trace-replay jobs are simply configs whose ``trace`` is set).  For
    ``kind="sweep"`` the server expands ``procs`` x ``schemes`` into child
    run jobs over ``config`` and streams each child's result back as a
    ``partial`` event.
    """

    kind: str = "run"
    config: Any = None
    scheme: str = "distributed"
    priority: int = 0
    use_cache: bool = True
    #: trace the run and keep its spans server-side under a per-job track
    trace_spans: bool = False
    #: sweep fan-out (ignored for run jobs)
    procs: tuple = ()
    schemes: tuple = ()


@dataclass
class Job:
    """One admitted job and everything the server knows about it."""

    job_id: str
    client: str
    spec: JobSpec
    seq: int
    status: str = "queued"
    #: persisted run dict (the wire form of the result) once finished
    run: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    #: served straight from the result cache, no worker slot consumed
    cached: bool = False
    cancel_requested: bool = False
    #: child job ids (sweep parents only) and parent id (children only)
    children: List[str] = field(default_factory=list)
    parent_id: Optional[str] = None
    #: host wall-clock seconds spent queued / executing
    queue_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: ordered protocol events; waiters stream this list as it grows
    updates: List[Dict[str, Any]] = field(default_factory=list)
    _update_cond: Optional[asyncio.Condition] = None

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def _cond(self) -> asyncio.Condition:
        if self._update_cond is None:
            self._update_cond = asyncio.Condition()
        return self._update_cond

    async def push_update(self, event: Dict[str, Any]) -> None:
        """Append a protocol event and wake every streaming waiter."""
        cond = self._cond()
        async with cond:
            self.updates.append(event)
            cond.notify_all()

    async def wait_updates(self, already_seen: int) -> List[Dict[str, Any]]:
        """Block until there are more than ``already_seen`` events; return
        the new tail."""
        cond = self._cond()
        async with cond:
            while len(self.updates) <= already_seen:
                await cond.wait()
            return self.updates[already_seen:]

    def summary(self) -> Dict[str, Any]:
        """The ``jobs`` listing entry."""
        return {
            "job_id": self.job_id,
            "client": self.client,
            "kind": self.spec.kind,
            "scheme": self.spec.scheme,
            "priority": self.spec.priority,
            "status": self.status,
            "cached": self.cached,
            "parent": self.parent_id,
        }


class JobQueue:
    """Bounded priority queue with per-client round-robin fairness."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        self.maxsize = maxsize
        self._queued: List[Job] = []
        #: clients in least-recently-served-first order
        self._client_order: List[str] = []

    def __len__(self) -> int:
        return len(self._queued)

    def can_accept(self, n: int = 1) -> bool:
        """Whether ``n`` more jobs fit (sweeps reserve all children at once)."""
        return len(self._queued) + n <= self.maxsize

    def push(self, job: Job) -> None:
        """Enqueue or raise :class:`QueueFullError` -- never blocks."""
        if not self.can_accept():
            raise QueueFullError(
                f"job queue is full ({self.maxsize} queued); retry later"
            )
        self._queued.append(job)
        if job.client not in self._client_order:
            self._client_order.append(job.client)

    def pop_next(self) -> Optional[Job]:
        """The next job to admit, or ``None`` when the queue is empty.

        Selection: the globally best (lowest) priority; among clients
        holding a job at that priority, the least recently served; within
        that client, submission order.
        """
        if not self._queued:
            return None
        best = min(job.spec.priority for job in self._queued)
        for client in self._client_order:
            candidates = [j for j in self._queued
                          if j.client == client and j.spec.priority == best]
            if not candidates:
                continue
            job = min(candidates, key=lambda j: j.seq)
            self._queued.remove(job)
            # served: rotate the client to the back of the fairness order
            self._client_order.remove(client)
            self._client_order.append(client)
            return job
        return None  # pragma: no cover - order always covers all clients

    def remove(self, job: Job) -> bool:
        """Drop a queued job (cancellation); ``False`` if not queued here."""
        try:
            self._queued.remove(job)
        except ValueError:
            return False
        return True

    def drain(self) -> List[Job]:
        """Empty the queue, returning the jobs in stored order."""
        drained, self._queued = self._queued, []
        return drained
