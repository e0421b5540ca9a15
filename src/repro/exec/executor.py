"""Execution engines for batches of experiment runs.

The harness entry points (``run_paired``, ``run_sweep``, ``replicate``,
``run_fault_scenarios``) describe their work as a batch of
:class:`ExecTask`\\ s and submit it to an :class:`Executor`:

* :class:`SerialExecutor` runs the batch in-process, in order -- the
  baseline and the library default (unchanged behaviour).
* :class:`ParallelExecutor` fans the batch out over a
  ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers.  Every
  run is deterministic and independent, so results are bit-identical to the
  serial ones; they come back in submission order regardless of completion
  order.

Both consult an optional content-addressed :class:`~repro.exec.cache.ResultCache`
before executing and store fresh results afterwards, and both record
:class:`ExecStats` -- per-run wall-clock and queue time, cache hits/misses,
batch elapsed, and the implied speedup over back-to-back execution.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from .cache import ResultCache, task_key

__all__ = [
    "ExecTask",
    "TaskStats",
    "ExecStats",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
]


@dataclass(frozen=True)
class ExecTask:
    """One unit of work: run ``scheme`` on ``config``.

    ``scheme`` is ``"parallel"``, ``"distributed"``, ``"static"`` or
    ``"sequential"`` (the one-processor ``E(1)`` reference).  Set
    ``use_cache=False`` when the consumer needs the full event log -- cached
    results carry ``events=None`` -- the task then always executes, though
    its (event-stripped) result is still stored for other consumers.

    ``trace=True`` runs the task under a fresh enabled
    :class:`~repro.obs.Tracer` (in-process or inside a pool worker) and
    attaches the finished spans to ``result.spans``.  Traced tasks never
    read the cache (cached results carry no spans), though their
    span-stripped results are still stored.
    """

    config: Any
    scheme: str
    use_cache: bool = True
    trace: bool = False

    @property
    def label(self) -> str:
        name = getattr(self.config, "app_name", "?")
        cfg_label = getattr(self.config, "label", "?")
        return f"{name} {cfg_label} [{self.scheme}]"


def _execute_task(task: ExecTask) -> Tuple[Any, float, float]:
    """Worker body: run one task, returning ``(result, start, wall)``.

    ``start`` is ``time.monotonic()`` at execution start -- comparable
    across processes on Linux (CLOCK_MONOTONIC is system-wide), which gives
    the parent the queue latency of pool workers.
    """
    from ..harness.experiment import execute_scheme

    start = time.monotonic()
    if task.trace:
        from ..obs import Tracer

        tracer = Tracer(track=task.label)
        result = execute_scheme(task.config, task.scheme, tracer=tracer)
    else:
        result = execute_scheme(task.config, task.scheme)
    return result, start, time.monotonic() - start


@dataclass(frozen=True)
class TaskStats:
    """Timing record of one task in a batch."""

    label: str
    scheme: str
    cached: bool
    wall_seconds: float = 0.0
    queue_seconds: float = 0.0


@dataclass
class ExecStats:
    """Aggregate stats of one executed batch (or several, merged)."""

    jobs: int
    elapsed_seconds: float
    tasks: List[TaskStats] = field(default_factory=list)

    @property
    def ntasks(self) -> int:
        return len(self.tasks)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.cached)

    @property
    def cache_misses(self) -> int:
        return self.ntasks - self.cache_hits

    @property
    def executed(self) -> int:
        return self.cache_misses

    @property
    def run_wall_seconds(self) -> float:
        """Summed in-worker execution time (what a back-to-back serial pass
        over the executed runs would have cost)."""
        return sum(t.wall_seconds for t in self.tasks)

    @property
    def speedup_over_serial(self) -> float:
        """``run_wall_seconds / elapsed_seconds`` -- how much faster the
        batch finished than executing its runs back to back.  Driven above 1
        by pool parallelism; cache hits shrink both terms."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.run_wall_seconds / self.elapsed_seconds

    def merged_with(self, other: "ExecStats") -> "ExecStats":
        return ExecStats(
            jobs=max(self.jobs, other.jobs),
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            tasks=self.tasks + other.tasks,
        )

    def summary(self) -> str:
        """One-line summary for CLI output and result containers."""
        return (
            f"executor: {self.ntasks} runs (jobs={self.jobs}): "
            f"{self.cache_hits} cache hits, {self.executed} executed, "
            f"elapsed {self.elapsed_seconds:.2f}s, "
            f"run wall-clock {self.run_wall_seconds:.2f}s, "
            f"speedup over back-to-back {self.speedup_over_serial:.2f}x"
        )


class Executor:
    """Base: cache bookkeeping + stats; subclasses provide ``_execute``."""

    jobs: int = 1

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        self.batches: List[ExecStats] = []

    # -- subclass hook -----------------------------------------------------
    def _execute(self, indexed: List[Tuple[int, ExecTask]]) -> List[Tuple[int, Any, float, float]]:
        """Run the (index, task) pairs; return ``(index, result, wall,
        queue)`` tuples in any order."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------
    def run_tasks(self, tasks: Sequence[ExecTask]) -> List[Any]:
        """Execute a batch; results come back in submission order.

        Cache lookups happen first (for tasks with ``use_cache``), the
        misses are executed, and fresh results are stored.  The batch's
        :class:`ExecStats` is appended to :attr:`batches`.
        """
        t0 = time.perf_counter()
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        stats: List[Optional[TaskStats]] = [None] * len(tasks)
        keys: List[Optional[str]] = [None] * len(tasks)
        pending: List[Tuple[int, ExecTask]] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                keys[i] = task_key(task.config, task.scheme)
            if self.cache is not None and task.use_cache and not task.trace:
                hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    stats[i] = TaskStats(task.label, task.scheme, cached=True)
                    continue
            pending.append((i, task))
        for i, result, wall, queue in self._execute(pending):
            results[i] = result
            stats[i] = TaskStats(
                tasks[i].label, tasks[i].scheme, cached=False,
                wall_seconds=wall, queue_seconds=queue,
            )
            if self.cache is not None:
                self.cache.put(keys[i], result)
        batch = ExecStats(
            jobs=self.jobs,
            elapsed_seconds=time.perf_counter() - t0,
            tasks=[s for s in stats if s is not None],
        )
        self.batches.append(batch)
        self._record_metrics(batch)
        return results

    def _record_metrics(self, batch: ExecStats) -> None:
        """Fold the batch into the process-wide ``exec.*`` metric series
        and persist the cache's lifetime counters."""
        from ..obs import get_default_metrics

        reg = get_default_metrics()
        reg.counter("exec.tasks").inc(batch.ntasks)
        reg.counter("exec.cache_hits").inc(batch.cache_hits)
        reg.counter("exec.cache_misses").inc(batch.cache_misses)
        reg.histogram("exec.batch_elapsed_seconds").observe(batch.elapsed_seconds)
        for t in batch.tasks:
            if not t.cached:
                reg.histogram("exec.task_wall_seconds").observe(t.wall_seconds)
        if self.cache is not None:
            self.cache.flush_metrics()

    @property
    def last_stats(self) -> Optional[ExecStats]:
        return self.batches[-1] if self.batches else None

    @property
    def stats(self) -> Optional[ExecStats]:
        """All batches merged, or ``None`` if nothing ran yet."""
        if not self.batches:
            return None
        merged = self.batches[0]
        for b in self.batches[1:]:
            merged = merged.merged_with(b)
        return merged


class SerialExecutor(Executor):
    """In-process, in-order execution -- the library default."""

    jobs = 1

    def _execute(self, indexed: List[Tuple[int, ExecTask]]) -> List[Tuple[int, Any, float, float]]:
        out = []
        for i, task in indexed:
            result, _start, wall = _execute_task(task)
            out.append((i, result, wall, 0.0))
        return out


class ParallelExecutor(Executor):
    """Process-pool execution with ``jobs`` workers.

    Results are collected by future and reassembled in submission order, so
    ordering is deterministic no matter which worker finishes first.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        super().__init__(cache=cache)
        import os

        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def _execute(self, indexed: List[Tuple[int, ExecTask]]) -> List[Tuple[int, Any, float, float]]:
        if not indexed:
            return []
        out = []
        workers = min(self.jobs, len(indexed))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            submitted = []
            for i, task in indexed:
                submit_time = time.monotonic()
                submitted.append((i, submit_time, pool.submit(_execute_task, task)))
            for i, submit_time, fut in submitted:
                result, start, wall = fut.result()
                out.append((i, result, wall, max(0.0, start - submit_time)))
        return out
