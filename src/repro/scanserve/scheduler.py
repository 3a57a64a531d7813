"""Sharded execution of scan work.

The scheduler splits a batch of packages into chunks, runs a shard function
over them on a worker pool, and reassembles results in submission order.
Two execution lanes:

* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor` kept
  across runs.  The first run that needs it starts it with ``max_workers``
  workers, each primed once by the initializer; later runs with the same
  ``key`` (the name of the worker state the initializer builds, e.g. a
  ruleset version) reuse it, and a run with another key, or after a
  failure, replaces it.  A run submits every shard at once, so the caller
  bounds the task queue by how many shards it passes: ``ScanService``
  passes at most one per worker.
* ``inprocess`` — the same shard function executed serially in the calling
  process; the fallback for environments where forking/spawning is
  unavailable and the deterministic lane the tests use.

``auto`` tries the process pool and degrades to in-process on any pool
failure; the report's ``mode`` says what actually ran.
:meth:`ScanScheduler.close` shuts the kept pool down.  A scheduler that is
collected unclosed releases its workers too: the executor's manager thread
shuts them down once the executor is collected.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

AUTO = "auto"
PROCESS = "process"
INPROCESS = "inprocess"
_MODES = (AUTO, PROCESS, INPROCESS)

ItemT = TypeVar("ItemT")


@dataclass
class ShardStats:
    """Throughput and latency of one shard."""

    shard_id: int
    packages: int = 0
    matched_packages: int = 0
    seconds: float = 0.0

    @property
    def packages_per_second(self) -> float:
        return self.packages / self.seconds if self.seconds > 0 else 0.0


def chunk_items(
    items: Sequence[tuple[int, ItemT]], chunk_size: int
) -> list[list[tuple[int, ItemT]]]:
    """Slice position-tagged items into contiguous chunks of ``chunk_size``.

    A chunk is one worker *task*, scanned as a single batch, so per-task
    setup — worker round trip, atom pass — amortises over the whole chunk.
    Contiguous slices keep cache locality for prepared packages built in
    input order.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


@dataclass
class SchedulerReport:
    """What a scheduler run did, for service-level stats."""

    mode: str = INPROCESS
    shards: int = 0
    workers: int = 1
    fallback_error: str = ""
    results: list = field(default_factory=list)


class ScanScheduler:
    """Run shard functions across a bounded worker pool, kept across runs."""

    def __init__(self, mode: str = AUTO, max_workers: Optional[int] = None) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key = None
        # held for a whole process-lane run, so no run loses its pool to
        # another thread's restart
        self._pool_lock = threading.Lock()

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        shards: Sequence,
        shard_fn: Callable,
        init_fn: Optional[Callable] = None,
        init_args: tuple = (),
        key=None,
    ) -> SchedulerReport:
        """Apply ``shard_fn`` to every shard; results keep shard order.

        ``init_fn(*init_args)`` primes per-worker state: in the calling
        process before an in-process run, and once in each worker of a new
        pool.  ``key`` names that state.  The pool is kept while runs pass
        an equal ``key``, and their ``init_args`` go unused; another key
        replaces the pool.  ``init_fn`` is module-level, so a pool that
        does not fork can pickle it.
        """
        if not shards:
            return SchedulerReport(mode=INPROCESS, shards=0, results=[])
        # a single shard gains nothing from a pool, but an explicit "process"
        # request still gets one (the caller may want the isolation)
        if self.mode == INPROCESS or (len(shards) == 1 and self.mode != PROCESS):
            return self._run_inprocess(shards, shard_fn, init_fn, init_args)
        try:
            return self._run_process(shards, shard_fn, init_fn, init_args, key)
        except Exception as exc:
            if self.mode == PROCESS:
                raise
            report = self._run_inprocess(shards, shard_fn, init_fn, init_args)
            report.fallback_error = f"{type(exc).__name__}: {exc}"
            return report

    def _run_inprocess(self, shards, shard_fn, init_fn, init_args) -> SchedulerReport:
        if init_fn is not None:
            init_fn(*init_args)
        results = [shard_fn(shard) for shard in shards]
        return SchedulerReport(
            mode=INPROCESS, shards=len(shards), workers=1, results=results
        )

    def _run_process(self, shards, shard_fn, init_fn, init_args, key) -> SchedulerReport:
        workers = max(1, self.max_workers or os.cpu_count() or 2)
        with self._pool_lock:
            if self._pool is None or self._pool_key != key:
                self._shutdown_pool()
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=init_fn, initargs=init_args
                )
                self._pool_key = key
            try:
                futures = [self._pool.submit(shard_fn, shard) for shard in shards]
                results = [future.result() for future in futures]
            except BaseException:
                # the pool may be broken (a dead worker breaks it for good),
                # so the next run starts a fresh one
                self._shutdown_pool()
                raise
        return SchedulerReport(
            mode=PROCESS,
            shards=len(shards),
            workers=min(workers, len(shards)),
            results=results,
        )

    # -- lifecycle ----------------------------------------------------------------
    def _shutdown_pool(self) -> None:
        pool, self._pool, self._pool_key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut the kept pool down and wait for its workers to exit.  A
        later process-lane run starts a new pool."""
        with self._pool_lock:
            self._shutdown_pool()


class BoundedQueue:
    """A tiny bounded FIFO with blocking put — the streaming-ingest buffer.

    ``scanserve`` batches are list-driven, but a registry feed is a stream;
    this queue gives feeders a backpressured hand-off point (`put` blocks
    while the scanner is behind) without pulling in a full async stack.
    """

    def __init__(self, max_items: int = 1024) -> None:
        if max_items < 1:
            raise ValueError("max_items must be positive")
        self.max_items = max_items
        self._items: list = []
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def put(self, item, timeout: Optional[float] = None) -> bool:
        with self._not_full:
            if not self._not_full.wait_for(
                lambda: len(self._items) < self.max_items or self._closed, timeout
            ):
                return False
            if self._closed:
                raise RuntimeError("queue is closed")
            self._items.append(item)
            self._not_empty.notify()
            return True

    def get(self, timeout: Optional[float] = None):
        with self._not_empty:
            if not self._not_empty.wait_for(
                lambda: self._items or self._closed, timeout
            ):
                raise TimeoutError("queue empty")
            if not self._items:
                raise RuntimeError("queue is closed")
            item = self._items.pop(0)
            self._not_full.notify()
            return item

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def drain(self) -> list:
        with self._lock:
            items, self._items = self._items, []
            self._not_full.notify_all()
            return items
