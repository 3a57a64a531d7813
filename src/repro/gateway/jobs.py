"""The gateway's async job queue and its explicit job-state machine.

Every unit of work the gateway accepts — a scan batch, a streaming
generation feed — becomes a :class:`Job` that moves through

    queued -> running -> done | failed | cancelled

and nothing else: clients poll (or await) the job instead of holding a
connection open for the duration.  :class:`JobQueue` owns a fixed pool of
asyncio worker tasks pulling submissions off an internal queue, so
concurrency is bounded no matter how many tenants submit at once.  The
queue keeps a **bounded history** of finished jobs (oldest terminal jobs
are evicted first) so a long-running gateway's memory does not grow with
its lifetime.

The state machine lives here, standalone, so the orchestrator fleet can
later run behind the same queue: a handler is just an async callable
``(job) -> dict`` — the queue knows nothing about scanning or generation.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional

from repro.gateway.ratelimit import Clock

# -- job states ---------------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: A prior process died with this job non-terminal; assigned on restart by
#: the gateway's journal recovery (handlers are closures and cannot be
#: replayed, so the job is surfaced as interrupted rather than re-run).
INTERRUPTED = "interrupted"
#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, INTERRUPTED})

#: Handler signature: receives the job (for cooperative-cancel checks and
#: labels), returns the job's result payload.
JobHandler = Callable[["Job"], Awaitable[dict]]


@dataclass
class Job:
    """One unit of gateway work and its lifecycle bookkeeping."""

    id: str
    tenant: str
    kind: str  # "scan" | "generate" | anything a handler implements
    label: str = ""
    state: str = QUEUED
    result: Optional[dict] = None
    error: str = ""
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_requested: bool = False
    #: serialized span context (``{"trace_id", "span_id"}``) captured at
    #: submission, so the handler's spans join the submitting request's
    #: trace; ``None`` when the submission was untraced
    trace: Optional[dict] = None
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self, include_result: bool = True) -> dict:
        data = {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "label": self.label,
            "state": self.state,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seconds": round(self.seconds, 6) if self.seconds is not None else None,
            "cancel_requested": self.cancel_requested,
        }
        if include_result:
            data["result"] = self.result
        return data

    def describe(self) -> str:
        label = f" ({self.label})" if self.label else ""
        timing = f" in {self.seconds:.3f}s" if self.seconds is not None else ""
        suffix = f": {self.error}" if self.error else timing
        return f"{self.id}{label} [{self.tenant}] {self.state}{suffix}"


class JobQueue:
    """Bounded-concurrency job execution with awaitable completion.

    Must be :meth:`start`-ed from inside a running event loop.  ``workers``
    caps how many jobs run concurrently (handlers off-load blocking work to
    an executor, so a small pool keeps the loop responsive while scans
    saturate threads).  ``history_limit`` bounds how many *finished* jobs
    stay addressable for status queries.
    """

    def __init__(
        self,
        workers: int = 2,
        history_limit: int = 64,
        clock: Optional[Clock] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if history_limit < 1:
            raise ValueError("history_limit must be positive")
        self.history_limit = history_limit
        self._worker_count = workers
        self._clock = clock or time.time
        self._queue: "asyncio.Queue[tuple[Job, JobHandler]]" = asyncio.Queue()
        self._jobs: Dict[str, Job] = {}  # insertion-ordered: oldest first
        self._tasks: Dict[str, asyncio.Task] = {}  # running jobs only
        self._workers: List[asyncio.Task] = []
        self._ids = itertools.count(1)
        self._accepting = True
        #: Called after every state transition with the job and its new
        #: state (``queued``/``running``/terminal) — the gateway's journal
        #: and latency histograms hang off this.  Observer errors are
        #: swallowed: telemetry must never fail a job.
        self.on_transition: Optional[Callable[[Job, str], None]] = None

    # -- lifecycle ------------------------------------------------------------------
    async def start(self) -> "JobQueue":
        if self._workers:
            raise RuntimeError("job queue already started")
        self._workers = [
            asyncio.create_task(self._worker(), name=f"jobqueue-worker-{i}")
            for i in range(self._worker_count)
        ]
        return self

    async def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs; drain or cancel what is pending.

        ``drain=True`` waits for every queued and in-flight job to reach a
        terminal state (bounded by ``timeout``); ``drain=False`` cancels
        queued jobs immediately and interrupts running ones.  Worker tasks
        are always torn down at the end.
        """
        self._accepting = False
        if drain:
            joined = self._queue.join()
            if timeout is not None:
                await asyncio.wait_for(joined, timeout)
            else:
                await joined
        else:
            while not self._queue.empty():
                job, _ = self._queue.get_nowait()
                if not job.finished:
                    self._finish(job, CANCELLED, error="cancelled: gateway shutdown")
                self._queue.task_done()
            for task in list(self._tasks.values()):
                task.cancel()
            await self._queue.join()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- submission and lookup ------------------------------------------------------
    def submit(
        self, kind: str, tenant: str, run: JobHandler, label: str = ""
    ) -> Job:
        """Enqueue a job; returns immediately with the queued :class:`Job`."""
        if not self._accepting:
            raise RuntimeError("job queue is shutting down; not accepting jobs")
        if not self._workers:
            raise RuntimeError("job queue not started")
        job = Job(
            id=f"{kind}-{next(self._ids)}",
            tenant=tenant,
            kind=kind,
            label=label,
            created_at=self._clock(),
        )
        self._jobs[job.id] = job
        self._trim_history()
        self._notify(job, QUEUED)
        self._queue.put_nowait((job, run))
        return job

    def restore(self, jobs: List[Job]) -> None:
        """Preload jobs recovered from a prior process (oldest first).

        Restored jobs must already be terminal — typically ``interrupted``
        — and only occupy history; the id counter jumps past the highest
        restored id so new submissions never collide with journaled ones.
        """
        highest = 0
        for job in jobs:
            if not job.finished:
                raise ValueError(
                    f"restored job {job.id!r} is {job.state}, not terminal"
                )
            job._done.set()
            self._jobs[job.id] = job
            suffix = job.id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        if highest:
            self._ids = itertools.count(highest + 1)
        self._trim_history()

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise LookupError(f"unknown job {job_id!r}") from None

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        """All known jobs (oldest first), optionally one tenant's."""
        return [
            job
            for job in self._jobs.values()
            if tenant is None or job.tenant == tenant
        ]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Await a job's terminal state (poll-free client side)."""
        job = self.get(job_id)
        if not job.finished:
            await asyncio.wait_for(job._done.wait(), timeout)
        return job

    # -- cancellation ---------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns ``False`` when it already finished.

        Queued jobs become ``cancelled`` immediately (the worker skips them
        on dequeue).  Running jobs get ``cancel_requested`` set and their
        task cancelled — a handler blocked on an executor call is detached
        promptly, though the executor thread itself runs to completion.
        """
        job = self.get(job_id)
        if job.finished:
            return False
        job.cancel_requested = True
        task = self._tasks.get(job_id)
        if task is None:
            self._finish(job, CANCELLED, error="cancelled while queued")
        else:
            task.cancel()
        return True

    # -- internals ------------------------------------------------------------------
    def _finish(
        self,
        job: Job,
        state: str,
        result: Optional[dict] = None,
        error: str = "",
    ) -> None:
        if job.finished:
            return
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = self._clock()
        job._done.set()
        self._notify(job, state)
        self._trim_history()

    def _notify(self, job: Job, state: str) -> None:
        if self.on_transition is None:
            return
        try:
            self.on_transition(job, state)
        except Exception:
            pass

    def _trim_history(self) -> None:
        terminal = [job_id for job_id, job in self._jobs.items() if job.finished]
        excess = len(terminal) - self.history_limit
        for job_id in terminal[:max(0, excess)]:
            del self._jobs[job_id]

    async def _worker(self) -> None:
        while True:
            job, run = await self._queue.get()
            try:
                if job.finished:  # cancelled while queued
                    continue
                job.state = RUNNING
                job.started_at = self._clock()
                self._notify(job, RUNNING)
                task = asyncio.create_task(run(job), name=f"job-{job.id}")
                self._tasks[job.id] = task
                try:
                    result = await task
                except asyncio.CancelledError:
                    if not task.done():
                        task.cancel()
                    self._finish(job, CANCELLED, error="cancelled while running")
                    current = asyncio.current_task()
                    if current is not None and current.cancelling():
                        raise  # the *worker* is being torn down
                except Exception as exc:
                    self._finish(job, FAILED, error=f"{type(exc).__name__}: {exc}")
                else:
                    self._finish(
                        job,
                        DONE,
                        result=result if isinstance(result, dict) else {"value": result},
                    )
                finally:
                    self._tasks.pop(job.id, None)
            finally:
                self._queue.task_done()
