"""`GatewayApp` — the async multi-tenant serving front end.

This is the subsystem that turns the library seams grown by earlier PRs —
:class:`~repro.scanserve.registry.RulesetRegistry` versioning + event bus,
:class:`~repro.scanserve.service.ScanService` live re-scan,
:class:`~repro.api.session.GenerationSession` streaming ingest — into one
long-running service:

* **tenancy**: every tenant gets an isolated registry namespace, scan
  service, token-bucket quota (:mod:`repro.gateway.tenants`);
* **job queue**: scan batches and streaming generation feeds become
  :class:`~repro.gateway.jobs.Job` s executed by a bounded asyncio worker
  pool; clients poll, await, or cancel (:mod:`repro.gateway.jobs`);
* **event push**: registry publishes and re-scan deltas are bridged into
  per-tenant async notification streams (:mod:`repro.gateway.notify`), so
  subscribers hear about new rule versions without polling.

Blocking pipeline work (scanning, rule generation) runs on the default
executor, keeping the event loop free to admit requests, serve status and
push notifications while scans saturate threads.

    app = await GatewayApp().start()
    app.register_tenant("acme")
    job = await app.submit_scan("acme", packages)
    job = await app.await_job("acme", job.id)
    await app.shutdown()                      # drains in-flight jobs
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.session import GenerationSession
from repro.core.config import RuleLLMConfig
from repro.corpus.package import Package
from repro.gateway.jobs import (
    INTERRUPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
)
from repro.gateway.metrics import LatencyTracker
from repro.gateway.notify import NotificationHub, Subscription
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import get_tracer

_JOBS_FINISHED = _obs_registry().counter(
    "repro_gateway_jobs_total",
    "Gateway jobs reaching a terminal state, by kind and state.",
    ("kind", "state"),
)
from repro.gateway.ratelimit import Clock, RateLimited
from repro.gateway.tenants import Tenant, TenantManager, TenantQuota, UnknownTenant
from repro.scanserve.registry import PublishEvent, RulesetRegistry
from repro.scanserve.scheduler import BoundedQueue
from repro.scanserve.service import RescanDelta, ScanService, ScanServiceConfig


#: Streaming-ingest buffer per generation feed.
FEED_CAPACITY = 4096
#: Backpressure: how long a feed put may block, in seconds.
FEED_PUT_TIMEOUT = 5.0


@dataclass
class GatewayConfig:
    """Knobs of the gateway."""

    workers: int = 2  # concurrent jobs (each off-loads to an executor thread)
    history_limit: int = 64  # finished jobs kept addressable
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    auto_register: bool = True  # unknown tenants get the default quota on first use
    model: str = "gpt-4o"  # generation profile for feed jobs
    seed: int = 1633


def _with_ctx(tracer, ctx, fn):
    """Run ``fn`` with ``ctx`` installed as the ambient span context."""
    with tracer.activate(ctx):
        return fn()


def _event_payload(event: PublishEvent) -> dict:
    return {
        "namespace": event.namespace,
        "kind": event.kind,
        "version": event.version.version,
        "label": event.version.label,
        "rule_count": event.version.rule_count,
        "activated": event.activated,
        "previous_version": event.previous_version,
    }


class GatewayApp:
    """Owns the job queue, tenant manager and notification hub."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        clock: Optional[Clock] = None,
        store=None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.clock = clock or time.time
        #: Optional :class:`repro.store.RuleStore`: job transitions journal
        #: here and each tenant's registry recovers from a per-tenant
        #: substore, so a restarted gateway serves prior versions and
        #: surfaces the jobs the crash interrupted.
        self.store = store
        self.tenants = TenantManager(
            default_quota=self.config.default_quota,
            clock=self.clock,
            service_factory=self._tenant_service if store is not None else None,
        )
        self.jobs = JobQueue(
            workers=self.config.workers,
            history_limit=self.config.history_limit,
            clock=self.clock,
        )
        self.latency = LatencyTracker()
        self.jobs.on_transition = self._on_job_transition
        self.hub = NotificationHub(clock=self.clock)
        self._feeds: Dict[str, BoundedQueue] = {}  # open generation feeds by job id
        self._arenas: Dict[str, object] = {}  # lazy per-tenant ArenaRunner
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.interrupted_jobs: List[Job] = []  # recovered at start()

    def _tenant_service(self, name: str) -> ScanService:
        """Store-backed tenant slice: the registry recovers from (and
        journals into) ``<store root>/tenants/<name>``."""
        substore = self.store.substore("tenants", name)
        return ScanService(
            registry=RulesetRegistry.from_store(substore, namespace=name),
            config=ScanServiceConfig(mode="inprocess", recency_window=128),
        )

    # -- lifecycle ------------------------------------------------------------------
    async def start(self) -> "GatewayApp":
        self._loop = asyncio.get_running_loop()
        self.hub.bind(self._loop)
        if self.store is not None:
            self._recover_jobs()
        await self.jobs.start()
        return self

    async def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work and wind down.

        Open generation feeds are closed first (their jobs proceed to
        generate from what was fed), then the job queue drains in-flight
        jobs (``drain=True``) or cancels everything pending.
        """
        for job_id in list(self._feeds):
            feed = self._feeds.pop(job_id, None)
            if feed is not None:
                feed.close()
        await self.jobs.shutdown(drain=drain, timeout=timeout)

    @property
    def started(self) -> bool:
        return self._loop is not None

    # -- tenancy --------------------------------------------------------------------
    def register_tenant(
        self, name: str, quota: Optional[TenantQuota] = None
    ) -> Tenant:
        """Register a tenant and bridge its registry events into the hub."""
        tenant = self.tenants.register(name, quota)
        token = tenant.registry.subscribe(
            lambda event, t=name: self.hub.publish(t, "publish", _event_payload(event))
        )
        tenant.bridge_tokens.append(token)
        tenant.service.enable_live_rescan(
            on_delta=lambda delta, t=name: self.hub.publish(
                t, "rescan", delta.to_dict()
            )
        )
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Lookup, auto-registering when the config allows it."""
        try:
            return self.tenants.get(name)
        except UnknownTenant:
            if not self.config.auto_register:
                raise
            return self.register_tenant(name)

    def _admit(self, name: str) -> Tenant:
        tenant = self.tenant(name)
        pending = sum(
            1 for job in self.jobs.jobs(tenant=name) if not job.finished
        )
        return self.tenants.admit(name, pending_jobs=pending)

    # -- scan jobs ------------------------------------------------------------------
    async def submit_scan(
        self,
        tenant_name: str,
        packages: Sequence[Package],
        label: str = "",
    ) -> Job:
        """Queue a scan batch against the tenant's active ruleset version.

        Raises :class:`RateLimited` at admission; a missing ruleset fails
        the *job* (the submission itself is valid).
        """
        tenant = self._admit(tenant_name)
        batch = list(packages)
        if not batch:
            raise ValueError("scan batch is empty")
        loop = self._require_loop()
        tracer = get_tracer()

        async def run(job: Job) -> dict:
            with tracer.span_from(job.trace, "job.scan", job=job.id) as span:
                job_ctx = span.context  # explicit hand-off: executor threads

                # don't inherit the loop's contextvars
                def work() -> dict:
                    with tracer.activate(job_ctx):
                        result = tenant.service.scan_batch(batch)
                        return result.to_dict(include_detections=False)

                return await loop.run_in_executor(None, work)

        job = self.jobs.submit("scan", tenant_name, run, label=label)
        job.trace = tracer.carrier()
        return job

    # -- streaming generation feeds ---------------------------------------------------
    async def open_generation(self, tenant_name: str, label: str = "") -> Job:
        """Open a streaming generation feed as a job.

        The job consumes the feed (with backpressure) until
        :meth:`close_generation`, then runs the full stage chain and
        auto-publishes into the tenant's registry — which pushes a
        ``publish`` notification and triggers the tenant's live re-scan.
        """
        tenant = self._admit(tenant_name)
        loop = self._require_loop()
        feed = BoundedQueue(max_items=FEED_CAPACITY)
        session = GenerationSession(
            config=RuleLLMConfig.full(model=self.config.model, seed=self.config.seed),
            registry=tenant.registry,
            shard_label=tenant_name,
        )

        tracer = get_tracer()

        async def run(job: Job) -> dict:
            with tracer.span_from(job.trace, "job.generate", job=job.id) as span:
                job_ctx = span.context
                try:
                    consumed = await loop.run_in_executor(
                        None,
                        lambda: _with_ctx(
                            tracer, job_ctx, lambda: session.consume(feed, batch_size=64)
                        ),
                    )
                    result = await loop.run_in_executor(
                        None,
                        lambda: _with_ctx(
                            tracer,
                            job_ctx,
                            lambda: session.generate(label or job.label or tenant_name),
                        ),
                    )
                finally:
                    feed.close()
                    self._feeds.pop(job.id, None)
            counts = result.rule_set.counts()
            return {
                "consumed": consumed,
                "batches": len(result.batch_sizes),
                "rules": counts,
                "published_version": (
                    result.version.version if result.version is not None else None
                ),
                "summary": result.describe(),
            }

        job = self.jobs.submit("generate", tenant_name, run, label=label)
        job.trace = tracer.carrier()
        self._feeds[job.id] = feed
        return job

    async def feed_generation(
        self, tenant_name: str, job_id: str, packages: Iterable[Package]
    ) -> int:
        """Stream a batch of packages into an open generation feed."""
        self.job(tenant_name, job_id)  # ownership + existence check
        feed = self._feeds.get(job_id)
        if feed is None or feed.closed:
            raise LookupError(f"job {job_id!r} has no open generation feed")
        loop = self._require_loop()
        fed = 0
        for package in packages:
            accepted = await loop.run_in_executor(
                None,
                lambda p=package: feed.put(p, timeout=FEED_PUT_TIMEOUT),
            )
            if not accepted:  # the consumer is that far behind: shed load
                raise RateLimited(
                    f"generation feed {job_id!r} is backpressured",
                    retry_after=FEED_PUT_TIMEOUT,
                )
            fed += 1
        return fed

    async def close_generation(self, tenant_name: str, job_id: str) -> Job:
        """Close the feed; the job proceeds to generation and publish."""
        job = self.job(tenant_name, job_id)
        feed = self._feeds.pop(job_id, None)
        if feed is not None:
            feed.close()
        return job

    # -- arena rounds -----------------------------------------------------------------
    def _arena_runner(self, tenant: Tenant):
        """The tenant's arena runner, built on first use.

        Traffic replays a small seeded corpus (deterministic per gateway
        seed) against whatever version the tenant last published; refeed is
        off — a gateway arena job *measures*, the tenant decides what to
        regenerate.
        """
        runner = self._arenas.get(tenant.name)
        if runner is None:
            from repro.arena import (
                ArenaConfig,
                ArenaRunner,
                ReplayTraffic,
                TrafficConfig,
            )
            from repro.corpus import DatasetConfig, build_dataset

            dataset = build_dataset(
                DatasetConfig(scale=0.01, seed=self.config.seed)
            )
            traffic = ReplayTraffic(dataset.malware, TrafficConfig(
                seed=self.config.seed,
                packages_per_round=8,
                obfuscation_base=0.0,
                obfuscation_step=0.25,
            ))
            runner = ArenaRunner(
                tenant.service,
                traffic,
                config=ArenaConfig(refeed=False, seed=self.config.seed),
            )
            self._arenas[tenant.name] = runner
        return runner

    async def submit_arena(
        self, tenant_name: str, rounds: int = 1, label: str = ""
    ) -> Job:
        """Queue arena rounds against the tenant's active ruleset version.

        Each round replays seeded traffic, scores every rule and folds the
        verdicts into the tenant's leaderboard; the job result carries the
        round summaries and the current standings.  A tenant without a
        published version fails the *job*, not the submission.
        """
        tenant = self._admit(tenant_name)
        count = max(1, int(rounds))
        loop = self._require_loop()
        runner = self._arena_runner(tenant)
        tracer = get_tracer()

        async def run(job: Job) -> dict:
            with tracer.span_from(job.trace, "job.arena", job=job.id) as span:
                job_ctx = span.context
                return await loop.run_in_executor(
                    None, lambda: _with_ctx(tracer, job_ctx, work)
                )

        def work() -> dict:
            records = [runner.run_round() for _ in range(count)]
            return {
                "rounds": [
                    {
                        "index": record.index,
                        "version": record.version,
                        "packages": record.packages,
                        "malicious": record.malicious,
                        "retired_rules": record.retired_rules,
                        "actions": len(record.actions),
                    }
                    for record in records
                ],
                "leaderboard": [
                    entry.to_dict()
                    for entry in runner.leaderboard.rankings(limit=10)
                ],
                "summary": records[-1].describe(),
            }

        job = self.jobs.submit("arena", tenant_name, run, label=label)
        job.trace = tracer.carrier()
        return job

    # -- job access -------------------------------------------------------------------
    def job(self, tenant_name: str, job_id: str) -> Job:
        """A tenant's job; jobs of other tenants are indistinguishable from
        missing ones (no cross-tenant existence probing)."""
        job = self.jobs.get(job_id)
        if job.tenant != tenant_name:
            raise LookupError(f"unknown job {job_id!r}")
        return job

    def tenant_jobs(self, tenant_name: str) -> List[Job]:
        return self.jobs.jobs(tenant=tenant_name)

    async def await_job(
        self, tenant_name: str, job_id: str, timeout: Optional[float] = None
    ) -> Job:
        self.job(tenant_name, job_id)
        return await self.jobs.wait(job_id, timeout=timeout)

    def cancel_job(self, tenant_name: str, job_id: str) -> Job:
        job = self.job(tenant_name, job_id)
        feed = self._feeds.pop(job_id, None)
        if feed is not None:
            feed.close()
        self.jobs.cancel(job_id)
        return job

    # -- notifications ----------------------------------------------------------------
    def subscribe(self, tenant_name: str, from_start: bool = False) -> Subscription:
        self.tenant(tenant_name)
        return self.hub.subscribe(tenant_name, from_start=from_start)

    async def wait_notifications(
        self, tenant_name: str, after_seq: int = 0, timeout: float = 5.0
    ):
        self.tenant(tenant_name)
        return await self.hub.wait_for(tenant_name, after_seq, timeout)

    # -- durability -------------------------------------------------------------------
    def _on_job_transition(self, job: Job, state: str) -> None:
        """Journal every job transition and feed the latency histograms.

        Runs synchronously inside the queue's state changes: the journal
        record is durable before any client can observe the new state.
        """
        if state in TERMINAL_STATES:
            _JOBS_FINISHED.inc(kind=job.kind, state=state)
            if job.seconds is not None:
                self.latency.observe(job.tenant, job.kind, job.seconds)
        if self.store is None:
            return
        record_type = {QUEUED: "job-submitted", RUNNING: "job-started"}.get(
            state, "job-finished"
        )
        self.store.journal.append(record_type, self._job_record(job))

    @staticmethod
    def _job_record(job: Job) -> dict:
        return {
            "id": job.id,
            "tenant": job.tenant,
            "kind": job.kind,
            "label": job.label,
            "state": job.state,
            "error": job.error,
            "created_at": job.created_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
        }

    def _recover_jobs(self) -> None:
        """Surface the prior process's non-terminal jobs as ``interrupted``.

        Handlers are closures over live sessions and feeds — they cannot be
        replayed from a journal — so a job the crash caught mid-flight is
        marked terminal with an explicit state instead of silently
        vanishing.  The marking itself is journaled, which makes recovery
        idempotent across repeated restarts.
        """
        latest: Dict[str, dict] = {}
        for record in self.store.journal.replay():
            if record.type.startswith("job-"):
                data = record.data
                if data.get("id"):
                    latest[str(data["id"])] = data
        restored: List[Job] = []
        for job_id, data in latest.items():
            if data.get("state") in TERMINAL_STATES:
                continue
            job = Job(
                id=job_id,
                tenant=str(data.get("tenant", "")),
                kind=str(data.get("kind", "")),
                label=str(data.get("label", "")),
                state=INTERRUPTED,
                error="interrupted: gateway restarted mid-job",
                created_at=float(data.get("created_at", 0.0)),
                started_at=data.get("started_at"),
                finished_at=self.clock(),
            )
            restored.append(job)
            self.store.journal.append("job-finished", self._job_record(job))
        if restored:
            self.jobs.restore(restored)
        self.interrupted_jobs = restored

    # -- introspection ----------------------------------------------------------------
    def metrics(self) -> dict:
        """Operational snapshot: global job counts plus per-tenant depth.

        Everything here is already tracked (job states, token buckets,
        rejection counters) — this just folds it into one scrape-friendly
        document for dashboards and the ``GET /metrics`` endpoint.
        """
        tenants = []
        for tenant in self.tenants.tenants():
            tenant_jobs = self.jobs.jobs(tenant=tenant.name)
            tenants.append({
                "name": tenant.name,
                "queue_depth": sum(1 for j in tenant_jobs if j.state == QUEUED),
                "running": sum(1 for j in tenant_jobs if j.state == RUNNING),
                "terminal": sum(1 for j in tenant_jobs if j.finished),
                "jobs_submitted": tenant.jobs_submitted,
                "quota_rejections": tenant.rejected,
                "registry_versions": tenant.registry.versions(),
                "active_version": tenant.registry.current_version(),
                "latency": self.latency.tenant_dict(tenant.name),
            })
        return {
            "jobs": self.jobs.counts(),
            "tenants": tenants,
            "open_feeds": len(self._feeds),
            "accepting": self.jobs.accepting,
            "interrupted_jobs": len(self.interrupted_jobs),
        }

    def trace(self, trace_id: str) -> Optional[dict]:
        """Spans of one trace from the process tracer's ring buffer, or
        ``None`` when the id is unknown (or tracing is off)."""
        spans = get_tracer().spans(trace_id=trace_id)
        if not spans:
            return None
        return {"trace_id": trace_id, "spans": spans}

    def to_dict(self) -> dict:
        return {
            "tenants": [tenant.to_dict() for tenant in self.tenants.tenants()],
            "jobs": self.jobs.counts(),
            "open_feeds": len(self._feeds),
            "accepting": self.jobs.accepting,
        }

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("gateway not started; await GatewayApp.start() first")
        return self._loop


__all__ = [
    "GatewayApp",
    "GatewayConfig",
    "RateLimited",
    "RescanDelta",
    "TenantQuota",
    "UnknownTenant",
]
