"""GatewayApp acceptance tests: two concurrent tenants with isolated
namespaces and notification streams, deterministic rate limiting with
``retry_after``, job cancellation, and graceful shutdown draining.

Everything runs on a real event loop via ``asyncio.run``; quota timing is
driven by an injected fake clock so no test depends on wall-clock speed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.gateway import (
    GatewayApp,
    GatewayConfig,
    NotificationHub,
    RateLimited,
    TenantQuota,
    UnknownTenant,
)
from repro.gateway.jobs import CANCELLED, DONE, FAILED
from repro.yarax import compile_source

NEEDLE = "gateway_evil_needle"


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _pkg(name: str, content: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=content)],
    )


def _targets(prefix: str = "pkg", count: int = 3) -> list[Package]:
    bad = _pkg(f"{prefix}-bad", f"payload = '{NEEDLE}'")
    benign = [
        _pkg(f"{prefix}-ok-{i}", "def useful(): return 1") for i in range(count - 1)
    ]
    return [bad, *benign]


def _publish_tiny_rules(app: GatewayApp, tenant: str, rule: str = "gw") -> None:
    app.tenant(tenant).registry.publish(
        yara=compile_source(
            f'rule {rule} {{ strings: $a = "{NEEDLE}" condition: $a }}'
        ),
        label=f"{tenant} rules",
    )


def run(coro):
    return asyncio.run(coro)


async def started_app(config=None, clock=None) -> GatewayApp:
    return await GatewayApp(config or GatewayConfig(), clock=clock).start()


class TestTenantIsolation:
    def test_publishes_push_only_to_their_own_tenant(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            app.register_tenant("umbrella")
            sub_a = app.subscribe("acme")
            sub_b = app.subscribe("umbrella")

            _publish_tiny_rules(app, "acme")
            note = await sub_a.next(timeout=5)
            assert note is not None
            assert note.kind == "publish"
            assert note.payload["namespace"] == "acme"
            assert note.payload["version"] == 1
            # acme's publish must never surface on umbrella's stream
            assert await sub_b.next(timeout=0.1) is None

            _publish_tiny_rules(app, "umbrella")
            note_b = await sub_b.next(timeout=5)
            assert note_b is not None and note_b.payload["namespace"] == "umbrella"
            await app.shutdown()
        run(main())

    def test_registries_are_independent_namespaces(self):
        async def main():
            app = await started_app()
            acme = app.register_tenant("acme")
            umbrella = app.register_tenant("umbrella")
            assert acme.registry is not umbrella.registry
            assert acme.registry.namespace == "acme"
            _publish_tiny_rules(app, "acme")
            _publish_tiny_rules(app, "acme", rule="gw2")
            _publish_tiny_rules(app, "umbrella")
            # versions are per-namespace, not global
            assert acme.registry.versions() == [1, 2]
            assert umbrella.registry.versions() == [1]
            await app.shutdown()
        run(main())

    def test_concurrent_tenants_scan_their_own_rulesets(self):
        async def main():
            app = await started_app(GatewayConfig(workers=3))
            for tenant in ("acme", "umbrella"):
                app.register_tenant(tenant)
                _publish_tiny_rules(app, tenant)

            async def session(tenant: str) -> dict:
                job = await app.submit_scan(tenant, _targets(tenant))
                job = await app.await_job(tenant, job.id, timeout=30)
                assert job.state == DONE
                return job.result

            acme, umbrella = await asyncio.gather(
                session("acme"), session("umbrella")
            )
            assert acme["flagged"] == ["acme-bad==1.0"]
            assert umbrella["flagged"] == ["umbrella-bad==1.0"]
            await app.shutdown()
        run(main())

    def test_job_ownership_is_tenant_scoped(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            app.register_tenant("umbrella")
            _publish_tiny_rules(app, "acme")
            job = await app.submit_scan("acme", _targets())
            # the other tenant cannot see, await, or cancel it
            with pytest.raises(LookupError):
                app.job("umbrella", job.id)
            with pytest.raises(LookupError):
                await app.await_job("umbrella", job.id)
            with pytest.raises(LookupError):
                app.cancel_job("umbrella", job.id)
            assert await app.await_job("acme", job.id, timeout=30)
            await app.shutdown()
        run(main())

    def test_unknown_tenant_without_auto_register(self):
        async def main():
            app = await started_app(GatewayConfig(auto_register=False))
            with pytest.raises(UnknownTenant):
                app.tenant("ghost")
            with pytest.raises(UnknownTenant):
                await app.submit_scan("ghost", _targets())
            await app.shutdown()
        run(main())


class TestRateLimiting:
    def test_limited_tenant_backs_off_while_other_proceeds(self):
        async def main():
            clock = FakeClock()
            app = await started_app(clock=clock)
            app.register_tenant(
                "tiny", TenantQuota(capacity=2, refill_per_second=0.5)
            )
            app.register_tenant("big")
            for tenant in ("tiny", "big"):
                _publish_tiny_rules(app, tenant)

            first = await app.submit_scan("tiny", _targets("a"))
            second = await app.submit_scan("tiny", _targets("b"))
            with pytest.raises(RateLimited) as excinfo:
                await app.submit_scan("tiny", _targets("c"))
            # deficit of one token at 0.5 tokens/s -> retry in exactly 2s
            assert excinfo.value.retry_after == pytest.approx(2.0)

            # the other tenant is entirely unaffected by tiny's rejection
            other = await app.submit_scan("big", _targets("big"))
            other = await app.await_job("big", other.id, timeout=30)
            assert other.state == DONE

            # honouring retry_after makes the retry succeed deterministically
            clock.advance(2.0)
            third = await app.submit_scan("tiny", _targets("c"))
            for job in (first, second, third):
                assert (await app.await_job("tiny", job.id, timeout=30)).state == DONE
            tenant = app.tenant("tiny")
            assert tenant.jobs_submitted == 3
            assert tenant.rejected == 1
            await app.shutdown()
        run(main())

    def test_pending_job_ceiling_rejects_with_retry_after(self):
        async def main():
            clock = FakeClock()
            app = await started_app(clock=clock)
            app.register_tenant(
                "cap",
                TenantQuota(capacity=100, refill_per_second=2.0, max_pending_jobs=1),
            )
            _publish_tiny_rules(app, "cap")
            feed = await app.open_generation("cap")  # stays pending until closed
            with pytest.raises(RateLimited) as excinfo:
                await app.submit_scan("cap", _targets())
            assert excinfo.value.retry_after == pytest.approx(0.5)
            await app.close_generation("cap", feed.id)
            await app.await_job("cap", feed.id, timeout=60)
            # slot freed: admission succeeds again
            job = await app.submit_scan("cap", _targets())
            assert (await app.await_job("cap", job.id, timeout=30)).state == DONE
            await app.shutdown()
        run(main())


class TestJobsAndCancellation:
    def test_cancel_queued_scan_behind_open_feed(self):
        async def main():
            app = await started_app(GatewayConfig(workers=1))
            app.register_tenant("acme")
            _publish_tiny_rules(app, "acme")
            # the open generation feed occupies the single worker...
            feed = await app.open_generation("acme")
            queued = await app.submit_scan("acme", _targets())
            cancelled = app.cancel_job("acme", queued.id)
            assert (await app.await_job("acme", queued.id, timeout=5)).state == CANCELLED
            assert cancelled.cancel_requested
            # ...and finishes normally once closed
            await app.close_generation("acme", feed.id)
            assert (await app.await_job("acme", feed.id, timeout=60)).state == DONE
            await app.shutdown()
        run(main())

    def test_cancel_open_generation_closes_its_feed(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            feed = await app.open_generation("acme")
            app.cancel_job("acme", feed.id)
            job = await app.await_job("acme", feed.id, timeout=10)
            assert job.state == CANCELLED
            # the feed is gone: further streaming is an error, not a hang
            with pytest.raises(LookupError):
                await app.feed_generation("acme", feed.id, _targets())
            await app.shutdown()
        run(main())

    def test_empty_scan_batch_is_rejected_at_submission(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            with pytest.raises(ValueError):
                await app.submit_scan("acme", [])
            await app.shutdown()
        run(main())

    def test_scan_without_published_ruleset_fails_the_job(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            job = await app.submit_scan("acme", _targets())  # submission is valid
            job = await app.await_job("acme", job.id, timeout=30)
            assert job.state == FAILED
            assert "LookupError" in job.error
            await app.shutdown()
        run(main())


class TestGracefulShutdown:
    def test_drain_finishes_inflight_jobs(self):
        async def main():
            app = await started_app(GatewayConfig(workers=2))
            app.register_tenant("acme")
            _publish_tiny_rules(app, "acme")
            jobs = [
                await app.submit_scan("acme", _targets(f"batch{i}"))
                for i in range(4)
            ]
            await app.shutdown(drain=True, timeout=60)
            assert [job.state for job in jobs] == [DONE] * 4
            assert not app.jobs.accepting
            with pytest.raises(RuntimeError):
                await app.submit_scan("acme", _targets())
        run(main())

    def test_shutdown_closes_open_feeds_so_their_jobs_finish(self):
        async def main():
            app = await started_app()
            app.register_tenant("acme")
            feed = await app.open_generation("acme", label="interrupted")
            await app.shutdown(drain=True, timeout=60)
            # the feed was force-closed; the job ran generation on an empty
            # corpus and finished (failed is acceptable, hanging is not)
            assert feed.state in (DONE, FAILED)
        run(main())


class TestNotificationHub:
    def test_cursor_and_backlog_semantics(self):
        async def main():
            hub = NotificationHub(backlog=8)
            hub.bind(asyncio.get_running_loop())
            for i in range(3):
                hub.publish("t", "job", {"i": i})
            assert hub.current_seq("t") == 3
            assert [n.seq for n in hub.pending("t", after_seq=1)] == [2, 3]
            replay = hub.subscribe("t", from_start=True)
            assert [n.payload["i"] for n in replay.drain()] == [0, 1, 2]
            fresh = hub.subscribe("t")  # push-only: starts at the tip
            assert fresh.drain() == []
        run(main())

    def test_backlog_overflow_drops_oldest_and_counts(self):
        async def main():
            hub = NotificationHub(backlog=2)
            hub.bind(asyncio.get_running_loop())
            for i in range(5):
                hub.publish("t", "job", {"i": i})
            assert hub.current_seq("t") == 5  # every publish is numbered
            assert [n.seq for n in hub.pending("t")] == [4, 5]  # oldest gone
        run(main())

    def test_wait_for_wakes_on_publish_and_times_out_empty(self):
        async def main():
            hub = NotificationHub()
            hub.bind(asyncio.get_running_loop())
            assert await hub.wait_for("t", timeout=0.05) == []  # long-poll timeout

            async def later():
                await asyncio.sleep(0.01)
                hub.publish("t", "publish", {"version": 1})

            task = asyncio.create_task(later())
            got = await hub.wait_for("t", timeout=5)
            assert [n.kind for n in got] == ["publish"]
            await task
        run(main())

    def test_publish_from_foreign_thread_is_trampolined(self):
        async def main():
            hub = NotificationHub()
            hub.bind(asyncio.get_running_loop())
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: hub.publish("t", "rescan", {"from": "thread"})
            )
            got = await hub.wait_for("t", timeout=5)
            assert [n.payload["from"] for n in got] == ["thread"]
        run(main())
