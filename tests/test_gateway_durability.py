"""Gateway durability: journaled job lifecycles, interrupted-job recovery
after a restart, per-tenant registries recovered from the store, and the
per-tenant latency histograms in ``/metrics``."""

from __future__ import annotations

import asyncio

import pytest

from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.gateway import GatewayApp, GatewayConfig
from repro.gateway.app import latency_dict
from repro.gateway.jobs import DONE, INTERRUPTED, TERMINAL_STATES
from repro.obs.metrics import DEFAULT_BUCKETS, HistogramChild
from repro.store import open_store
from repro.yarax import compile_source

NEEDLE = "durable_evil_needle"


def _pkg(name: str, content: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=content)],
    )


def _targets(count: int = 3) -> list[Package]:
    bad = _pkg("pkg-bad", f"payload = '{NEEDLE}'")
    return [bad] + [
        _pkg(f"pkg-ok-{i}", "def useful(): return 1") for i in range(count - 1)
    ]


def _publish_rules(app: GatewayApp, tenant: str) -> None:
    app.tenant(tenant).registry.publish(
        yara=compile_source(
            f'rule dur {{ strings: $a = "{NEEDLE}" condition: $a }}'
        ),
        label=f"{tenant} rules",
    )


def run(coro):
    return asyncio.run(coro)


class TestLatencyHistogram:
    def test_quantiles_interpolate(self):
        histogram = HistogramChild()
        for ms in (1, 2, 3, 4, 100):
            histogram.observe(ms / 1000.0)
        assert histogram.count == 5
        summary = latency_dict(histogram)
        assert summary["count"] == 5
        assert 0.001 <= summary["p50_seconds"] <= 0.01
        # interpolation is bounded by the bucket holding the max (0.128s
        # for a 0.1s observation), never by more than one bucket width
        assert summary["p50_seconds"] <= summary["p99_seconds"] <= 0.128
        assert summary["max_seconds"] == pytest.approx(0.1)

    def test_overflow_bucket_caps_at_observed_max(self):
        histogram = HistogramChild()
        beyond = DEFAULT_BUCKETS[-1] * 4
        histogram.observe(beyond)
        summary = latency_dict(histogram)
        assert summary["overflow"] == 1
        # the +Inf bucket interpolates toward the observed max, so the
        # estimate stays finite and below it — never past the real tail
        assert DEFAULT_BUCKETS[-1] < summary["p99_seconds"] <= beyond
        assert summary["max_seconds"] == pytest.approx(beyond)

    def test_empty_histogram_reports_no_quantiles(self):
        summary = latency_dict(HistogramChild())
        assert summary["count"] == 0
        assert summary["p50_seconds"] is None
        assert summary["mean_seconds"] is None
        assert summary["buckets"] == []

    def test_tracker_keys_by_tenant_and_kind(self):
        app = GatewayApp(GatewayConfig())
        for name in ("acme", "umbrella", "nobody"):
            app.register_tenant(name)
        app.latency.observe(0.004, tenant="acme", kind="scan")
        app.latency.observe(0.008, tenant="acme", kind="scan")
        app.latency.observe(1.5, tenant="acme", kind="generate")
        app.latency.observe(0.1, tenant="umbrella", kind="scan")
        latency = {t["name"]: t["latency"] for t in app.metrics()["tenants"]}
        assert sorted(latency["acme"]) == ["generate", "scan"]
        assert latency["acme"]["scan"]["count"] == 2
        assert latency["acme"]["generate"]["count"] == 1
        assert latency["umbrella"]["scan"]["count"] == 1
        assert latency["nobody"] == {}


class TestJobJournal:
    def test_job_lifecycle_is_journaled(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)

        async def main():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            _publish_rules(app, "acme")
            job = await app.submit_scan("acme", _targets())
            job = await app.await_job("acme", job.id, timeout=30)
            assert job.state == DONE
            await app.shutdown()
            return job.id

        job_id = run(main())
        store.close()

        store, _ = open_store(tmp_path / "store", durable=False)
        with store:
            types = {}
            for record in store.journal.replay():
                if record.data.get("id") == job_id:
                    types[record.type] = record.data
            assert set(types) == {"job-submitted", "job-started", "job-finished"}
            assert types["job-finished"]["state"] == DONE
            assert types["job-finished"]["tenant"] == "acme"

    def test_restart_marks_inflight_jobs_interrupted(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        # simulate the journal a crashed gateway leaves: a job that was
        # submitted and started but never reached a terminal state
        store.journal.append("job-submitted", {
            "id": "scan-7", "tenant": "acme", "kind": "scan",
            "label": "batch", "state": "queued",
        })
        store.journal.append("job-started", {
            "id": "scan-7", "tenant": "acme", "kind": "scan",
            "label": "batch", "state": "running",
        })
        store.close()

        store, _ = open_store(tmp_path / "store", durable=False)

        async def main():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            assert len(app.interrupted_jobs) == 1
            zombie = app.interrupted_jobs[0]
            assert zombie.id == "scan-7"
            assert zombie.state == INTERRUPTED
            assert zombie.state in TERMINAL_STATES
            assert "interrupted" in zombie.error
            # the recovered job is addressable through the normal API
            assert app.jobs.get("scan-7").state == INTERRUPTED
            assert app.metrics()["interrupted_jobs"] == 1
            await app.shutdown()

        run(main())
        store.close()

    def test_interrupted_marking_is_idempotent_across_restarts(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        store.journal.append("job-submitted", {
            "id": "scan-1", "tenant": "acme", "kind": "scan",
            "label": "", "state": "queued",
        })
        store.close()

        for _ in range(2):  # two restarts: second sees the journaled marking
            store, _ = open_store(tmp_path / "store", durable=False)

            async def main():
                app = await GatewayApp(GatewayConfig(), store=store).start()
                await app.shutdown()
                return len(app.interrupted_jobs)

            first_restart_interrupted = run(main())
            store.close()

        # after the first restart journaled the interruption, the second
        # restart must not resurrect the job as interrupted again
        assert first_restart_interrupted == 0

    def test_new_job_ids_do_not_collide_with_recovered_ones(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)
        store.journal.append("job-started", {
            "id": "scan-3", "tenant": "acme", "kind": "scan",
            "label": "", "state": "running",
        })
        store.close()

        store, _ = open_store(tmp_path / "store", durable=False)

        async def main():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            _publish_rules(app, "acme")
            job = await app.submit_scan("acme", _targets())
            # the restored id counter starts past the recovered job
            assert int(job.id.rsplit("-", 1)[1]) > 3
            job = await app.await_job("acme", job.id, timeout=30)
            assert job.state == DONE
            await app.shutdown()

        run(main())
        store.close()


class TestTenantRegistryDurability:
    def test_tenant_registry_recovers_from_substore(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)

        async def first_life():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            _publish_rules(app, "acme")
            app.tenant("acme").registry.snapshot()
            await app.shutdown()

        run(first_life())
        store.close()

        store, _ = open_store(tmp_path / "store", durable=False)

        async def second_life():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            registry = app.tenant("acme").registry
            assert registry.versions() == [1]
            assert registry.current_version() == 1
            # the recovered ruleset actually scans
            job = await app.submit_scan("acme", _targets())
            job = await app.await_job("acme", job.id, timeout=30)
            assert job.state == DONE
            assert job.result["malicious"] == 1
            await app.shutdown()

        run(second_life())
        store.close()

    def test_tenants_get_isolated_substores(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)

        async def main():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            app.register_tenant("umbrella")
            _publish_rules(app, "acme")
            assert app.tenant("acme").registry.versions() == [1]
            assert app.tenant("umbrella").registry.versions() == []
            await app.shutdown()

        run(main())
        store.close()
        assert (tmp_path / "store" / "tenants" / "acme" / "journal").is_dir()


class TestMetricsLatency:
    def test_metrics_report_per_tenant_latency(self, tmp_path):
        store, _ = open_store(tmp_path / "store", durable=False)

        async def main():
            app = await GatewayApp(GatewayConfig(), store=store).start()
            app.register_tenant("acme")
            _publish_rules(app, "acme")
            for _ in range(3):
                job = await app.submit_scan("acme", _targets())
                await app.await_job("acme", job.id, timeout=30)
            metrics = app.metrics()
            tenant = next(t for t in metrics["tenants"] if t["name"] == "acme")
            scan = tenant["latency"]["scan"]
            assert scan["count"] == 3
            assert scan["p50_seconds"] >= 0.0
            assert scan["p99_seconds"] >= scan["p50_seconds"]
            assert scan["sum_seconds"] >= 0.0
            await app.shutdown()

        run(main())
        store.close()

    def test_latency_tracked_without_store_too(self):
        async def main():
            app = await GatewayApp(GatewayConfig()).start()
            app.register_tenant("acme")
            _publish_rules(app, "acme")
            job = await app.submit_scan("acme", _targets())
            await app.await_job("acme", job.id, timeout=30)
            tenant = next(
                t for t in app.metrics()["tenants"] if t["name"] == "acme"
            )
            assert tenant["latency"]["scan"]["count"] == 1
            await app.shutdown()

        run(main())
