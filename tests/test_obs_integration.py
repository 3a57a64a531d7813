"""End-to-end observability: one traced gateway scan request must form a
single connected span tree across the HTTP thread, the async job queue,
executor threads and the scan service's chunked dispatch; the fleet
orchestrator must keep its shard threads on one trace; and per-rule
telemetry must aggregate correctly under process-shard dispatch."""

import pytest

from repro.api import ClusterShardPlan, GenerationOrchestrator, RuleLLMConfig
from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.gateway import GatewayConfig, ThreadedGateway
from repro.obs import configure_tracing, disable_tracing, get_registry, get_tracer
from repro.scanserve import ScanService, ScanServiceConfig
from repro.yarax import compile_source

NEEDLE = "obs_trace_needle"


def _pkg(name: str, content: str) -> Package:
    return Package(
        name=name,
        version="1.0",
        metadata=PackageMetadata(name=name),
        files=[PackageFile(path=f"{name}.py", content=content)],
    )


def _targets(prefix: str, count: int = 6) -> list[Package]:
    return [
        _pkg(f"{prefix}-{i}", f"x = '{NEEDLE}' + str({i})") for i in range(count)
    ]


def _rules():
    return compile_source(
        f'rule obs_rule {{ strings: $a = "{NEEDLE}" condition: $a }}'
    )


@pytest.fixture()
def traced():
    tracer = configure_tracing()
    yield tracer
    disable_tracing()


def _tree_is_connected(spans: list[dict]) -> bool:
    ids = {s["span_id"] for s in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    return len(roots) == 1 and all(
        s["parent_id"] in ids for s in spans if s["parent_id"] is not None
    )


class TestGatewayTracePropagation:
    def test_traced_scan_request_is_one_connected_tree(self, traced):
        gateway = ThreadedGateway(GatewayConfig(workers=2)).start()
        try:
            client = gateway.client(timeout=30)
            client.register_tenant("traced")
            tenant = gateway.app.tenant("traced")
            tenant.service.config.shards = 2  # force chunked dispatch
            tenant.registry.publish(yara=_rules(), label="traced rules")

            job = client.submit_scan("traced", _targets("tr"))
            job = client.job("traced", job["id"], wait=30)
            assert job["state"] == "done"

            request_spans = [
                r for r in traced.spans()
                if r["name"] == "gateway.request"
                and r["attrs"].get("method") == "POST"
                and "/scan" in r["attrs"].get("path", "")
            ]
            assert len(request_spans) == 1
            trace_id = request_spans[0]["trace_id"]
            spans = traced.spans(trace_id=trace_id)

            # HTTP request -> async job -> scan batch -> per-chunk spans:
            # at least 6 spans, all on one trace, forming one tree rooted
            # at the HTTP request span
            assert len(spans) >= 6
            names = sorted(s["name"] for s in spans)
            assert names == [
                "gateway.request", "job.scan", "scan.batch",
                "scan.chunk", "scan.chunk", "scan.dispatch",
            ]
            assert _tree_is_connected(spans)
            (root,) = [s for s in spans if s["parent_id"] is None]
            assert root["name"] == "gateway.request"
            assert root["attrs"]["status"] == 202

            # the /trace endpoint serves the same records
            served = client.trace(trace_id)
            assert served["trace_id"] == trace_id
            assert len(served["spans"]) == len(spans)

            # Prometheus exposition and the legacy JSON coexist
            text = client.metrics_text()
            assert "# TYPE repro_scan_batches_total counter" in text
            assert 'repro_gateway_requests_total{method="POST",status="202"}' in text
            legacy = client.metrics()
            assert "jobs" in legacy and "tenants" in legacy
            snapshot = client.metrics_snapshot()
            assert "repro_gateway_jobs_total" in snapshot
        finally:
            gateway.stop()

    def test_untraced_requests_record_nothing(self):
        assert not get_tracer().enabled
        gateway = ThreadedGateway(GatewayConfig(workers=1)).start()
        try:
            client = gateway.client(timeout=30)
            client.register_tenant("quiet")
            before = len(get_tracer().spans())
            assert client.health()["ok"] is True
            assert len(get_tracer().spans()) == before
        finally:
            gateway.stop()


class TestFleetTracePropagation:
    def test_fleet_threads_share_one_trace(self, traced, malware_packages):
        orchestrator = GenerationOrchestrator(
            config=RuleLLMConfig.full(),
            plan=ClusterShardPlan(2),
            max_workers=2,
        )
        fleet = orchestrator.run(list(malware_packages), publish="none")
        assert fleet.shard_count >= 2

        spans = traced.spans()
        (fleet_span,) = [s for s in spans if s["name"] == "fleet.run"]
        trace = traced.spans(trace_id=fleet_span["trace_id"])
        # every shard ran on a pool thread yet stayed on the fleet's trace
        shard_spans = [s for s in trace if s["name"] == "fleet.shard"]
        assert len(shard_spans) == fleet.shard_count
        assert all(s["parent_id"] == fleet_span["span_id"] for s in shard_spans)
        shard_ids = {s["span_id"] for s in shard_spans}
        generate_spans = [s for s in trace if s["name"] == "session.generate"]
        assert len(generate_spans) == fleet.shard_count
        assert all(s["parent_id"] in shard_ids for s in generate_spans)
        # the cluster plan's one clustering pass runs before any shard
        (partition_span,) = [s for s in trace if s["name"] == "fleet.partition"]
        assert partition_span["parent_id"] == fleet_span["span_id"]
        assert partition_span["attrs"] == {
            "plan": "cluster", "packages": len(malware_packages),
        }
        assert {s["name"] for s in trace} >= {
            "fleet.run", "fleet.partition", "fleet.shard", "session.generate",
            "stage.cluster", "stage.craft", "stage.refine", "stage.align",
        }
        assert _tree_is_connected(trace)
        assert fleet_span["attrs"]["shards"] == fleet.shard_count


class TestProcessShardDispatch:
    def test_process_lane_spans_come_home(self, traced):
        service = ScanService(
            config=ScanServiceConfig(mode="process", shards=2, enable_cache=False)
        )
        service.publish(yara=_rules(), label="proc rules")
        batch = service.scan_batch(_targets("proc", count=8))
        assert batch.mode == "process"

        (batch_span,) = [
            s for s in traced.spans() if s["name"] == "scan.batch"
        ]
        trace = traced.spans(trace_id=batch_span["trace_id"])
        chunk_spans = [s for s in trace if s["name"] == "scan.chunk"]
        # workers have no tracer: their records ride back in the result
        # tuples and must still parent on this process's dispatch span
        assert len(chunk_spans) == 2
        assert sum(s["attrs"]["packages"] for s in chunk_spans) == 8
        assert _tree_is_connected(trace)

    def test_rule_telemetry_aggregates_across_process_shards(self):
        # regression pin: per-rule costs and ScanTimings looked like they
        # were dropped under process-shard chunked dispatch; they are in
        # fact shipped back per chunk and merged on the parent
        packages_before = (
            get_registry()
            .counter("repro_scan_packages_total")
            .labels()
            .value
        )
        service = ScanService(
            config=ScanServiceConfig(mode="process", shards=2, enable_cache=False)
        )
        service.publish(yara=_rules(), label="telemetry rules")
        batch = service.scan_batch(_targets("cost", count=8))
        assert batch.mode == "process"
        assert batch.packages == 8

        timings = batch.result.timings
        assert timings.packages == 8
        assert timings.total_seconds > 0.0
        assert timings.yara_seconds > 0.0

        top = service.top_slow_rules(5)
        assert top, "per-rule telemetry must survive process dispatch"
        (cost,) = [c for c in top if c.rule_key.endswith("obs_rule")]
        # every package contains the needle, so the atom prefilter sends
        # the rule to all 8 packages — across both process shards
        assert cost.evaluations == 8
        assert cost.total_seconds >= cost.max_seconds > 0.0
        assert cost.slowest_package.startswith("cost-")

        packages_after = (
            get_registry()
            .counter("repro_scan_packages_total")
            .labels()
            .value
        )
        assert packages_after == packages_before + 8
