"""Golden test: the gateway's ``/metrics`` JSON must stay byte-stable.

Each ``(tenant, kind)`` latency histogram is a child of the app's
:class:`repro.obs.metrics.Histogram` family, rendered by
:func:`repro.gateway.app.latency_dict`.  These strings were captured from
the gateway's original implementation, so any drift in bucket layout,
quantile math, rounding, or key order — however well-intentioned — fails
here and must be an explicit decision.
"""

import json

from repro.gateway import GatewayApp
from repro.gateway.app import latency_dict
from repro.gateway.jobs import DONE, Job
from repro.obs import get_registry
from repro.obs.metrics import DEFAULT_BUCKETS, HistogramChild

# captured from the original implementation (pre repro.obs), verbatim
_HIST_GOLDEN = (
    '{"buckets": [{"count": 2, "le": 0.001}, {"count": 1, "le": 0.002}, '
    '{"count": 2, "le": 0.004}, {"count": 1, "le": 0.032}, '
    '{"count": 1, "le": 0.256}, {"count": 1, "le": 2.048}], "count": 9, '
    '"max_seconds": 70.0, "mean_seconds": 7.975311, "overflow": 1, '
    '"p50_seconds": 0.0035, "p99_seconds": 69.59824, "sum_seconds": 71.7778}'
)
_TRACKER_GOLDEN = (
    '{"generate": {"buckets": [{"count": 1, "le": 2.048}], "count": 1, '
    '"max_seconds": 1.25, "mean_seconds": 1.25, "overflow": 0, '
    '"p50_seconds": 1.536, "p99_seconds": 2.03776, "sum_seconds": 1.25}, '
    '"scan": {"buckets": [{"count": 1, "le": 0.002}, {"count": 1, "le": 0.004}, '
    '{"count": 1, "le": 0.064}], "count": 3, "max_seconds": 0.05, '
    '"mean_seconds": 0.018667, "overflow": 0, "p50_seconds": 0.003, '
    '"p99_seconds": 0.06304, "sum_seconds": 0.056}}'
)
_EMPTY_GOLDEN = (
    '{"buckets": [], "count": 0, "max_seconds": 0.0, "mean_seconds": null, '
    '"overflow": 0, "p50_seconds": null, "p99_seconds": null, '
    '"sum_seconds": 0.0}'
)


def _finish(app: GatewayApp, tenant: str, kind: str, seconds: float) -> None:
    """Pass one job that ran ``seconds`` through the app's job observer."""
    job = Job(
        id=f"{tenant}-{kind}-{seconds}",
        tenant=tenant,
        kind=kind,
        state=DONE,
        started_at=0.0,
        finished_at=seconds,
    )
    app._on_job_transition(job, DONE)


def _latency(app: GatewayApp, tenant: str) -> dict:
    return next(t["latency"] for t in app.metrics()["tenants"] if t["name"] == tenant)


class TestLatencyHistogramGolden:
    def test_histogram_json_is_byte_stable(self):
        histogram = HistogramChild()
        for seconds in (0.0005, 0.0012, 0.003, 0.0031, 0.02, 0.25, 1.5, 70.0, 0.0):
            histogram.observe(seconds)
        assert json.dumps(latency_dict(histogram), sort_keys=True) == _HIST_GOLDEN

    def test_empty_histogram_json_is_byte_stable(self):
        assert (
            json.dumps(latency_dict(HistogramChild()), sort_keys=True)
            == _EMPTY_GOLDEN
        )


class TestLatencyTrackerGolden:
    def test_tenant_dict_is_byte_stable(self):
        app = GatewayApp()
        app.register_tenant("acme")
        app.register_tenant("unknown")
        for seconds in (0.002, 0.004, 0.05):
            _finish(app, "acme", "scan", seconds)
        _finish(app, "acme", "generate", 1.25)
        assert json.dumps(_latency(app, "acme"), sort_keys=True) == _TRACKER_GOLDEN
        assert _latency(app, "unknown") == {}

    def test_trackers_are_isolated_per_instance(self):
        # another app's observations must never leak into this app's JSON
        first, second = GatewayApp(), GatewayApp()
        for app in (first, second):
            app.register_tenant("shared-tenant-name")
        _finish(first, "shared-tenant-name", "scan", 0.01)
        assert _latency(first, "shared-tenant-name")["scan"]["count"] == 1
        assert _latency(second, "shared-tenant-name") == {}

    def test_observations_mirror_into_the_global_registry(self):
        tenant = "golden-mirror-tenant"  # unique: the mirror family is global
        app = GatewayApp()
        _finish(app, tenant, "scan", 0.01)
        _finish(app, tenant, "scan", 0.02)
        family = get_registry().get("repro_gateway_job_seconds")
        assert family is not None and family is not app.latency
        for histograms in (family, app.latency):
            assert histograms.labelnames == ("tenant", "kind")
            assert histograms.buckets == DEFAULT_BUCKETS
        child = family.labels(tenant=tenant, kind="scan")
        counts, total, total_sum, observed_max = child.snapshot()
        assert total == 2
        assert round(total_sum, 6) == 0.03
        assert observed_max == 0.02
