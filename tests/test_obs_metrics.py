"""repro.obs metrics: the labeled registry (counters, gauges, log-bucketed
histograms), the Prometheus text exposition golden, and the span/table
renderers behind ``rulellm obs``."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_metrics_table,
    format_span_tree,
    get_registry,
    render_prometheus,
    slowest_spans,
    span_forest,
)
from repro.obs.metrics import HistogramChild


class TestCounters:
    def test_unlabeled_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5

    def test_labeled_counter_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("lane",))
        counter.inc(lane="a")
        counter.inc(3, lane="b")
        assert counter.labels(lane="a").value == 1
        assert counter.labels(lane="b").value == 3

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("lane",))
        with pytest.raises(ValueError):
            counter.inc(wrong="x")
        with pytest.raises(ValueError):
            counter.labels()

    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("lane",))
        again = registry.counter("c_total", "help", ("lane",))
        assert first is again

    def test_re_registration_with_different_shape_fails(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("lane",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "help", ("other",))
        with pytest.raises(ValueError):
            registry.gauge("c_total")

    def test_reset_clears_values_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(5)
        registry.reset()
        assert registry.get("c_total") is counter
        assert counter.labels().value == 0


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.labels().value == 7.0


class TestHistograms:
    def test_default_buckets_are_log_spaced(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert DEFAULT_BUCKETS[-1] == pytest.approx(0.001 * 2 ** 16)
        assert len(DEFAULT_BUCKETS) == 17

    def test_observe_and_snapshot(self):
        child = HistogramChild(buckets=(0.5, 2.0))
        for value in (0.25, 1.0, 5.0):
            child.observe(value)
        counts, total, total_sum, observed_max = child.snapshot()
        assert counts == [1, 1, 1]  # per-bucket + overflow
        assert total == 3
        assert total_sum == pytest.approx(6.25)
        assert observed_max == 5.0
        assert child.count == 3

    def test_quantiles_match_the_gateway_math(self):
        # same observations the gateway's /metrics golden test uses: the
        # histogram math moved here and must keep producing those numbers
        child = HistogramChild()
        for value in (0.0005, 0.0012, 0.003, 0.0031, 0.02, 0.25, 1.5, 70.0, 0.0):
            child.observe(value)
        assert round(child.quantile(0.50), 6) == 0.0035
        assert round(child.quantile(0.99), 6) == 69.59824
        assert child.quantile(0.0) == 0.0

    def test_empty_histogram_quantile_is_none(self):
        child = HistogramChild()
        assert child.quantile(0.5) is None
        with pytest.raises(ValueError):
            child.quantile(1.5)

    def test_bucket_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            HistogramChild(buckets=(0.0, 1.0))
        with pytest.raises(ValueError):
            HistogramChild(buckets=())


class TestPrometheusExposition:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        jobs = registry.counter("repro_jobs_total", "Jobs by kind.", ("kind",))
        jobs.inc(kind="scan")
        jobs.inc(2, kind="generate")
        registry.gauge("repro_queue_depth", "Current queue depth.").set(3)
        latency = registry.histogram(
            "repro_job_seconds", "Job latency.", ("kind",), buckets=(0.5, 2.0)
        )
        for value in (0.25, 1.0, 5.0):
            latency.observe(value, kind="scan")
        return registry

    def test_golden_exposition(self):
        expected = (
            "# HELP repro_job_seconds Job latency.\n"
            "# TYPE repro_job_seconds histogram\n"
            'repro_job_seconds_bucket{kind="scan",le="0.5"} 1\n'
            'repro_job_seconds_bucket{kind="scan",le="2"} 2\n'
            'repro_job_seconds_bucket{kind="scan",le="+Inf"} 3\n'
            'repro_job_seconds_sum{kind="scan"} 6.25\n'
            'repro_job_seconds_count{kind="scan"} 3\n'
            "# HELP repro_jobs_total Jobs by kind.\n"
            "# TYPE repro_jobs_total counter\n"
            'repro_jobs_total{kind="generate"} 2\n'
            'repro_jobs_total{kind="scan"} 1\n'
            "# HELP repro_queue_depth Current queue depth.\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 3\n"
        )
        assert render_prometheus(self._registry()) == expected

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "h", ("name",)).inc(
            name='we"ird\\label\nvalue'
        )
        text = render_prometheus(registry)
        assert 'c_total{name="we\\"ird\\\\label\\nvalue"} 1\n' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_snapshot_shape(self):
        snapshot = self._registry().snapshot()
        assert set(snapshot) == {
            "repro_job_seconds", "repro_jobs_total", "repro_queue_depth",
        }
        histogram = snapshot["repro_job_seconds"]
        assert histogram["type"] == "histogram"
        (series,) = histogram["series"]
        assert series["labels"] == {"kind": "scan"}
        assert series["count"] == 3
        assert series["overflow"] == 1
        assert series["buckets"] == [
            {"le": 0.5, "count": 1},
            {"le": 2.0, "count": 1},
        ]
        counter = snapshot["repro_jobs_total"]
        assert {tuple(s["labels"].items()): s["value"] for s in counter["series"]} == {
            (("kind", "generate"),): 2.0,
            (("kind", "scan"),): 1.0,
        }

    def test_metrics_table_renders_every_family(self):
        table = format_metrics_table(self._registry().snapshot())
        assert "repro_jobs_total (counter)" in table
        assert "{kind=generate}" in table
        assert "count=3" in table
        assert "repro_queue_depth (gauge)" in table


_RECORDS = [
    {"trace_id": "t1", "span_id": "a", "parent_id": None, "name": "root",
     "start": 1.0, "seconds": 0.004, "status": "ok", "attrs": {"n": 2}},
    {"trace_id": "t1", "span_id": "b", "parent_id": "a", "name": "first",
     "start": 1.1, "seconds": 0.001, "status": "ok", "attrs": {}},
    {"trace_id": "t1", "span_id": "c", "parent_id": "a", "name": "second",
     "start": 1.2, "seconds": 0.0005, "status": "error", "attrs": {}},
]


class TestSpanRendering:
    def test_span_forest_builds_the_tree(self):
        (root,) = span_forest(_RECORDS)
        assert root["name"] == "root"
        assert [child["name"] for child in root["children"]] == [
            "first", "second",
        ]

    def test_orphans_become_roots(self):
        orphan = {"trace_id": "t2", "span_id": "z", "parent_id": "missing",
                  "name": "lost", "start": 2.0, "seconds": 0.1,
                  "status": "ok", "attrs": {}}
        roots = span_forest(_RECORDS + [orphan])
        assert sorted(r["name"] for r in roots) == ["lost", "root"]

    def test_format_span_tree_golden(self):
        expected = (
            "trace t1\n"
            "root  4.0ms  [n=2]\n"
            "├─ first  1.0ms\n"
            "└─ second  0.5ms !error\n"
        )
        assert format_span_tree(_RECORDS) == expected

    def test_format_span_tree_filters_by_trace(self):
        assert format_span_tree(_RECORDS, trace_id="nope") == ""

    def test_slowest_spans_ranks_by_duration(self):
        assert [r["name"] for r in slowest_spans(_RECORDS, limit=2)] == [
            "root", "first",
        ]
        assert slowest_spans(_RECORDS, limit=0) == []
