"""repro.obs tracing: span trees, context propagation across threads and
serialized carriers, the ring buffer and JSONL sink, and the disabled
tracer's shared no-op span."""

import json
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    SpanContext,
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
    remote_span_record,
)


class TestSpanTrees:
    def test_nested_spans_share_one_trace(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        records = tracer.spans()
        # innermost finishes first
        assert [r["name"] for r in records] == ["grandchild", "child", "root"]
        assert len({r["trace_id"] for r in records}) == 1
        by_name = {r["name"]: r for r in records}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["grandchild"]["parent_id"] == by_name["child"]["span_id"]

    def test_sibling_spans_reparent_on_the_root(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["first"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["second"]["parent_id"] == by_name["root"]["span_id"]

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert len({r["trace_id"] for r in tracer.spans()}) == 2

    def test_attrs_and_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", packages=3) as span:
                span.set_attr("extra", "x")
                raise RuntimeError("nope")
        (record,) = tracer.spans()
        assert record["status"] == "error"
        assert record["attrs"]["packages"] == 3
        assert record["attrs"]["extra"] == "x"
        assert "RuntimeError" in record["attrs"]["error"]
        assert record["seconds"] >= 0.0

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        other = SpanContext(trace_id="t" * 32, span_id="s" * 16)
        with tracer.span("ambient"):
            with tracer.span("adopted", parent=other):
                pass
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["adopted"]["trace_id"] == other.trace_id
        assert by_name["adopted"]["parent_id"] == other.span_id


class TestPropagation:
    def test_carrier_round_trip(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            carrier = tracer.carrier()
            assert carrier == {
                "trace_id": root.trace_id,
                "span_id": root.span_id,
            }
            with tracer.span_from(carrier, "remote-child"):
                pass
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["remote-child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["remote-child"]["trace_id"] == by_name["root"]["trace_id"]

    def test_span_from_without_carrier_starts_a_root(self):
        tracer = Tracer()
        with tracer.span_from(None, "fresh"):
            pass
        (record,) = tracer.spans()
        assert record["parent_id"] is None

    def test_activate_carries_context_to_worker_threads(self):
        # ThreadPoolExecutor workers do not inherit contextvars; the
        # orchestrator hands them the parent context explicitly
        tracer = Tracer()
        with tracer.span("root") as root:
            ctx = root.context

            def worker():
                with tracer.activate(ctx):
                    with tracer.span("thread-child"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["thread-child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["thread-child"]["trace_id"] == by_name["root"]["trace_id"]

    def test_remote_span_record_builds_a_finished_child(self):
        carrier = {"trace_id": "t" * 32, "span_id": "s" * 16}
        record = remote_span_record(
            carrier, "scan.chunk", start_wall=123.456, seconds=0.25,
            attrs={"packages": 4},
        )
        assert record["trace_id"] == carrier["trace_id"]
        assert record["parent_id"] == carrier["span_id"]
        assert record["name"] == "scan.chunk"
        assert record["seconds"] == 0.25
        assert record["attrs"] == {"packages": 4}
        assert record["status"] == "ok"

    def test_remote_span_record_without_carrier_is_none(self):
        assert remote_span_record(None, "x", 0.0, 0.0) is None
        assert remote_span_record({}, "x", 0.0, 0.0) is None
        assert remote_span_record({"trace_id": "t"}, "x", 0.0, 0.0) is None

    def test_absorb_filters_junk(self):
        tracer = Tracer()
        good = remote_span_record(
            {"trace_id": "t" * 32, "span_id": "s" * 16}, "chunk", 0.0, 0.1
        )
        assert tracer.absorb([good, "junk", {"not": "a span"}, None]) == 1
        assert [r["name"] for r in tracer.spans()] == ["chunk"]


class TestRingAndSink:
    def test_ring_keeps_newest(self):
        tracer = Tracer(ring_size=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [r["name"] for r in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_sink_appends_jsonl(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        tracer = Tracer(sink=str(sink))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.close()
        lines = sink.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["trace_id"] == records[1]["trace_id"]

    def test_spans_filter_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        first, second = [r["trace_id"] for r in tracer.spans()]
        assert [r["name"] for r in tracer.spans(trace_id=first)] == ["a"]
        assert [r["name"] for r in tracer.spans(trace_id=second)] == ["b"]


class TestDisabledTracer:
    def test_disabled_span_is_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", packages=1)
        assert span is NULL_SPAN
        assert not span
        assert span.context is None
        with span as inner:
            inner.set_attr("k", "v")  # must be a silent no-op
        assert tracer.spans() == []
        assert tracer.current_context() is None
        assert tracer.carrier() is None
        assert tracer.span_from({"trace_id": "t", "span_id": "s"}, "x") is NULL_SPAN

    def test_global_tracer_configure_and_disable(self, tmp_path):
        sink = tmp_path / "global.jsonl"
        try:
            tracer = configure_tracing(sink=str(sink), ring_size=8)
            assert tracer is get_tracer()
            assert tracer.enabled
            with tracer.span("configured"):
                pass
            assert [r["name"] for r in tracer.spans()] == ["configured"]
        finally:
            disable_tracing()
        assert not get_tracer().enabled
        assert get_tracer().spans() == []
        assert get_tracer().span("after") is NULL_SPAN
        # the sink got the span before shutdown
        assert "configured" in sink.read_text(encoding="utf-8")
        # disabling restored the default ring capacity: the ring_size=8
        # above must not cap the next tracing session
        assert get_tracer()._ring.maxlen == 4096
