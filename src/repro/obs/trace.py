"""Span-tree tracing with cross-thread and cross-process propagation.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans form a
tree via ``trace_id`` / ``span_id`` / ``parent_id``; the ambient current
span is tracked in a :mod:`contextvars` variable so nesting works across
``await`` points and — via :meth:`Tracer.activate` — across worker
threads that were handed an explicit :class:`SpanContext`.

Process-pool workers cannot share the contextvar, so the span context is
serialized into chunk envelopes as a plain dict; workers build finished
span *records* with :func:`remote_span_record` and ship them back to the
parent, which folds them into its ring buffer with
:meth:`Tracer.absorb`.

Finished spans land in a bounded ring buffer (newest win) and, when a
sink path is configured, are appended as JSON lines.  A full atomic dump
of the ring is available via :meth:`Tracer.export` (crash-safe through
:mod:`repro.utils.atomic`).
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional


__all__ = [
    "SpanContext",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
    "remote_span_record",
]


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: trace id + span id."""

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, str]]) -> Optional["SpanContext"]:
        if not data:
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(trace_id=str(trace_id), span_id=str(span_id))


class Span:
    """A single timed operation.  Use as a context manager."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "status",
        "start_wall",
        "_start_perf",
        "seconds",
        "_token",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(8)
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()
        self.seconds = 0.0
        self._token: Optional[contextvars.Token] = None
        self._finished = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self.context)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.finish()
        return False

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.seconds = time.perf_counter() - self._start_perf
        self.tracer._record(self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start_wall, 6),
            "seconds": round(self.seconds, 6),
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    context = None

    def set_attr(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def finish(self) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

_CURRENT_SPAN: contextvars.ContextVar[Optional[SpanContext]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class _Activation:
    """Context manager that installs an explicit span context as ambient."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[SpanContext]) -> None:
        self._ctx = ctx
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[SpanContext]:
        self._token = _CURRENT_SPAN.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        return False


#: Ring capacity a tracer starts with (and returns to on disable).
DEFAULT_RING_SIZE = 4096


class Tracer:
    """Produces spans, keeps a bounded ring of finished ones, sinks JSONL.

    ``enabled=False`` makes :meth:`span` return the shared
    :data:`NULL_SPAN` — no allocation, no clock reads.
    """

    def __init__(
        self,
        enabled: bool = True,
        ring_size: int = DEFAULT_RING_SIZE,
        sink: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self._ring: deque = deque(maxlen=max(1, int(ring_size)))
        self._lock = threading.Lock()
        self._sink_path = Path(sink) if sink else None
        self._sink_handle = None

    # -- span creation -------------------------------------------------

    def span(self, name: str, parent: Optional[SpanContext] = None, **attrs: Any):
        """Start a span.  Parent defaults to the ambient current span."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = _CURRENT_SPAN.get()
        if parent is not None:
            return Span(self, name, parent.trace_id, parent.span_id, attrs)
        return Span(self, name, _new_id(16), None, attrs)

    def span_from(self, carrier: Optional[Dict[str, str]], name: str, **attrs: Any):
        """Start a span parented on a serialized context (or a fresh root)."""
        if not self.enabled:
            return NULL_SPAN
        return self.span(name, parent=SpanContext.from_dict(carrier), **attrs)

    # -- context propagation -------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        if not self.enabled:
            return None
        return _CURRENT_SPAN.get()

    def carrier(self) -> Optional[Dict[str, str]]:
        """The ambient span context as a plain dict (None when untraced)."""
        ctx = self.current_context()
        return ctx.to_dict() if ctx else None

    def activate(self, ctx: Optional[SpanContext]) -> _Activation:
        """Install ``ctx`` as the ambient parent (for worker threads)."""
        return _Activation(ctx)

    # -- record keeping ------------------------------------------------

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._ring.append(record)
            if self._sink_path is not None:
                if self._sink_handle is None:
                    self._sink_path.parent.mkdir(parents=True, exist_ok=True)
                    self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
                self._sink_handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._sink_handle.flush()

    def absorb(self, records: Iterable[Dict[str, Any]]) -> int:
        """Fold finished span records from a worker process into the ring."""
        count = 0
        for record in records:
            if not isinstance(record, dict) or "span_id" not in record:
                continue
            self._record(record)
            count += 1
        return count

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._ring)
        if trace_id is not None:
            records = [r for r in records if r.get("trace_id") == trace_id]
        return records

    def close(self) -> None:
        with self._lock:
            if self._sink_handle is not None:
                self._sink_handle.close()
                self._sink_handle = None


def remote_span_record(
    carrier: Optional[Dict[str, str]],
    name: str,
    start_wall: float,
    seconds: float,
    attrs: Optional[Dict[str, Any]] = None,
    status: str = "ok",
) -> Optional[Dict[str, Any]]:
    """Build a finished span record in a process-pool worker.

    Workers have no tracer; they time the chunk themselves and emit a
    record parented on the serialized context from the chunk envelope.
    Returns None when the envelope carried no context (tracing off).
    """
    ctx = SpanContext.from_dict(carrier)
    if ctx is None:
        return None
    return {
        "trace_id": ctx.trace_id,
        "span_id": _new_id(8),
        "parent_id": ctx.span_id,
        "name": name,
        "start": round(start_wall, 6),
        "seconds": round(seconds, 6),
        "status": status,
        "attrs": dict(attrs) if attrs else {},
    }


_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer.  Disabled (no-op spans) until configured."""
    return _GLOBAL_TRACER


def configure_tracing(
    sink: Optional[str] = None,
    ring_size: Optional[int] = None,
    enabled: bool = True,
) -> Tracer:
    """Enable (or re-point) the global tracer.  Returns it."""
    tracer = _GLOBAL_TRACER
    with tracer._lock:
        tracer.enabled = enabled
        if ring_size is not None:
            tracer._ring = deque(tracer._ring, maxlen=max(1, int(ring_size)))
        if tracer._sink_handle is not None:
            tracer._sink_handle.close()
            tracer._sink_handle = None
        tracer._sink_path = Path(sink) if sink else None
    return tracer


def disable_tracing() -> None:
    """Disable the global tracer and drop its state.

    Also restores the default ring capacity: a ``ring_size`` passed to
    :func:`configure_tracing` must not silently cap the *next* tracing
    session's ring.
    """
    tracer = _GLOBAL_TRACER
    tracer.close()
    with tracer._lock:
        tracer.enabled = False
        tracer._sink_path = None
        tracer._ring = deque(maxlen=DEFAULT_RING_SIZE)
