"""Process-wide metrics registry: labeled counters, gauges, histograms.

Families are registered by name in a :class:`MetricsRegistry`; labeled
children are created lazily on first use (``family.labels(lane="ac")``)
and memoized, so the hot path is a dict lookup plus a locked add.

Histograms use fixed log-spaced buckets (powers of two over a 1 ms
base, same layout the gateway has always exposed) so every scrape of
every family reports identical bucket boundaries and dashboards can
aggregate without re-binning.  Quantiles are estimated by linear
interpolation inside the winning bucket, capping the +Inf bucket at the
observed max.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: 1ms * 2**k for k in 0..16 — ~1ms to ~65s, then +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(0.001 * (2 ** k) for k in range(17))

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramChild",
    "MetricsRegistry",
    "get_registry",
]


class _Family:
    """Base for a named metric family with memoized labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _child_key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labels(self, **labels: str):
        key = self._child_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._new_child()
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(f"{self.name}: labeled family needs .labels(...)")
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def clear(self) -> None:
        with self._lock:
            self._children.clear()


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        (self.labels(**labels) if labels else self._default_child()).inc(amount)


class _GaugeChild:
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Family):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        (self.labels(**labels) if labels else self._default_child()).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        (self.labels(**labels) if labels else self._default_child()).inc(amount)


class HistogramChild:
    """Fixed-bucket histogram with interpolated quantiles."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        self.bounds = bounds  # upper bounds; an implicit +Inf bucket follows
        self._counts = [0] * (len(bounds) + 1)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        index = bisect.bisect_left(self.bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    def snapshot(self) -> Tuple[List[int], int, float, float]:
        """(per-bucket counts incl. +Inf, total, sum, observed max)."""
        with self._lock:
            return list(self._counts), self._total, self._sum, self._max

    def quantile(self, q: float) -> Optional[float]:
        """Interpolated quantile estimate; ``None`` with no observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self._total == 0:
                return None
            rank = q * self._total
            seen = 0.0
            for index, count in enumerate(self._counts):
                if count == 0:
                    continue
                if seen + count >= rank:
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self._max  # +Inf bucket: cap at the observed max
                    )
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    fraction = (rank - seen) / count
                    return lower + (upper - lower) * min(1.0, max(0.0, fraction))
                seen += count
            return self._max


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(buckets)

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, seconds: float, **labels: str) -> None:
        (self.labels(**labels) if labels else self._default_child()).observe(seconds)


class MetricsRegistry:
    """Name-keyed registry of metric families, get-or-create semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, labelnames, **kwargs)
                return family
        if not isinstance(family, cls) or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} re-registered with a different "
                f"type or label set ({family.kind}, {family.labelnames})"
            )
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Clear all recorded values (families stay registered)."""
        for family in self.families():
            family.clear()

    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly dump of every family and child."""
        out: Dict[str, dict] = {}
        for family in self.families():
            series = []
            for key, child in family.samples():
                labels = dict(zip(family.labelnames, key))
                if isinstance(child, HistogramChild):
                    counts, total, total_sum, observed_max = child.snapshot()
                    series.append(
                        {
                            "labels": labels,
                            "count": total,
                            "sum": round(total_sum, 6),
                            "max": round(observed_max, 6),
                            "buckets": [
                                {"le": family.buckets[i], "count": counts[i]}
                                for i in range(len(family.buckets))
                                if counts[i]
                            ],
                            "overflow": counts[-1],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
