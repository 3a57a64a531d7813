"""Per-rule cost accounting.

Generated rule sets occasionally contain pathological rules (catastrophic
regexes, anchor-less patterns that structural-match every file); at registry
scale one such rule dominates the whole scan budget.  The service therefore
times every rule evaluation and aggregates the figures per rule:
:meth:`RuleCostTracker.top_slow_rules` surfaces the worst offenders so they
can be rewritten or retired.

One :class:`RuleCostTracker` class serves both sides of the worker
boundary.  Each shard fills a fresh one while it scans (plain data, so a
process-pool worker ships it home whole in ``_scan_shard``'s result), and
the service merges it into its own under the service's lock.  Each merge
adds the shard's per-engine totals to the process-wide
``repro_rule_evaluations_total{engine}`` and
``repro_rule_eval_seconds_total{engine}`` counters.  The per-rule detail
stays here and not in :mod:`repro.obs`: a rule-name label would put up to
one series per rule into every ``/metrics`` scrape, a histogram has no
place for ``slowest_package``, and shards could not merge histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.obs.metrics import get_registry

_RULE_EVALS = get_registry().counter(
    "repro_rule_evaluations_total", "Rule evaluations, by engine.", ("engine",)
)
_RULE_SECONDS = get_registry().counter(
    "repro_rule_eval_seconds_total",
    "Cumulative seconds spent evaluating rules, by engine.",
    ("engine",),
)


@dataclass
class RuleCost:
    """Aggregate evaluation cost of one rule."""

    rule_key: str
    engine: str  # "yara" | "semgrep"
    evaluations: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    slowest_package: str = ""

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.evaluations if self.evaluations else 0.0

    def describe(self) -> str:
        return (
            f"{self.engine}:{self.rule_key}: {self.evaluations} evals, "
            f"max {self.max_seconds * 1000:.2f}ms on {self.slowest_package or '-'}, "
            f"total {self.total_seconds * 1000:.2f}ms"
        )


@dataclass
class RuleCostTracker:
    """Per-rule costs, keyed ``(engine, rule name)``.

    Not thread-safe: the service guards its own tracker with a lock.  It
    stays a plain object with a ``__dict__`` (no ``__slots__``, no
    ``__getstate__``), so whatever a caller attaches to a shard's tracker
    pickles home with it.
    """

    costs: dict[tuple[str, str], RuleCost] = field(default_factory=dict)

    def record(self, engine: str, rule_key: str, seconds: float, package: str) -> None:
        cost = self.costs.get((engine, rule_key))
        if cost is None:
            cost = self.costs[(engine, rule_key)] = RuleCost(
                rule_key=rule_key, engine=engine
            )
        cost.evaluations += 1
        cost.total_seconds += seconds
        if seconds >= cost.max_seconds:
            cost.max_seconds = seconds
            cost.slowest_package = package

    def merge(self, other: "RuleCostTracker") -> None:
        """Add ``other``'s costs to these, and its per-engine totals to the
        process-wide counters."""
        per_engine: dict[str, tuple[int, float]] = {}
        for key, incoming in other.costs.items():
            cost = self.costs.get(key)
            if cost is None:
                cost = self.costs[key] = RuleCost(
                    rule_key=incoming.rule_key, engine=incoming.engine
                )
            cost.evaluations += incoming.evaluations
            cost.total_seconds += incoming.total_seconds
            if incoming.max_seconds >= cost.max_seconds:
                cost.max_seconds = incoming.max_seconds
                cost.slowest_package = incoming.slowest_package
            evals, seconds = per_engine.get(incoming.engine, (0, 0.0))
            per_engine[incoming.engine] = (
                evals + incoming.evaluations,
                seconds + incoming.total_seconds,
            )
        for engine, (evals, seconds) in per_engine.items():
            _RULE_EVALS.inc(evals, engine=engine)
            _RULE_SECONDS.inc(seconds, engine=engine)

    def top_slow_rules(self, n: int = 10, by: str = "max") -> list[RuleCost]:
        """Copies of the ``n`` most expensive rules, slowest first.

        ``by='max'`` ranks by worst single evaluation (pathological-regex
        hunting); ``by='total'`` ranks by cumulative cost (capacity
        planning); ``by='mean'`` by average evaluation cost.  Cost ties are
        broken by ``(engine, rule name)`` so telemetry output is reproducible
        across runs.
        """
        keys = {
            "max": lambda c: c.max_seconds,
            "total": lambda c: c.total_seconds,
            "mean": lambda c: c.mean_seconds,
        }
        if by not in keys:
            raise ValueError(f"by must be one of {sorted(keys)}, got {by!r}")
        cost_of = keys[by]
        ranked = sorted(
            self.costs.values(), key=lambda c: (-cost_of(c), c.engine, c.rule_key)
        )
        return [replace(c) for c in ranked[: max(0, n)]]
