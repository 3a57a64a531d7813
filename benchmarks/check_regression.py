"""Benchmark regression guard for the scan-throughput report.

Compares a freshly generated ``scan_throughput.json`` against a committed
baseline and fails (exit 1) when the indexed lane regressed by more than the
allowed fraction.  Guarded lanes:

* the 200-rule ``indexed`` lane;
* every ``registry_scale`` point present in **both** reports (matched by
  rule count — new points are allowed to appear without a baseline);
* the ``obs_overhead`` section when the fresh report carries one: the
  disabled-tracer observability seams may cost at most
  ``--max-obs-overhead`` of a 1-shard batch (no baseline needed — the
  ceiling is absolute, so older baselines without the section still work);
* the fresh report's service ``shards`` when it ran on ``cpu_count >= 2``:
  the best process-mode point must reach :data:`MIN_PROCESS_SHARD_RATIO` of
  the 1-shard in-process packages/sec (again absolute, within one run).
  Each point's packages/sec is its service's second, warm batch, so a
  process point's pool start (its cold batch, reported as
  ``cold_seconds``) is not counted against it.  On one core process
  workers time-slice a single CPU, so there is nothing to check.

The guarded metric is the indexed/naive **speedup** of each lane, not raw
packages/sec: the baseline is committed from one machine and the fresh
report is generated on another (CI runners also scale the corpus down), so
absolute throughput is not comparable across them.  Speedup normalizes the
indexed lane by the naive lane *of the same run*, which cancels hardware
and corpus scale; a packed-lane slowdown shows up in it directly.  Raw
packages/sec are printed alongside for inspection.

Usage::

    python benchmarks/check_regression.py BASELINE.json FRESH.json \
        [--max-regression 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: On >= 2 cores, the best process-shard point must reach this fraction of
#: the 1-shard in-process throughput measured in the same run.
MIN_PROCESS_SHARD_RATIO = 0.9


def _registry_points(report: dict) -> dict[int, dict]:
    """``{rules: point}`` for every registry-scale point.

    Accepts both the current list-of-points shape and the historical
    single-object shape, so an old baseline still guards the new report.
    """
    raw = report.get("registry_scale") or []
    if isinstance(raw, dict):
        raw = [raw]
    return {int(point["rules"]): point for point in raw}


def check(
    baseline: dict,
    fresh: dict,
    max_regression: float,
    max_obs_overhead: float = 0.05,
) -> list[str]:
    """Failure messages (empty = the fresh report passes the guard)."""
    failures: list[str] = []

    def guard(name: str, base: float, new: float, base_pps: float, new_pps: float) -> None:
        floor = base * (1.0 - max_regression)
        verdict = "ok" if new >= floor else "REGRESSED"
        print(
            f"{name}: speedup baseline {base:.2f}x, fresh {new:.2f}x "
            f"(floor {floor:.2f}x) {verdict} "
            f"[raw {base_pps:.0f} -> {new_pps:.0f} pkg/s]"
        )
        if new < floor:
            failures.append(
                f"{name} regressed: speedup {new:.2f}x < floor {floor:.2f}x "
                f"({max_regression:.0%} below baseline {base:.2f}x)"
            )

    guard(
        "indexed (200 rules)",
        float(baseline["speedup"]),
        float(fresh["speedup"]),
        float(baseline["indexed"]["packages_per_second"]),
        float(fresh["indexed"]["packages_per_second"]),
    )
    base_points = _registry_points(baseline)
    fresh_points = _registry_points(fresh)
    for rules, base_point in sorted(base_points.items()):
        if rules not in fresh_points:
            failures.append(f"registry_scale point at {rules} rules disappeared")
            continue
        fresh_point = fresh_points[rules]
        if not base_point.get("speedup") or not fresh_point.get("speedup"):
            continue
        guard(
            f"registry_scale ({rules} rules)",
            float(base_point["speedup"]),
            float(fresh_point["speedup"]),
            float(base_point["indexed"]["packages_per_second"]),
            float(fresh_point["indexed"]["packages_per_second"]),
        )
    for rules in sorted(set(fresh_points) - set(base_points)):
        pps = fresh_points[rules]["indexed"]["packages_per_second"]
        print(f"registry_scale ({rules} rules): new point, {pps:.0f} pkg/s (no baseline)")
    obs = fresh.get("obs_overhead")
    if obs and obs.get("disabled_overhead_fraction") is not None:
        fraction = float(obs["disabled_overhead_fraction"])
        verdict = "ok" if fraction <= max_obs_overhead else "REGRESSED"
        print(
            f"obs_overhead: disabled-tracer seams {fraction:.4%} of a 1-shard "
            f"batch (ceiling {max_obs_overhead:.0%}) {verdict} "
            f"[noop span {obs.get('noop_span_ns', '?')} ns, "
            f"counter inc {obs.get('counter_inc_ns', '?')} ns]"
        )
        if fraction > max_obs_overhead:
            failures.append(
                f"obs_overhead: disabled-tracer seams cost {fraction:.2%} "
                f"of a 1-shard batch > ceiling {max_obs_overhead:.0%}"
            )
    failures.extend(_check_process_shards(fresh))
    return failures


def _check_process_shards(fresh: dict) -> list[str]:
    """The process lane must keep up with in-process scanning on >= 2 cores."""
    cpu_count = int(fresh.get("cpu_count") or 1)
    points = fresh.get("shards") or []
    if cpu_count < 2 or not points:
        return []
    inproc = [p for p in points if p["shards"] == 1 and p["mode"] == "inprocess"]
    process = [p["packages_per_second"] for p in points if p["mode"] == "process"]
    if not inproc or not process:
        return [
            f"shards: on {cpu_count} cores the report needs a 1-shard "
            f"in-process point and a process-mode point, got "
            f"{[(p['shards'], p['mode']) for p in points]}"
        ]
    base = float(inproc[0]["packages_per_second"])
    best = float(max(process))
    floor = base * MIN_PROCESS_SHARD_RATIO
    verdict = "ok" if best >= floor else "REGRESSED"
    print(
        f"shards: best process {best:.0f} pkg/s vs 1-shard in-process "
        f"{base:.0f} pkg/s on {cpu_count} cores (floor {floor:.0f}) {verdict}"
    )
    if best < floor:
        return [
            f"shards: best process-mode {best:.0f} pkg/s < "
            f"{MIN_PROCESS_SHARD_RATIO:.0%} of 1-shard in-process {base:.0f} pkg/s "
            f"on {cpu_count} cores"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional speedup drop before failing (default 0.25)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="ceiling on the disabled-tracer obs seam cost as a fraction of "
             "a 1-shard batch, when the fresh report measures it (default 0.05)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    failures = check(baseline, fresh, args.max_regression, args.max_obs_overhead)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark regression guard: all indexed lanes within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
