"""The regression guard's process-shard check, on synthetic reports.

Fast unit tests of ``check_regression.check``: they build report dicts by
hand, so they run no benchmark and assert no timing of this machine.
"""

from check_regression import check


def _report(process_ratio: float, cpu_count: int = 2) -> dict:
    """A minimal throughput report whose best process point runs at
    ``process_ratio`` x the 1-shard in-process throughput."""
    return {
        "speedup": 10.0,
        "indexed": {"packages_per_second": 500.0},
        "cpu_count": cpu_count,
        "shards": [
            {"shards": 1, "mode": "inprocess", "packages_per_second": 1000.0},
            {"shards": 2, "mode": "process", "packages_per_second": 1000.0 * process_ratio},
            {"shards": 4, "mode": "process", "packages_per_second": 500.0},
        ],
    }


def _shard_failures(fresh: dict) -> list[str]:
    return [f for f in check(_report(1.0), fresh, 0.25) if f.startswith("shards")]


def test_slow_process_shards_fail():
    assert _shard_failures(_report(0.85))


def test_process_shards_within_bound_pass():
    assert check(_report(1.0), _report(0.95), 0.25) == []


def test_single_core_skips_the_check():
    assert _shard_failures(_report(0.5, cpu_count=1)) == []


def test_missing_process_point_fails_on_two_cores():
    fresh = _report(1.0)
    fresh["shards"] = fresh["shards"][:1]
    assert _shard_failures(fresh)
