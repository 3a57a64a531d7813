"""Deterministic tests for the gateway's quota and retry primitives.

Every test drives the token bucket / backoff with an injected clock or
sleep recorder — no wall-clock sleeps, no flakiness.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.gateway.ratelimit import (
    Backoff,
    RateLimited,
    TokenBucket,
    retry_sync,
    retry_with_backoff,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_up_to_capacity_then_reject(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, refill_per_second=1.0, clock=clock)
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        granted, retry_after = bucket.try_acquire()
        assert not granted
        assert retry_after == pytest.approx(1.0)

    def test_retry_after_is_exact_deficit_over_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_second=0.5, clock=clock)
        bucket.try_acquire(2)
        granted, retry_after = bucket.try_acquire(1)
        assert not granted
        assert retry_after == pytest.approx(2.0)  # 1 token / 0.5 per s

    def test_refill_restores_tokens_up_to_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_second=1.0, clock=clock)
        bucket.try_acquire(2)
        clock.advance(1.0)
        assert bucket.try_acquire() == (True, 0.0)  # one token refilled
        assert not bucket.try_acquire()[0]
        clock.advance(100.0)  # refill caps at capacity, not 100 tokens
        assert bucket.try_acquire(2) == (True, 0.0)
        assert not bucket.try_acquire()[0]

    def test_zero_refill_reports_infinite_retry_after(self):
        bucket = TokenBucket(capacity=1, refill_per_second=0.0, clock=FakeClock())
        bucket.try_acquire()
        granted, retry_after = bucket.try_acquire()
        assert not granted and math.isinf(retry_after)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_second=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_second=-1.0)
        bucket = TokenBucket(capacity=1, refill_per_second=1.0)
        with pytest.raises(ValueError):
            bucket.try_acquire(0)


class TestBackoff:
    def test_exponential_sequence_with_cap(self):
        backoff = Backoff(base=0.1, factor=2.0, max_delay=0.5)
        delays = [backoff.delay(attempt) for attempt in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            Backoff().delay(0)


class TestRetryWithBackoff:
    def test_honours_server_retry_after_when_longer(self):
        waits: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            waits.append(seconds)

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RateLimited("busy", retry_after=1.5)
            return "ok"

        result = asyncio.run(
            retry_with_backoff(
                flaky, attempts=5, backoff=Backoff(base=0.1), sleep=fake_sleep
            )
        )
        assert result == "ok"
        assert waits == pytest.approx([1.5, 1.5])  # retry_after > local backoff

    def test_uses_local_backoff_when_retry_after_is_shorter(self):
        waits: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            waits.append(seconds)

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise RateLimited("busy", retry_after=0.01)
            return "ok"

        asyncio.run(
            retry_with_backoff(
                flaky, attempts=5, backoff=Backoff(base=1.0, factor=2.0), sleep=fake_sleep
            )
        )
        assert waits == pytest.approx([1.0, 2.0, 4.0])

    def test_exhausted_attempts_reraise(self):
        async def fake_sleep(seconds: float) -> None:
            pass

        def always_busy():
            raise RateLimited("busy", retry_after=0.1)

        with pytest.raises(RateLimited):
            asyncio.run(
                retry_with_backoff(always_busy, attempts=3, sleep=fake_sleep)
            )

    def test_infinite_retry_after_fails_fast(self):
        waits: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            waits.append(seconds)

        def never():
            raise RateLimited("quota never refills", retry_after=math.inf)

        with pytest.raises(RateLimited):
            asyncio.run(retry_with_backoff(never, attempts=5, sleep=fake_sleep))
        assert waits == []  # no pointless sleeping

    def test_supports_async_callables(self):
        async def coro():
            return 42

        assert asyncio.run(retry_with_backoff(coro)) == 42


class TestRetrySync:
    def test_retries_then_succeeds(self):
        waits: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise RateLimited("busy", retry_after=0.3)
            return "done"

        result = retry_sync(
            flaky, attempts=3, backoff=Backoff(base=0.1), sleep=waits.append
        )
        assert result == "done"
        assert waits == pytest.approx([0.3])

    def test_rate_limited_to_dict_handles_infinity(self):
        assert RateLimited("x", retry_after=math.inf).to_dict()["retry_after"] is None
        assert RateLimited("x", retry_after=1.25).to_dict()["retry_after"] == 1.25
