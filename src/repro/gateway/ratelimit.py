"""Per-tenant rate limiting and retry/backoff primitives.

The gateway admits requests through a classic :class:`TokenBucket` per
tenant: a burst of ``capacity`` requests is always allowed, sustained load
is capped at ``refill_per_second``, and a rejected request learns exactly
how long to wait (``retry_after``) instead of guessing.  The clock is
injectable so quota behaviour is tested deterministically — no sleeps.

Clients pair the bucket with :class:`Backoff` (bounded exponential delays,
no jitter, so retry schedules are reproducible) and the
:func:`retry_with_backoff` / :func:`retry_sync` helpers, which honour the
server-provided ``retry_after`` when it is longer than the local backoff.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Injectable time source; only deltas matter for quota math.
Clock = Callable[[], float]


class RateLimited(Exception):
    """A request was rejected by a quota; carries the 429-style payload."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, retry_after)

    def to_dict(self) -> dict:
        return {
            "error": str(self),
            "retry_after": (
                round(self.retry_after, 6)
                if math.isfinite(self.retry_after)
                else None
            ),
        }


class TokenBucket:
    """Token bucket with an injectable clock.

    ``capacity`` bounds the burst, ``refill_per_second`` the sustained
    rate.  ``try_acquire`` never blocks: it either grants the tokens or
    reports how many seconds of refill would cover the deficit (``inf``
    when the bucket never refills), which the gateway surfaces to clients
    as ``retry_after``.  Thread-safe — admission happens on the event loop
    while executor threads may probe the same tenant's bucket.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_second: float,
        clock: Optional[Clock] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill_per_second < 0:
            raise ValueError("refill_per_second cannot be negative")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock or time.monotonic
        self._tokens = float(capacity)
        self._updated = self._clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        if elapsed and self.refill_per_second:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_second
            )

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """Take ``tokens`` if available; returns ``(granted, retry_after)``."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        with self._lock:
            self._refill_locked()
            if tokens <= self._tokens + 1e-12:
                self._tokens -= tokens
                return True, 0.0
            deficit = tokens - self._tokens
            if self.refill_per_second <= 0:
                return False, math.inf
            return False, deficit / self.refill_per_second


@dataclass(frozen=True)
class Backoff:
    """Bounded exponential backoff schedule (deterministic, no jitter)."""

    base: float = 0.1
    factor: float = 2.0
    max_delay: float = 5.0

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay, self.base * self.factor ** (attempt - 1))


def _retry_wait(exc: RateLimited, backoff: Backoff, attempt: int) -> float:
    """How long to sleep after a rejection: the larger of the local backoff
    and the server's ``retry_after`` (when finite — an infinite retry_after
    means the quota never refills and retrying is pointless)."""
    wait = backoff.delay(attempt)
    if math.isfinite(exc.retry_after):
        wait = max(wait, exc.retry_after)
    return wait


async def retry_with_backoff(
    fn: Callable,
    attempts: int = 5,
    backoff: Optional[Backoff] = None,
    sleep: Optional[Callable] = None,
):
    """Call ``fn`` (sync or async), retrying :class:`RateLimited` rejections.

    Sleeps :func:`_retry_wait` between attempts via ``sleep`` (injectable
    for tests; defaults to :func:`asyncio.sleep`).  Re-raises the last
    rejection once ``attempts`` are exhausted, and immediately when
    ``retry_after`` is infinite.
    """
    if attempts < 1:
        raise ValueError("attempts must be positive")
    backoff = backoff or Backoff()
    sleep = sleep or asyncio.sleep
    for attempt in range(1, attempts + 1):
        try:
            result = fn()
            if inspect.isawaitable(result):
                result = await result
            return result
        except RateLimited as exc:
            if attempt == attempts or not math.isfinite(exc.retry_after):
                raise
            await sleep(_retry_wait(exc, backoff, attempt))
    raise AssertionError("unreachable")


def retry_sync(
    fn: Callable,
    attempts: int = 5,
    backoff: Optional[Backoff] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Blocking twin of :func:`retry_with_backoff` for the HTTP client."""
    if attempts < 1:
        raise ValueError("attempts must be positive")
    backoff = backoff or Backoff()
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except RateLimited as exc:
            if attempt == attempts or not math.isfinite(exc.retry_after):
                raise
            sleep(_retry_wait(exc, backoff, attempt))
    raise AssertionError("unreachable")
