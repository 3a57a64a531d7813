"""Per-tenant notification push: the bridge from sync events to async streams.

The registry's event bus and the scan service's re-scan deltas are
synchronous callbacks fired in whichever thread published (for gateway
jobs: an executor thread).  :class:`NotificationHub` turns them into
per-tenant **async subscription streams**: every event is appended to the
tenant's bounded backlog with a monotonically increasing ``seq``, waiters
are woken through the event loop (``call_soon_threadsafe`` when the
publisher is off-loop), and clients read with a cursor —
:meth:`NotificationHub.wait_for` returns everything after a sequence
number, blocking up to a timeout when nothing is new.  That one primitive
serves both in-process subscribers (:class:`Subscription`) and the HTTP
long-poll endpoint (``GET /v1/<tenant>/events?after=N&wait=T``), so
clients stop polling the registry for publishes.

Backlogs are bounded: a tenant that never reads loses its *oldest*
notifications, never the gateway's memory.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gateway.ratelimit import Clock


@dataclass
class Notification:
    """One pushed event: a registry publish, a re-scan delta, or job news."""

    seq: int
    tenant: str
    kind: str  # "publish" | "rescan" | "job" | "gateway"
    payload: dict = field(default_factory=dict)
    created_at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "tenant": self.tenant,
            "kind": self.kind,
            "payload": self.payload,
            "created_at": self.created_at,
        }


class _Channel:
    """One tenant's backlog + wakeup event."""

    def __init__(self, backlog: int) -> None:
        self.seq = 0
        self.events: "deque[Notification]" = deque(maxlen=backlog)
        self.wakeup = asyncio.Event()


class NotificationHub:
    """Thread-safe fan-in, per-tenant async fan-out of gateway events."""

    def __init__(self, backlog: int = 256, clock: Optional[Clock] = None) -> None:
        if backlog < 1:
            raise ValueError("backlog must be positive")
        self.backlog = backlog
        self._clock = clock or time.time
        self._channels: Dict[str, _Channel] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the hub to the gateway's event loop (enables cross-thread
        publishing; done once by :meth:`GatewayApp.start`)."""
        self._loop = loop

    def _channel(self, tenant: str) -> _Channel:
        channel = self._channels.get(tenant)
        if channel is None:
            channel = self._channels[tenant] = _Channel(self.backlog)
        return channel

    # -- publishing (any thread) ----------------------------------------------------
    def publish(self, tenant: str, kind: str, payload: dict) -> None:
        """Append a notification and wake the tenant's waiters.

        Safe from any thread: off-loop publishers (registry callbacks run
        in executor threads) are trampolined onto the loop, which also
        serialises sequence numbering.
        """
        if self._loop is not None:
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is not self._loop:
                self._loop.call_soon_threadsafe(
                    self._publish_now, tenant, kind, payload
                )
                return
        self._publish_now(tenant, kind, payload)

    def _publish_now(self, tenant: str, kind: str, payload: dict) -> None:
        channel = self._channel(tenant)
        channel.seq += 1
        channel.events.append(
            Notification(
                seq=channel.seq,
                tenant=tenant,
                kind=kind,
                payload=payload,
                created_at=self._clock(),
            )
        )
        channel.wakeup.set()

    # -- consuming (event loop) -----------------------------------------------------
    def current_seq(self, tenant: str) -> int:
        return self._channel(tenant).seq

    def pending(self, tenant: str, after_seq: int = 0) -> List[Notification]:
        """Backlogged notifications after ``after_seq`` — never blocks."""
        return [n for n in self._channel(tenant).events if n.seq > after_seq]

    async def wait_for(
        self, tenant: str, after_seq: int = 0, timeout: float = 5.0
    ) -> List[Notification]:
        """Notifications after ``after_seq``, waiting up to ``timeout`` for
        at least one to arrive; ``[]`` on timeout (the long-poll contract)."""
        channel = self._channel(tenant)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while True:
            # clear-then-check: a publish landing after the check sets the
            # event again, so the wait below returns immediately
            channel.wakeup.clear()
            items = self.pending(tenant, after_seq)
            if items:
                return items
            remaining = deadline - loop.time()
            if remaining <= 0:
                return []
            try:
                await asyncio.wait_for(channel.wakeup.wait(), remaining)
            except TimeoutError:
                return []

    def subscribe(self, tenant: str, from_start: bool = False) -> "Subscription":
        """A cursor-tracking stream over the tenant's notifications.

        Starts at the current sequence (push-only) unless ``from_start``
        replays whatever backlog is still retained.
        """
        after = 0 if from_start else self.current_seq(tenant)
        return Subscription(hub=self, tenant=tenant, cursor=after)


@dataclass
class Subscription:
    """A per-tenant notification stream with an explicit cursor."""

    hub: NotificationHub
    tenant: str
    cursor: int = 0

    async def next(self, timeout: float = 5.0) -> Optional[Notification]:
        """The next notification, or ``None`` when the wait times out."""
        batch = await self.hub.wait_for(self.tenant, self.cursor, timeout)
        if not batch:
            return None
        note = batch[0]
        self.cursor = note.seq
        return note

    async def collect(self, count: int, timeout: float = 5.0) -> List[Notification]:
        """Up to ``count`` notifications within one overall ``timeout``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        collected: List[Notification] = []
        while len(collected) < count:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            batch = await self.hub.wait_for(self.tenant, self.cursor, remaining)
            if not batch:
                break
            for note in batch[: count - len(collected)]:
                collected.append(note)
                self.cursor = note.seq
        return collected

    def drain(self) -> List[Notification]:
        """Everything already backlogged past the cursor — never blocks."""
        batch = self.hub.pending(self.tenant, self.cursor)
        if batch:
            self.cursor = batch[-1].seq
        return batch
