"""Multi-tenancy: quotas, token buckets, and per-tenant registry namespaces.

Each tenant the gateway admits owns a full vertical slice of the serving
stack: a :class:`~repro.scanserve.registry.RulesetRegistry` carrying the
tenant's name as its ``namespace`` (so every
:class:`~repro.scanserve.registry.PublishEvent` is attributable), a
:class:`~repro.scanserve.service.ScanService` bound to that registry, and
a :class:`~repro.gateway.ratelimit.TokenBucket` sized by the tenant's
:class:`TenantQuota`.  Isolation therefore falls out of the existing
registry versioning — tenant A's publishes are versions of *A's* registry
and can never trigger B's re-scans or notifications — rather than from
filtering a shared namespace.

:meth:`TenantManager.admit` is the single admission gate: it charges the
token bucket and enforces the pending-job ceiling, raising
:class:`~repro.gateway.ratelimit.RateLimited` (with ``retry_after``) that
the HTTP layer maps to a 429.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.gateway.ratelimit import Clock, RateLimited, TokenBucket
from repro.obs.metrics import get_registry as _obs_registry

_RATE_LIMITED = _obs_registry().counter(
    "repro_gateway_rate_limited_total",
    "Submissions rejected at admission, by tenant and reason.",
    ("tenant", "reason"),
)
from repro.scanserve.registry import RulesetRegistry
from repro.scanserve.service import ScanService

_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class UnknownTenant(LookupError):
    """Lookup of a tenant that was never registered."""


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``capacity`` is the burst the token bucket allows, ``refill_per_second``
    the sustained submission rate, ``max_pending_jobs`` the ceiling on
    queued+running jobs (protects the job queue from one tenant flooding
    it even at a generous rate).
    """

    capacity: float = 8.0
    refill_per_second: float = 4.0
    max_pending_jobs: int = 32

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "refill_per_second": self.refill_per_second,
            "max_pending_jobs": self.max_pending_jobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantQuota":
        return cls(
            capacity=float(data.get("capacity", cls.capacity)),
            refill_per_second=float(
                data.get("refill_per_second", cls.refill_per_second)
            ),
            max_pending_jobs=int(data.get("max_pending_jobs", cls.max_pending_jobs)),
        )


@dataclass
class Tenant:
    """One tenant's slice of the gateway: namespace, quota, counters."""

    name: str
    quota: TenantQuota
    service: ScanService
    bucket: TokenBucket
    created_at: float = 0.0
    jobs_submitted: int = 0
    rejected: int = 0
    bridge_tokens: List[int] = field(default_factory=list)  # registry subscriptions

    @property
    def registry(self) -> RulesetRegistry:
        return self.service.registry

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "quota": self.quota.to_dict(),
            "created_at": self.created_at,
            "jobs_submitted": self.jobs_submitted,
            "rejected": self.rejected,
            "registry_versions": self.registry.versions(),
            "active_version": self.registry.current_version(),
        }


class TenantManager:
    """Registration, lookup and admission control for gateway tenants."""

    def __init__(
        self,
        service_factory: Callable[[str], ScanService],
        default_quota: Optional[TenantQuota] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        """``service_factory`` builds the scan service of a tenant being
        registered, from its name."""
        self.default_quota = default_quota or TenantQuota()
        self._clock = clock or time.monotonic
        self._service_factory = service_factory
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------------------
    def register(self, name: str, quota: Optional[TenantQuota] = None) -> Tenant:
        if not _TENANT_NAME.match(name or ""):
            raise ValueError(
                f"invalid tenant name {name!r} (alphanumeric, '_', '-', '.', "
                "max 64 chars)"
            )
        quota = quota or self.default_quota
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenant = Tenant(
                name=name,
                quota=quota,
                service=self._service_factory(name),
                bucket=TokenBucket(
                    capacity=quota.capacity,
                    refill_per_second=quota.refill_per_second,
                    clock=self._clock,
                ),
                created_at=self._clock(),
            )
            self._tenants[name] = tenant
            return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise UnknownTenant(f"unknown tenant {name!r}") from None

    # -- admission ------------------------------------------------------------------
    def admit(self, name: str, pending_jobs: int = 0, cost: float = 1.0) -> Tenant:
        """Charge one submission against the tenant's quota.

        ``pending_jobs`` is the tenant's current queued+running count (the
        caller owns the job queue).  Raises :class:`RateLimited` with a
        concrete ``retry_after`` on rejection.
        """
        tenant = self.get(name)
        if pending_jobs >= tenant.quota.max_pending_jobs:
            tenant.rejected += 1
            _RATE_LIMITED.inc(tenant=name, reason="pending")
            # the soonest a slot can open is one job finishing; the refill
            # interval is the only time scale the quota defines
            refill = tenant.quota.refill_per_second
            raise RateLimited(
                f"tenant {name!r} has {pending_jobs} pending jobs "
                f"(max {tenant.quota.max_pending_jobs})",
                retry_after=1.0 / refill if refill > 0 else 1.0,
            )
        granted, retry_after = tenant.bucket.try_acquire(cost)
        if not granted:
            tenant.rejected += 1
            _RATE_LIMITED.inc(tenant=name, reason="quota")
            raise RateLimited(
                f"tenant {name!r} over rate quota "
                f"({tenant.quota.capacity:g} burst, "
                f"{tenant.quota.refill_per_second:g}/s)",
                retry_after=retry_after,
            )
        tenant.jobs_submitted += 1
        return tenant

    # -- introspection --------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> List[Tenant]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)
