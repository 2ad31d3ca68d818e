"""Fairness-aware multi-tenant scheduling of pool slots.

The paper's subject — fair, efficient partitioning of shared resources
among competing threads — applied one level up: the simulation pool's
worker slots are the shared resource, tenants are the threads.  The
scheduler implements a **weighted max-min** share in the spirit of
balanced fairness (Bonald & Comte, *Balanced Fair Resource Sharing in
Computer Clusters*): capacity a tenant does not use is immediately
redistributed to the others in proportion to their weights, so a lone
tenant gets the whole pool and competing tenants converge to
weight-proportional slot shares under saturation.

Selection rule — when a slot frees, serve the backlogged tenant that
minimizes ``(in_use + 1) / weight``, i.e. the tenant whose slot share
would still be furthest below its weighted entitlement after taking the
slot.  Ties break on accumulated *virtual service time*
(``busy_seconds / weight``, which corrects for unequal simulation
lengths over time), then round-robin.  The rule is work-conserving:
``pick`` only returns ``None`` when no tenant has work.

Admission control is separate from slot scheduling:

* a per-tenant **token bucket** bounds the request *rate* (``rate``
  req/s with ``burst`` capacity) — violations raise :class:`RateLimited`
  with a ``retry_after`` hint (HTTP 429 + Retry-After);
* a per-tenant **bounded queue** caps the backlog — overflow raises
  :class:`QueueFull` (also 429, the client should back off and retry).

The scheduler is synchronous and unlocked: the service drives it from a
single event-loop thread.  A ``clock`` injection point keeps every
decision deterministic under test.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque


class RateLimited(Exception):
    """Tenant exceeded its request rate (HTTP 429)."""

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} exceeded its request rate; "
            f"retry in {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after


class QueueFull(Exception):
    """Tenant's job queue is at capacity (HTTP 429)."""

    def __init__(self, tenant: str, depth: int, retry_after: float = 1.0) -> None:
        super().__init__(
            f"tenant {tenant!r} already has {depth} queued jobs; "
            f"retry in {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after


def parse_tenants(value: str) -> dict[str, float]:
    """Parse ``"alice:3,bob:1"`` into tenant weights.

    Mirrors :func:`repro.experiments.parallel.resolve_jobs`'s philosophy:
    malformed input fails here, before a server starts, with a message
    that says what to type instead.  A bare name gets weight 1.
    """
    weights: dict[str, float] = {}
    if not value or not value.strip():
        raise ValueError(
            "empty tenant list; pass NAME[:WEIGHT][,NAME[:WEIGHT]...] "
            "like alice:3,bob:1"
        )
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"tenant entry {part!r} has no name")
        if name in weights:
            raise ValueError(f"tenant {name!r} listed twice")
        if not sep:
            weights[name] = 1.0
            continue
        try:
            weight = float(raw)
        except ValueError:
            raise ValueError(
                f"tenant {name!r} has weight {raw!r}; weights are positive "
                "numbers like alice:3"
            ) from None
        if not weight > 0:
            raise ValueError(
                f"tenant {name!r} has weight {weight}; weights must be > 0"
            )
        weights[name] = weight
    if not weights:
        raise ValueError(
            "no tenants in list; pass NAME[:WEIGHT][,NAME[:WEIGHT]...]"
        )
    return weights


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if not self.burst >= 1.0:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_acquire(self, n: float = 1.0) -> float:
        """Consume ``n`` tokens and return 0.0, or return the wait in s."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate


@dataclass
class TenantState:
    """One tenant's queue, rate limiter and slot accounting."""

    name: str
    weight: float
    bucket: TokenBucket | None
    max_queue: int
    queue: Deque[Any] = field(default_factory=deque)
    in_use: int = 0  # pool slots currently running this tenant's items
    vtime: float = 0.0  # busy_seconds / weight (weighted service time)
    busy_seconds: float = 0.0
    admitted: int = 0
    rejected: int = 0
    completed_items: int = 0
    seq: int = -1  # last-served tick, round-robin tie-break

    def snapshot(self) -> dict[str, Any]:
        return {
            "weight": self.weight,
            "in_use": self.in_use,
            "queued_jobs": len(self.queue),
            "busy_seconds": round(self.busy_seconds, 6),
            "vtime": round(self.vtime, 6),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed_items": self.completed_items,
        }


class FairScheduler:
    """Weighted max-min assignment of pool slots across tenants."""

    def __init__(
        self,
        tenants: dict[str, float] | None = None,
        *,
        rate: float | None = None,
        burst: float | None = None,
        max_queue: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.rate = rate
        self.burst = burst
        self.max_queue = max_queue
        self._clock = clock
        self._ticks = itertools.count()
        self.tenants: dict[str, TenantState] = {}
        for name, weight in (tenants or {}).items():
            self.register(name, weight)

    # -- tenants --------------------------------------------------------------

    def register(self, name: str, weight: float = 1.0) -> TenantState:
        if not weight > 0:
            raise ValueError(
                f"tenant {name!r} weight must be > 0, got {weight}"
            )
        bucket = (
            TokenBucket(self.rate, self.burst, self._clock)
            if self.rate
            else None
        )
        state = TenantState(
            name=name, weight=float(weight), bucket=bucket,
            max_queue=self.max_queue,
        )
        self.tenants[name] = state
        return state

    def tenant(self, name: str) -> TenantState:
        """The tenant's state; unknown tenants register with weight 1."""
        state = self.tenants.get(name)
        if state is None:
            state = self.register(name, 1.0)
        return state

    # -- admission ------------------------------------------------------------

    def admit(self, name: str, payload: Any, *, limited: bool = True) -> TenantState:
        """Queue ``payload`` for ``name`` or raise a 429-shaped error.

        ``limited=False`` bypasses the token bucket (service restart
        re-admitting restored jobs must never be rate-limited out of
        its own recovery).
        """
        state = self.tenant(name)
        if limited and state.bucket is not None:
            retry_after = state.bucket.try_acquire()
            if retry_after > 0:
                state.rejected += 1
                raise RateLimited(name, retry_after)
        if len(state.queue) >= state.max_queue:
            state.rejected += 1
            raise QueueFull(name, len(state.queue))
        state.queue.append(payload)
        state.admitted += 1
        return state

    # -- slot scheduling ------------------------------------------------------

    def pick(
        self, ready: Callable[[Any], bool] = lambda payload: True
    ) -> TenantState | None:
        """The tenant to serve next, or None when no head-of-queue is ready."""
        best: TenantState | None = None
        best_key: tuple[float, float, int] | None = None
        for state in self.tenants.values():
            if not state.queue or not ready(state.queue[0]):
                continue
            key = (
                (state.in_use + 1) / state.weight,
                state.vtime,
                state.seq,
            )
            if best_key is None or key < best_key:
                best, best_key = state, key
        return best

    def head(self, state: TenantState) -> Any:
        return state.queue[0]

    def pop_head(self, state: TenantState) -> Any:
        return state.queue.popleft()

    def remove(self, state: TenantState, payload: Any) -> bool:
        """Drop a queued payload (job cancellation); False if not queued."""
        try:
            state.queue.remove(payload)
            return True
        except ValueError:
            return False

    def on_dispatch(self, state: TenantState) -> None:
        state.in_use += 1
        state.seq = next(self._ticks)

    def on_complete(self, state: TenantState, elapsed: float) -> None:
        state.in_use = max(0, state.in_use - 1)
        state.busy_seconds += max(0.0, elapsed)
        state.vtime += max(0.0, elapsed) / state.weight
        state.completed_items += 1

    # -- observability --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        tenants = {
            name: state.snapshot() for name, state in self.tenants.items()
        }
        return {
            "rate": self.rate,
            "max_queue": self.max_queue,
            "in_use": sum(s.in_use for s in self.tenants.values()),
            "queued_jobs": sum(len(s.queue) for s in self.tenants.values()),
            "tenants": tenants,
        }
