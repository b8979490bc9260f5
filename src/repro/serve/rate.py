"""Per-client token-bucket rate accounting for ``qbss-serve``.

Each client (the ``X-QBSS-Client`` request header; ``anonymous`` when
absent) gets its own :class:`TokenBucket`: capacity ``burst`` jobs,
refilled at ``rate`` jobs/second.  A submission of *n* jobs takes *n*
tokens atomically — either the whole batch is within budget or the whole
batch is rejected (``rate_limited``, HTTP 429); there are no partial
admissions.

Idle buckets are evicted: a bucket untouched for :data:`DEFAULT_IDLE_GRACE`
seconds whose refill has brought it back to full carries no state worth
keeping (a fresh bucket starts full, so eviction is lossless) — without
this, one-shot clients each leak a bucket and the map grows without bound
for the life of the daemon.

The clock is injectable so tests drive time deterministically.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..obs import lockwatch

#: Seconds a bucket may sit untouched before it is eligible for eviction.
DEFAULT_IDLE_GRACE = 300.0


class TokenBucket:
    """Classic token bucket: ``capacity`` tokens, ``refill_rate``/s."""

    __slots__ = ("capacity", "refill_rate", "tokens", "updated")

    def __init__(self, capacity: float, refill_rate: float, now: float = 0.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if refill_rate <= 0:
            raise ValueError(f"refill_rate must be > 0, got {refill_rate}")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.tokens = float(capacity)  # start full: first burst is free
        self.updated = now

    def available(self, now: float) -> float:
        """Tokens the bucket holds at time ``now``, refill included."""
        elapsed = max(0.0, now - self.updated)
        return min(self.capacity, self.tokens + elapsed * self.refill_rate)

    def try_take(self, n: float, now: float) -> bool:
        """Atomically take ``n`` tokens at time ``now``; False if short."""
        self.tokens = self.available(now)
        self.updated = now
        if n > self.tokens:
            return False
        self.tokens -= n
        return True


class RateLimiter:
    """Per-client buckets; ``rate=None`` disables limiting entirely."""

    def __init__(
        self,
        rate: float | None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        idle_grace: float = DEFAULT_IDLE_GRACE,
    ):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be > 0 (or None), got {rate}")
        if burst is not None and burst <= 0:
            raise ValueError(f"burst must be > 0 (or None), got {burst}")
        if idle_grace <= 0:
            raise ValueError(f"idle_grace must be > 0, got {idle_grace}")
        self.rate = rate
        # Default burst: one second's worth of budget, at least one job.
        self.burst = burst if burst is not None else (max(1.0, rate) if rate else None)
        self.clock = clock
        self.idle_grace = idle_grace
        self._lock = lockwatch.new_lock("RateLimiter._lock")
        self._buckets: dict[str, TokenBucket] = {}
        self._last_sweep = clock()

    def _sweep(self, now: float) -> None:
        """Evict idle, fully-refilled buckets (call with ``_lock`` held).

        Eviction is lossless: a new bucket starts full, so dropping one
        that has refilled to capacity changes no admission decision.  A
        bucket still below capacity (client in debt) is kept until its
        refill completes, however long it idles.  Runs at most once per
        grace period, so the amortized cost per request is O(1).
        """
        if now - self._last_sweep < self.idle_grace:
            return
        self._last_sweep = now
        idle = [
            client
            for client, b in self._buckets.items()
            if (now - b.updated) >= self.idle_grace
            and b.tokens + (now - b.updated) * b.refill_rate >= b.capacity
        ]
        for client in idle:
            del self._buckets[client]

    def allow(self, client: str, n: int = 1) -> bool:
        """Whether ``client`` may submit ``n`` jobs right now."""
        if self.rate is None:
            return True
        assert self.burst is not None
        now = self.clock()
        with self._lock:
            self._sweep(now)
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.burst, self.rate, now=now)
                self._buckets[client] = bucket
            return bucket.try_take(float(n), now)

    def has_budget(self, client: str) -> bool:
        """Whether ``client`` could submit one job right now.

        Refill-aware and read-only: it takes no tokens and leaves the
        bucket's idle clock alone, so :meth:`allow` stays the only charge.
        """
        if self.rate is None:
            return True
        assert self.burst is not None
        now = self.clock()
        with self._lock:
            bucket = self._buckets.get(client)
            available = self.burst if bucket is None else bucket.available(now)
        return available >= 1.0

    @property
    def tracked_clients(self) -> int:
        """How many client buckets are currently resident."""
        with self._lock:
            return len(self._buckets)

    def tokens_left(self, client: str) -> float | None:
        """Remaining budget for ``client`` (None = unlimited/unseen)."""
        if self.rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(client)
            return None if bucket is None else bucket.tokens
