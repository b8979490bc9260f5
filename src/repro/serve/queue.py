"""The bounded admission queue: reject, don't buffer, when saturated.

The queue is bounded by *total pending jobs* (not batch count): one
thousand-job submission costs what a thousand one-job submissions cost.
When admitting a batch would exceed the limit the queue raises
:class:`QueueFullError` immediately — the server turns that into a
structured ``queue_full`` rejection (HTTP 429) so callers get
backpressure instead of unbounded daemon memory.

``close()`` starts the drain: further submissions raise
:class:`QueueClosedError`, while :meth:`AdmissionQueue.pop` keeps
returning the already-admitted items until the queue is empty, then
returns ``None`` — the scheduler's signal that every admitted batch has
been handed over and the loop may exit.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..obs import lockwatch


class QueueFullError(Exception):
    """Admitting the batch would exceed the queue's job capacity."""

    def __init__(self, requested: int, depth: int, limit: int):
        super().__init__(
            f"admission queue full: {depth}/{limit} jobs pending, "
            f"cannot admit {requested} more"
        )
        self.requested = requested
        self.depth = depth
        self.limit = limit


class QueueClosedError(Exception):
    """The queue is draining; no new work is admitted."""


class AdmissionQueue:
    """A thread-safe bounded queue of (item, size) batches.

    ``max_jobs`` bounds the sum of admitted batch sizes awaiting pop.
    """

    def __init__(self, max_jobs: int):
        if max_jobs <= 0:
            raise ValueError(f"max_jobs must be > 0, got {max_jobs}")
        self.max_jobs = max_jobs
        self._cond = lockwatch.new_condition("AdmissionQueue._cond")
        self._items: deque[tuple[Any, int]] = deque()
        self._depth = 0
        self._closed = False
        #: Tickets of blocked submitters, admission order.  Capacity is
        #: granted strictly head-first so a large blocked batch cannot be
        #: starved by a stream of small ones slipping past it.
        self._waiters: deque[object] = deque()

    @property
    def depth(self) -> int:
        """Total jobs currently admitted and awaiting pop."""
        with self._cond:
            return self._depth

    @property
    def batches(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def submit(self, item: Any, size: int, *, block: bool = False) -> None:
        """Admit ``item`` costing ``size`` jobs of capacity.

        Non-blocking by default: raises :class:`QueueFullError` when over
        capacity.  ``block=True`` waits for capacity instead (stdin-pipe
        backpressure).  Raises :class:`QueueClosedError` once draining.
        A batch larger than the whole queue can never be admitted; that
        raises :class:`QueueFullError` even in blocking mode.

        Blocked submitters are served strictly FIFO: freed capacity goes
        to the longest-waiting batch, and later arrivals — blocking or
        not — cannot claim capacity past a waiter.  Without the ticket
        queue a large blocked batch could starve forever: every pop's
        freed capacity would be snatched by whichever small submission
        raced in first, and ``depth + large_size <= max_jobs`` might
        never hold at the instant the large waiter woke.
        """
        if size <= 0:
            raise ValueError(f"batch size must be > 0, got {size}")
        with self._cond:
            if self._closed:
                raise QueueClosedError("admission queue is draining")
            if size > self.max_jobs:
                raise QueueFullError(size, self._depth, self.max_jobs)
            if self._depth + size > self.max_jobs or self._waiters:
                if not block:
                    # Waiters present counts as full even when the batch
                    # itself would fit: capacity freed while they queue
                    # belongs to them, not to whoever raced in last.
                    raise QueueFullError(size, self._depth, self.max_jobs)
                ticket = object()
                self._waiters.append(ticket)
                try:
                    while (
                        self._waiters[0] is not ticket
                        or self._depth + size > self.max_jobs
                    ):
                        self._cond.wait()
                        if self._closed:
                            raise QueueClosedError(
                                "admission queue is draining"
                            )
                finally:
                    self._waiters.remove(ticket)
                    # Wake the new head (and any non-blocking poller).
                    self._cond.notify_all()
            self._items.append((item, size))
            self._depth += size
            self._cond.notify_all()

    def pop(self) -> Any | None:
        """Next admitted item; blocks.  ``None`` == closed and empty."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if not self._items:
                return None
            item, size = self._items.popleft()
            self._depth -= size
            self._cond.notify_all()
            return item

    def close(self) -> None:
        """Start draining: reject new submissions, keep serving pops."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
