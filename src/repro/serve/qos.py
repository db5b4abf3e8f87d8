"""QoS primitives: rate limits, tenant quotas, admission control.

Robinhood's experience with billions-of-entry namespaces (PAPERS.md)
is that shared metadata services die without throttling: one tenant's
flood queues behind everyone's requests until every response is late.
The serving layer therefore rejects early and cheaply, in three
rings, before a request ever reaches the engine:

1. **per-tenant token bucket** (:class:`TokenBucket`) — sustained
   request *rate* per tenant, with a burst allowance; over-rate
   requests are rejected immediately with a retry-after hint;
2. **per-tenant concurrency quota** (:class:`TenantQuota`) — how many
   requests one tenant may have in flight at once, so a single tenant
   cannot occupy every executor slot even while under its rate;
3. **global admission control** (:class:`AdmissionController`) — a
   fixed number of executor slots plus a *bounded* wait queue, for
   the requests that need the executor: a result-cache hit the event
   loop answers passes the first two rings and never this one.
   Queue-full and deadline-exceeded-while-queued requests are shed
   (HTTP 503 with retry-after) instead of piling on: an unbounded
   queue converts overload into unbounded latency for every tenant
   (queue collapse — ``benchmarks/bench_serving.py`` measures exactly
   this), a bounded one converts it into fast, honest rejections.

The bucket and quota are thread-safe (the sync server may share
them); the admission controller is single-event-loop asyncio, which
is what makes it lock-free — state mutations never cross an
``await``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from typing import Callable

from repro import obs


class QuotaExceeded(Exception):
    """Per-tenant concurrency quota exhausted."""

    def __init__(self, tenant: str, limit: int) -> None:
        super().__init__(
            f"{tenant!r} already has {limit} requests in flight"
        )
        self.tenant = tenant
        self.limit = limit


class LoadShed(Exception):
    """Admission control rejected the request (``reason`` is
    ``queue_full`` or ``deadline``); retry after ``retry_after``."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(f"load shed ({reason})")
        self.reason = reason
        self.retry_after = retry_after


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second refill up to
    ``burst``; each request takes one token.

    :meth:`acquire` never sleeps — it returns 0.0 on admission or the
    seconds until a token will exist (the retry-after hint). The
    clock is injectable so tests drive time deterministically.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_lock", "_clock")

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        self._tokens = self.burst
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens. Returns 0.0 (admitted) or the seconds
        until ``n`` tokens will have accumulated (rejected)."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= n:
                self._tokens -= n
                return 0.0
            return (n - self._tokens) / self.rate


class TenantQuota:
    """Per-tenant in-flight request counter with a shared limit.

    ``limit=None`` disables the quota (every acquire succeeds)."""

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be > 0 (or None to disable)")
        self.limit = limit
        self._inflight: dict[str, int] = {}
        self._lock = threading.Lock()

    def acquire(self, tenant: str) -> None:
        """Claim a slot for ``tenant`` or raise :class:`QuotaExceeded`."""
        if self.limit is None:
            return
        with self._lock:
            n = self._inflight.get(tenant, 0)
            if n >= self.limit:
                raise QuotaExceeded(tenant, self.limit)
            self._inflight[tenant] = n + 1

    def release(self, tenant: str) -> None:
        if self.limit is None:
            return
        with self._lock:
            n = self._inflight.get(tenant, 0) - 1
            if n > 0:
                self._inflight[tenant] = n
            else:
                self._inflight.pop(tenant, None)

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)


class AdmissionController:
    """``max_inflight`` executor slots plus a bounded FIFO wait queue.

    Asyncio-only: every method runs on the event loop, so there is no
    lock — no state mutation crosses an ``await``. A request past the
    slot count waits in the queue (its wait is bounded by its own
    deadline); a request past the *queue* bound is shed immediately.
    Slot handoff is direct: :meth:`release` wakes the oldest waiter
    and transfers the slot without the in-flight count ever dipping,
    so FIFO order is exact and no late arrival can steal a slot from
    the queue head.

    ``retry_after`` scales with queue depth at rejection time — a
    deeper queue means a longer suggested backoff — which is what
    keeps shed-and-retry traffic from re-arriving in lockstep.
    """

    def __init__(
        self,
        max_inflight: int,
        queue_limit: int,
        retry_after: float = 0.5,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be > 0")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.inflight = 0
        self._waiters: deque[asyncio.Future] = deque()
        #: requests shed, by reason (mirrored into obs when enabled)
        self.shed = {"queue_full": 0, "deadline": 0}

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def _retry_hint(self) -> float:
        return self.retry_after * (1.0 + len(self._waiters) / max(
            1, self.queue_limit
        ))

    def _gauge(self) -> None:
        rec = obs.metrics()
        if rec.enabled:
            rec.gauge("gufi_serve_queue_depth", float(len(self._waiters)))

    def _shed(self, reason: str) -> LoadShed:
        self.shed[reason] += 1
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_serve_shed_total", reason=reason)
        return LoadShed(reason, self._retry_hint())

    async def acquire(self, timeout: float | None = None) -> None:
        """Claim an execution slot, queuing up to ``timeout`` seconds.

        Raises :class:`LoadShed` when the queue is full on arrival
        (``queue_full``) or the deadline lapses while queued
        (``deadline``)."""
        if self.inflight < self.max_inflight and not self._waiters:
            self.inflight += 1
            self._gauge()
            return
        if len(self._waiters) >= self.queue_limit:
            raise self._shed("queue_full")
        if timeout is not None and timeout <= 0:
            raise self._shed("deadline")
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._waiters.append(fut)
        self._gauge()
        handle = None
        if timeout is not None:
            handle = loop.call_later(timeout, self._expire, fut)
        try:
            # a granted future means the releaser already transferred
            # its slot to us (inflight unchanged); an expired one
            # raises LoadShed directly
            await fut
        except asyncio.CancelledError:
            # the request was torn down while queued (client gone):
            # give back whatever we hold — a granted slot, or our
            # queue position
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                self.release()
            else:
                self._discard(fut)
            raise
        finally:
            if handle is not None:
                handle.cancel()
            self._gauge()

    def _expire(self, fut: asyncio.Future) -> None:
        if not fut.done():
            self._discard(fut)
            fut.set_exception(self._shed("deadline"))

    def _discard(self, fut: asyncio.Future) -> None:
        try:
            self._waiters.remove(fut)
        except ValueError:
            pass

    def release(self) -> None:
        """Return a slot: hand it to the oldest live waiter, or free it."""
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(None)
                self._gauge()
                return
        self.inflight = max(0, self.inflight - 1)
