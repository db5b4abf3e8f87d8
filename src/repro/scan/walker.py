"""Parallel tree descent (paper §III-C).

All of GUFI's tools — scanners, index builders, and the query engine —
are built on one code base: a thread pool descending a tree, each
directory processed by exactly one thread, with discovered
sub-directories handed to the shared work queue. This module is that
code base. It is generic over the node type: callers supply an
``expand(item) -> iterable of child items`` function, so the same pool
walks an in-memory VFS, an on-disk index hierarchy, or a list of
database shards.

Hot-path accounting is lock-free: every counter a worker touches per
item (items handled, completion timestamp, errors) lives in a slot
owned by that worker alone, and the slots are merged once after the
walk. Children are handed off as *one* batched queue put per expanded
directory; a worker keeps its current batch local (depth-biased, which
also bounds queue memory on wide trees) and shares the remainder only
when the shared queue has run dry and siblings may be idle.

Failure handling has three tiers, matching what a production walker
meets on a billion-entry file system:

* transient errors (an NFS directory read timing out) are retried in
  place with bounded backoff when the caller supplies a
  :class:`RetryPolicy` — the item never leaves its worker;
* permanent errors are recorded in ``WalkStats.errors`` and do not
  stop other work (an unreadable directory must not kill a scan);
* :class:`FatalWalkError` (e.g. an injected
  :class:`~repro.scan.faults.BuildCrash`) aborts the whole walk:
  workers drain the queue without processing and the exception
  propagates, simulating process death for crash-safety tests. So
  does anything that is not an ``Exception`` — ``SystemExit``,
  ``KeyboardInterrupt`` — raised from ``expand``: it is re-raised on
  the caller, never left to kill a worker whose share of the queue
  nobody would then drain.

Per-thread completion times are recorded because Fig 8c plots exactly
that: when each worker finishes its last unit of work, revealing the
effective concurrency of differently-sharded indexes. Fig 8c's
completion times (and ``items_per_thread``) count every item a worker
*handled* — successes and failures alike, since the thread was busy
either way — while ``items_processed`` counts only successful
expansions and ``items_errored`` the failures.

Observability: each walk is one ``walker.walk`` span whose context is
propagated into the worker threads (so spans the ``expand`` callback
opens nest correctly under the caller's trace), and the merged
per-thread tallies — including retry attempts that backoff then
*succeeded*, which no caller-visible error ever reports — are folded
into the process metrics registry once per walk.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro import obs

T = TypeVar("T")

#: ``sched_yield(2)`` where the platform has it
_yield_cpu: Callable[[], None] = getattr(os, "sched_yield", lambda: None)


def _await_exit(thread: threading.Thread) -> None:
    """Hand a joined thread the CPU until its OS thread is gone.

    ``join()`` returns when the thread's interpreter state is released,
    a few microseconds before its OS thread exits — and on a busy CPU
    waking the joiner preempts it right there, so it outlives the walk
    by milliseconds, its CPU time still charged to the live process.
    Where ``/proc`` lists the process's threads, yield until it no
    longer lists this one (at most a thousand times); elsewhere once."""
    task = f"/proc/self/task/{thread.native_id}"
    for _ in range(1000):
        _yield_cpu()
        if not os.path.exists(task):
            return


def default_worker_count() -> int:
    """Worker threads to use when the caller doesn't say: the CPUs this
    process may actually run on (its affinity mask — a container or
    cpuset grants fewer than the machine has), falling back to the
    machine count where affinity is unsupported."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class FatalWalkError(Exception):
    """An error that must abort the entire walk (simulated process
    death, resource exhaustion). Never retried, never recorded as a
    per-item error: it propagates out of :meth:`ParallelTreeWalker.walk`
    after the pool shuts down."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient per-item failures.

    ``sleep`` is injectable so tests (and cost-model experiments) can
    charge a :class:`~repro.sim.clock.VirtualClock` instead of
    sleeping: ``RetryPolicy(sleep=clock.charge)``.
    """

    #: additional attempts after the first failure
    retries: int = 2
    #: seconds before the first retry
    backoff: float = 0.005
    multiplier: float = 2.0
    max_backoff: float = 0.25
    #: exception types considered transient; everything else is
    #: recorded immediately
    retry_on: tuple[type[BaseException], ...] = (OSError,)
    sleep: Callable[[float], Any] = time.sleep

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        return min(self.max_backoff, self.backoff * self.multiplier**attempt)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        return attempt < self.retries and isinstance(exc, self.retry_on)


@dataclass
class WalkStats:
    """Outcome of one parallel walk."""

    #: items whose expand() completed without raising
    items_processed: int = 0
    #: items whose expand() raised (recorded in ``errors``); the
    #: walker's Fig 8c bookkeeping counts processed + errored
    items_errored: int = 0
    #: retry attempts performed under the :class:`RetryPolicy` (an item
    #: that failed twice then succeeded contributes 2)
    items_retried: int = 0
    elapsed: float = 0.0
    #: wall-clock offset (from walk start) at which each worker thread
    #: finished its final item; sorted ascending. Fig 8c's y-axis.
    thread_completion_times: list[float] = field(default_factory=list)
    #: items handled per worker thread (successes + failures), keyed
    #: by thread index
    items_per_thread: dict[int, int] = field(default_factory=dict)
    #: exceptions raised by expand(), with the offending item
    errors: list[tuple[Any, Exception]] = field(default_factory=list)

    @property
    def effective_concurrency(self) -> float:
        """Mean fraction of the walk each thread spent busy — 1.0 means
        all threads finished together (perfect balance)."""
        if not self.thread_completion_times or self.elapsed <= 0:
            return 0.0
        return sum(self.thread_completion_times) / (
            len(self.thread_completion_times) * self.elapsed
        )


class ParallelTreeWalker:
    """A reusable work pool over tree-shaped work.

    ``nthreads`` matches the paper's ``-n`` flag; ``None`` means
    :func:`default_worker_count` — the CPUs this process is allowed to
    run on. The pool is created per :meth:`walk` call (walks are long
    relative to thread start-up, and per-call pools keep the
    completion-time bookkeeping simple).
    """

    def __init__(self, nthreads: int | None = None):
        if nthreads is None:
            nthreads = default_worker_count()
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self.nthreads = nthreads

    def walk(
        self,
        roots: Iterable[T],
        expand: Callable[[T], Iterable[T]],
        *,
        collect_errors: bool = True,
        retry: RetryPolicy | None = None,
        faults: Any | None = None,
    ) -> WalkStats:
        """Process ``roots`` and everything ``expand`` discovers.

        ``expand`` is called once per item from exactly one worker
        thread; the items it returns are enqueued (as one batch) for
        any worker. Exceptions from ``expand`` are retried per
        ``retry`` (when transient), then recorded in the returned stats
        (or re-raised after the walk if ``collect_errors`` is False);
        they do not stop other work — matching how a production walker
        must survive unreadable directories. :class:`FatalWalkError`,
        and any ``BaseException`` that is not an ``Exception``, aborts
        the walk and is re-raised.

        ``faults`` is an optional
        :class:`~repro.scan.faults.FaultPlan`-shaped object whose
        ``fire("walker.expand", item)`` runs before each expansion
        (inside the retry loop, so transient injected faults exercise
        the backoff path).
        """
        # The queue carries *batches* (lists of items): one put per
        # expanded directory instead of one per child.
        work: queue.Queue = queue.Queue()
        root_list = list(roots)
        stats = WalkStats()
        if not root_list:
            return stats
        work.put(root_list)

        start = time.monotonic()
        # One slot per worker; each worker writes only its own slot,
        # so no lock is ever taken on the per-item path.
        last_done = [0.0] * self.nthreads
        handled = [0] * self.nthreads
        errored = [0] * self.nthreads
        retried = [0] * self.nthreads
        errors_per_thread: list[list[tuple[Any, Exception]]] = [
            [] for _ in range(self.nthreads)
        ]
        fatal: list[BaseException | None] = [None] * self.nthreads
        abort = threading.Event()

        def attempt_expand(tid: int, item: T) -> list[T] | None:
            """One item through the retry loop. Returns children on
            success, None when the item failed permanently (recorded)."""
            attempt = 0
            while True:
                try:
                    if faults is not None:
                        faults.fire("walker.expand", item)
                    children = expand(item)
                    return list(children) if children else []
                except FatalWalkError as exc:
                    fatal[tid] = exc
                    abort.set()
                    return None
                except Exception as exc:  # noqa: BLE001 - survive bad dirs
                    if retry is not None and retry.should_retry(exc, attempt):
                        retried[tid] += 1
                        retry.sleep(retry.delay(attempt))
                        attempt += 1
                        continue
                    errors_per_thread[tid].append((item, exc))
                    errored[tid] += 1
                    return None
                except BaseException as exc:  # exit, interrupt: the caller's
                    fatal[tid] = exc
                    abort.set()
                    return None

        otr = obs.tracer()
        walk_span = (
            otr.start("walker.walk", nthreads=self.nthreads)
            if otr.enabled
            else None
        )
        # captured on the caller thread so worker spans nest under it
        span_ctx = otr.current_context() if otr.enabled else None

        def worker(tid: int) -> None:
            if span_ctx is not None:
                otr.adopt(span_ctx)
            while True:
                batch = work.get()  # blocks; sentinels wake us to exit
                if batch is _SENTINEL:
                    work.task_done()
                    return
                try:
                    while batch:
                        if abort.is_set():
                            # Simulated process death: drop remaining
                            # work so the queue drains and the fatal
                            # error can propagate.
                            break
                        item = batch.pop()
                        if batch and work.empty():
                            # Siblings may be starving: hand the rest
                            # of the batch off in one put.
                            work.put(batch)
                            batch = []
                        kids = attempt_expand(tid, item)
                        if kids is None:
                            if fatal[tid] is not None:
                                break
                        else:
                            handled[tid] += 1
                            if kids:
                                batch.extend(kids)
                        last_done[tid] = time.monotonic() - start
                finally:
                    # One task_done per get: items kept local are
                    # covered by their originating batch.
                    work.task_done()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"walker-{i}", daemon=True)
            for i in range(self.nthreads)
        ]
        try:
            for t in threads:
                t.start()
            work.join()  # all enqueued batches processed (or dropped on abort)
            for _ in threads:
                work.put(_SENTINEL)
            for t in threads:
                t.join()
                _await_exit(t)

            fatal_exc = next((f for f in fatal if f is not None), None)
            if fatal_exc is not None:
                raise fatal_exc
        finally:
            if walk_span is not None:
                otr.end(
                    walk_span,
                    items=sum(handled),
                    errors=sum(errored),
                    retries=sum(retried),
                )

        stats.elapsed = time.monotonic() - start
        stats.items_processed = sum(handled)
        stats.items_errored = sum(errored)
        stats.items_retried = sum(retried)
        stats.thread_completion_times = sorted(last_done)
        stats.items_per_thread = {
            i: handled[i] + errored[i] for i in range(self.nthreads)
        }
        for errs in errors_per_thread:
            stats.errors.extend(errs)
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_walker_walks_total")
            rec.counter("gufi_walker_items_total", stats.items_processed)
            rec.counter("gufi_walker_items_errored_total", stats.items_errored)
            rec.counter("gufi_walker_retries_total", stats.items_retried)
            rec.observe("gufi_walker_walk_seconds", stats.elapsed)
        if not collect_errors and stats.errors:
            raise stats.errors[0][1]
        return stats


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()
