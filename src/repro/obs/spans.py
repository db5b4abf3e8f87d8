"""Span-based tracing for the walk→directory→attach→SQL pipeline.

A *span* is one timed stage with a name, attributes, and a parent —
``query.run`` contains ``walker.walk`` contains many ``query.dir``
spans, each containing ``query.attach`` and per-stage ``query.sql``
spans. Finished spans land in a bounded ring buffer (old spans are
dropped, never blocked on), exportable as JSON lines
(:func:`repro.obs.export.spans_to_jsonl`) for flamegraph-style
inspection of where a slow query actually spent its time.

Cross-thread propagation: :class:`~repro.scan.walker
.ParallelTreeWalker` creates fresh worker threads per walk, so the
caller's active span would normally be invisible to them. The walker
captures :meth:`Tracer.current_context` before starting workers and
each worker calls :meth:`Tracer.adopt` once — after that, spans opened
inside ``expand`` parent correctly across the thread boundary and
share the caller's trace id.

The active-span stack is per-thread (``threading.local``), so starting
and ending spans takes no lock on the hot path: the ring append is one
GIL-atomic ``deque.append`` of a plain tuple (materialised into
:class:`Span` objects only when :meth:`Tracer.spans` is read), and the
emitted tally lives in per-thread cells merged on read — the same
idiom as the metrics registry's shards. :class:`NullTracer` is the
disabled-mode stand-in (``enabled`` False), whose ``span()`` hands
back a shared no-op context manager.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

#: process-wide span-id source (``next()`` is GIL-atomic)
_ids = itertools.count(1)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of an active span."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One finished span."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    #: wall-clock start (epoch seconds)
    start: float
    #: monotonic duration in seconds
    duration: float
    thread: str
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "duration_s": self.duration,
                "thread": self.thread,
                **({"attrs": self.attrs} if self.attrs else {}),
            },
            sort_keys=True,
        )


class _ActiveSpan:
    """A started-but-unfinished span (mutable, single-thread)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id",
                 "start_epoch", "t0", "attrs")

    def __init__(self, name: str, parent: SpanContext | None, attrs: dict):
        self.name = name
        self.span_id = next(_ids)
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = self.span_id
            self.parent_id = None
        self.start_epoch = time.time()
        self.t0 = time.perf_counter()
        self.attrs = attrs

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)


class _ThreadTraceState:
    """One thread's active-span stack + emit tally (owner-written)."""

    __slots__ = ("stack", "base", "emitted", "thread_name")

    def __init__(self, thread_name: str):
        self.stack: list[_ActiveSpan] = []
        self.base: SpanContext | None = None
        self.emitted = 0
        self.thread_name = thread_name


class Tracer:
    """Bounded-ring span recorder with per-thread active-span stacks."""

    enabled = True

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # ring entries are Span-field tuples — cheaper to append than
        # dataclass instances on the per-directory hot path
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadTraceState] = []

    # -- context -------------------------------------------------------
    def _state(self) -> _ThreadTraceState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadTraceState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def current_context(self) -> SpanContext | None:
        """The innermost active span on this thread, falling back to an
        adopted cross-thread context."""
        state = self._state()
        if state.stack:
            return state.stack[-1].context
        return state.base

    def adopt(self, ctx: SpanContext | None) -> None:
        """Install a parent context captured on another thread, so
        spans opened on *this* thread nest under it (walker workers
        call this once at start-up)."""
        self._state().base = ctx

    # -- span lifecycle ------------------------------------------------
    def start(self, name: str, **attrs) -> _ActiveSpan:
        state = self._state()
        if state.stack:
            parent = state.stack[-1].context
        else:
            parent = state.base
        span = _ActiveSpan(name, parent, attrs)
        state.stack.append(span)
        return span

    def end(self, span: _ActiveSpan, **attrs) -> None:
        duration = time.perf_counter() - span.t0
        state = self._state()
        stack = state.stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order end (error paths): remove wherever it is
            try:
                stack.remove(span)
            except ValueError:
                pass
        if attrs:
            span.attrs.update(attrs)
        state.emitted += 1  # owner-thread cell: no lock
        self._ring.append(
            (
                span.name,
                span.trace_id,
                span.span_id,
                span.parent_id,
                span.start_epoch,
                duration,
                state.thread_name,
                span.attrs,
            )
        )

    def discard(self, span: _ActiveSpan) -> None:
        """Close ``span`` without recording it: it timed nothing that
        happened (a replay-only attempt that declined)."""
        try:
            self._state().stack.remove(span)
        except ValueError:
            pass

    @contextmanager
    def span(self, name: str, **attrs):
        active = self.start(name, **attrs)
        try:
            yield active
        finally:
            self.end(active)

    # -- reading -------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, oldest first (a copy; safe while tracing)."""
        return sorted(
            (Span(*fields) for fields in list(self._ring)),
            key=lambda s: (s.start, s.span_id),
        )

    @property
    def emitted(self) -> int:
        with self._lock:
            states = list(self._states)
        return sum(s.emitted for s in states)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring by newer ones."""
        return max(0, self.emitted - len(self._ring))

    def reset(self) -> None:
        with self._lock:
            for s in self._states:
                s.emitted = 0
        self._ring.clear()


class _NullSpanCm:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CM = _NullSpanCm()


class NullTracer:
    """Disabled-mode tracer: no state, no allocation per span."""

    enabled = False
    capacity = 0
    emitted = 0
    dropped = 0

    def current_context(self) -> SpanContext | None:
        return None

    def adopt(self, ctx) -> None:
        pass

    def start(self, name: str, **attrs):
        return None

    def end(self, span, **attrs) -> None:
        pass

    def discard(self, span) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_CM

    def spans(self) -> list[Span]:
        return []

    def reset(self) -> None:
        pass
