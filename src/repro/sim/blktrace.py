"""``blktrace``-style I/O accounting for index reads (Fig 7).

The paper captures block-level disk accesses with ``blktrace`` while a
query runs, then divides bytes by query time to get achieved device
throughput. Our equivalent instruments the database layer: every
SQLite file the query engine opens reports the bytes it will read
(database files are read in full by the scan-style queries Fig 7
uses), tagged with the worker thread and a timestamp, so experiments
can compute both total volume and the concurrency profile offered to
the (modelled) device.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReadEvent:
    """One logical read: ``nbytes`` from file ``path`` by ``thread``."""

    path: str
    nbytes: int
    thread: str
    t: float  # wall-clock seconds when issued (monotonic origin)


@dataclass
class IOTracer:
    """Thread-safe collector of :class:`ReadEvent` records.

    Pass an instance to the query engine (``QueryEngine(tracer=...)``)
    or the Brindexer query; ``record`` is cheap (a lock + append).
    """

    events: list[ReadEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def record(self, path: str, nbytes: int) -> None:
        ev = ReadEvent(
            path=path,
            nbytes=nbytes,
            thread=threading.current_thread().name,
            t=time.monotonic() - self._t0,
        )
        with self._lock:
            self.events.append(ev)

    def reset(self) -> None:
        with self._lock:
            self.events.clear()
            self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # Aggregations used by the Fig 7 harness
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self.events)

    @property
    def num_reads(self) -> int:
        with self._lock:
            return len(self.events)

    def bytes_by_thread(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            for e in self.events:
                out[e.thread] = out.get(e.thread, 0) + e.nbytes
        return out

    def concurrency_profile(self, nbuckets: int = 50) -> list[int]:
        """Distinct threads issuing reads per time bucket — a coarse
        offered-queue-depth series over the run."""
        with self._lock:
            if not self.events:
                return []
            t_max = max(e.t for e in self.events) or 1e-9
            buckets: list[set[str]] = [set() for _ in range(nbuckets)]
            for e in self.events:
                idx = min(nbuckets - 1, int(e.t / t_max * nbuckets))
                buckets[idx].add(e.thread)
        return [len(b) for b in buckets]

    def mean_read_size(self) -> float:
        with self._lock:
            if not self.events:
                return 0.0
            return sum(e.nbytes for e in self.events) / len(self.events)
