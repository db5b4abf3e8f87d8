"""Process-wide metrics registry: counters, gauges, histograms.

The hot paths this registry serves (the query engine's per-directory
loop, the walker's per-item loop) already keep their accounting in
per-thread slots merged once per run — the lock-free idiom from
:mod:`repro.core.session` and :mod:`repro.scan.walker`. The registry
generalises it: every writing thread owns a private *shard* (reached
through ``threading.local``, registered once under a lock), counter
increments and histogram observations touch only that shard, and
:meth:`MetricsRegistry.snapshot` merges all shards on demand. No lock
is ever taken on the recording path.

Two recorder implementations share one duck type:

* :class:`MetricsRegistry` — the real thing (``enabled`` is True);
* :class:`NullRecorder` — every method is a no-op ``pass``
  (``enabled`` is False), so instrumented code costs one attribute
  check (or one empty call) when observability is off.

Instrumented code follows one convention: fetch the recorder once per
operation (``rec = obs.metrics()``), guard any non-trivial work —
``time.perf_counter()`` pairs, dict merging — behind ``rec.enabled``,
and fold per-thread tallies into the registry *once* at the end of the
operation rather than per item.

Metric naming follows Prometheus conventions: ``gufi_<subsystem>_
<what>_total`` for counters, ``_seconds`` for histograms of
durations; labels are passed as keyword arguments
(``rec.counter("gufi_query_stage_seconds_total", t, stage="E")``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field

#: one metric series: (name, sorted (label, value) pairs)
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]

#: default histogram bucket upper bounds, in seconds — spans the
#: microsecond-to-minutes range a metadata query system produces
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def series_key(name: str, labels: dict) -> SeriesKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class _Hist:
    """One thread-shard's view of one histogram series."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "HistogramSnapshot") -> None:
        """Fold a merged snapshot of the same series into this shard's
        live histogram (the cross-process gather path). Matching bucket
        layouts add count-for-count; a differing layout re-buckets each
        bucket by its upper bound — ``sum``/``count`` stay exact either
        way, only bucket attribution degrades."""
        if tuple(other.bounds) == tuple(self.bounds):
            for i, c in enumerate(other.counts):
                self.counts[i] += c
        else:
            edges = list(other.bounds) + [float("inf")]
            for bound, c in zip(edges, other.counts):
                if c:
                    self.counts[bisect_left(self.bounds, bound)] += c
        self.sum += other.sum
        self.count += other.count


class _Shard:
    """Per-thread metric storage. Written by exactly one thread."""

    __slots__ = ("counters", "hists")

    def __init__(self) -> None:
        self.counters: dict[SeriesKey, float] = {}
        self.hists: dict[SeriesKey, _Hist] = {}


@dataclass(frozen=True)
class HistogramSnapshot:
    """Merged view of one histogram series."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]  # len(bounds) + 1; last is +Inf
    sum: float
    count: int

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound of
        the bucket holding the q-th observation)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass
class MetricsSnapshot:
    """Point-in-time merge of every shard. Plain dicts keyed by
    :data:`SeriesKey`, plus lookup helpers used by tests, exporters,
    and the CLI table."""

    counters: dict[SeriesKey, float] = field(default_factory=dict)
    gauges: dict[SeriesKey, float] = field(default_factory=dict)
    histograms: dict[SeriesKey, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str, **labels) -> float:
        """Value of one counter series (0.0 when never incremented)."""
        return self.counters.get(series_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge(self, name: str, **labels) -> float | None:
        return self.gauges.get(series_key(name, labels))

    def histogram(self, name: str, **labels) -> HistogramSnapshot | None:
        return self.histograms.get(series_key(name, labels))

    def names(self) -> set[str]:
        out = {n for (n, _) in self.counters}
        out.update(n for (n, _) in self.gauges)
        out.update(n for (n, _) in self.histograms)
        return out

    # -- cross-process serialization -----------------------------------
    def to_dict(self) -> dict:
        """A plain-data (JSON/pickle-safe) form of the snapshot, for
        shipping a worker process's metrics back to its parent."""
        return {
            "counters": [
                [name, [list(lv) for lv in labels], v]
                for (name, labels), v in self.counters.items()
            ],
            "gauges": [
                [name, [list(lv) for lv in labels], v]
                for (name, labels), v in self.gauges.items()
            ],
            "histograms": [
                [
                    name,
                    [list(lv) for lv in labels],
                    list(h.bounds),
                    list(h.counts),
                    h.sum,
                    h.count,
                ]
                for (name, labels), h in self.histograms.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict`."""

        def key(name: str, labels: list) -> SeriesKey:
            return (name, tuple((str(k), str(v)) for k, v in labels))

        snap = cls()
        for name, labels, v in data.get("counters", []):
            snap.counters[key(name, labels)] = float(v)
        for name, labels, v in data.get("gauges", []):
            snap.gauges[key(name, labels)] = float(v)
        for name, labels, bounds, counts, total, count in data.get(
            "histograms", []
        ):
            snap.histograms[key(name, labels)] = HistogramSnapshot(
                bounds=tuple(bounds),
                counts=tuple(counts),
                sum=float(total),
                count=int(count),
            )
        return snap


class MetricsRegistry:
    """Process-wide metrics store with lock-free per-thread shards.

    ``counter``/``observe`` touch only the calling thread's shard;
    ``gauge`` (rare: set at snapshot points, not in loops) takes the
    registry lock. ``snapshot()`` merges everything under the lock —
    safe against concurrent writers because shard dicts are only ever
    mutated by their owning thread with GIL-atomic operations, and the
    merge materialises each dict in one C-level call.
    """

    enabled = True

    #: the most series keys :meth:`_key` remembers; past it, it starts
    #: over (the label values a process records are few: tools,
    #: stages, rules, users)
    KEY_MEMO_MAX = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._shards: list[_Shard] = []
        self._gauges: dict[SeriesKey, float] = {}
        #: series keys by name and label items in call order
        self._keys: dict[tuple, SeriesKey] = {}

    # -- recording (hot path) ------------------------------------------
    def _shard(self) -> _Shard:
        try:
            return self._tls.shard
        except AttributeError:
            shard = self._tls.shard = _Shard()
            with self._lock:
                self._shards.append(shard)
            return shard

    def _key(self, name: str, labels: dict) -> SeriesKey:
        """:func:`series_key`, resolved once per name and label items.
        Only string label values are remembered: ``1``, ``1.0`` and
        ``True`` are one dict key but three series."""
        key = series_key(name, labels)
        if all(type(v) is str for v in labels.values()):
            if len(self._keys) >= self.KEY_MEMO_MAX:
                self._keys.clear()
            self._keys[(name, *labels.items())] = key
        return key

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a monotonically increasing counter.
        Recording a 0 creates the series (so exporters list it)."""
        try:
            counters = self._tls.shard.counters
        except AttributeError:
            counters = self._shard().counters
        key = (
            self._keys.get((name, *labels.items())) or self._key(name, labels)
            if labels
            else (name, ())
        )
        counters[key] = counters.get(key, 0.0) + value

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> None:
        """Record one observation into a histogram series."""
        try:
            hists = self._tls.shard.hists
        except AttributeError:
            hists = self._shard().hists
        key = (
            self._keys.get((name, *labels.items())) or self._key(name, labels)
            if labels
            else (name, ())
        )
        h = hists.get(key)
        if h is None:
            h = hists[key] = _Hist(buckets)
        h.observe(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a last-write-wins gauge (not a hot-path operation)."""
        with self._lock:
            self._gauges[series_key(name, labels)] = float(value)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        snap = MetricsSnapshot()
        with self._lock:
            snap.gauges = dict(self._gauges)
            for shard in self._shards:
                for key, v in list(shard.counters.items()):
                    snap.counters[key] = snap.counters.get(key, 0.0) + v
                for key, h in list(shard.hists.items()):
                    counts, total, n = list(h.counts), h.sum, h.count
                    prev = snap.histograms.get(key)
                    if prev is None:
                        snap.histograms[key] = HistogramSnapshot(
                            bounds=tuple(h.bounds),
                            counts=tuple(counts),
                            sum=total,
                            count=n,
                        )
                    else:
                        snap.histograms[key] = HistogramSnapshot(
                            bounds=prev.bounds,
                            counts=tuple(
                                a + b for a, b in zip(prev.counts, counts)
                            ),
                            sum=prev.sum + total,
                            count=prev.count + n,
                        )
        return snap

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold another process's merged snapshot into this registry —
        the gather half of scatter-gather observability. Counters and
        histogram tallies add; gauges are last-write-wins. The fold
        lands in the calling thread's shard, so concurrent merges from
        different threads stay lock-free on the counter path."""
        shard = self._shard()
        for key, v in snap.counters.items():
            shard.counters[key] = shard.counters.get(key, 0.0) + v
        for key, hs in snap.histograms.items():
            h = shard.hists.get(key)
            if h is None:
                h = shard.hists[key] = _Hist(tuple(hs.bounds))
            h.merge(hs)
        if snap.gauges:
            with self._lock:
                self._gauges.update(snap.gauges)

    def reset(self) -> None:
        """Zero every series. Shards stay registered (threads hold
        references to them through their ``threading.local``)."""
        with self._lock:
            for shard in self._shards:
                shard.counters.clear()
                shard.hists.clear()
            self._gauges.clear()


class NullRecorder:
    """The disabled-mode recorder: every operation is a no-op, so
    instrumentation left in hot paths costs one method call at most —
    and usually nothing, because call sites guard on ``enabled``."""

    enabled = False

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        pass

    def observe(self, name, value, buckets=DEFAULT_BUCKETS, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        pass

    def reset(self) -> None:
        pass
