"""Materialized query results with changefeed-driven invalidation.

The tsummary/rollup optimizations cut work *per query*; nothing in the
paper's design memoizes *across* queries, so a dashboard re-running
the same selective query pays the full permission-gated traversal
every time even when the index has not changed. This module adds that
missing layer: a bounded, credential-scoped :class:`ResultCache` that
materializes complete result row sets (walk-stage rows plus the J/G
aggregate output) keyed by ``(resolved credentials, normalized query
spec, plan window, start path)`` — plus the descent bit ``False`` for a
one-directory run (``run_single``: ``gufi_ls``/``gufi_stat``), which
never shares the walk's entry from the same start.

Correctness model — an entry may be served only when it is *provably*
equal to what a cold run would return right now:

* **Validity token.** Each entry holds (a) the stamps its walk read
  under, recorded by the walk itself (:attr:`QueryResult.visited_paths`)
  — for every directory it touched the ``db.db``
  :func:`~repro.store.layout.file_stamp` (inode, mtime_ns, size), plus
  the physical directory's :func:`~repro.store.layout.dir_stamp` where
  it read the child listing, and the ``db.db`` stamp of each of the
  start path's ancestors (whose permission bits gate reachability) —
  and (b) the index's write clock (below), read before the run. A
  one-directory entry's stamps are that directory's ``db.db`` and its
  ancestors' — no listing: it reads none. Revalidation (the stamp
  pass) asks the handle's one stamp rule of each recorded stamp
  (:meth:`DirMetaCache.current <repro.core.index.DirMetaCache.current>`):
  a stat on a path string, none where a drained watch vouches — not
  O(traversal), which would open every database and re-run SQL — or,
  while the write clock has not moved, no stamp at all (below).

* **Push invalidation.** Every writer in this codebase (the one
  in-place apply — changefeed, update, graft and prune — refresh and
  rollup/unrollup) already announces itself through
  :class:`~repro.core.index.DirMetaCache`'s ``invalidate*`` hooks;
  the result cache subscribes to those of its one index handle (cache
  keys do not name the index, so a cache serves one) and takes out of
  service the entries whose visited set holds the invalidated path,
  its parent, or (for a subtree) a path below it: a ``/home/alice``
  entry survives a change two levels below ``/proj``, not one in
  ``/proj`` (its parent ``/`` is every entry's ancestor) nor an apply
  under a root tree summary (its refresh rewrites ``/``); an entry
  that read ``/``'s listing fails its stamp pass after any cursor
  commit (the root's mtime moves).

* **The re-run is the repair.** An invalidated *stream-shaped* entry
  (``S``/``E`` rows only — nothing carried between directories) is
  marked **stale** instead of dropped: never served, a miss like any
  other, first to be evicted — and the *donor* of the run that
  replaces it. Besides its rows it holds what its walk decided in each
  directory (:attr:`CacheEntry.outcomes`: denied, no stage survives,
  or stages ran, with the plan-pruned bit and whether descent read the
  listing). A directory's decision depends only on the key and its
  ``DirMeta``, so where the record the handle holds for it still
  carries the donor's ``db.db`` stamp the re-run replays it: tallied
  as a warm walk tallies it, the donor's rows emitted where its stages
  ran (:meth:`CaptureSink.donated`), its listing read as any walk
  reads it and its children checked inline. Every other directory —
  changed, new, errored, absent — is decided afresh. ``dirs_reused``
  counts the directories whose rows came from the donor.

* **Write clock.** The index handle's one change counter
  (:attr:`DirMetaCache.epoch <repro.core.index.DirMetaCache.epoch>`),
  read where its watch vouches (:meth:`ResultCache.clock`). An entry
  whose clock equals it is valid without a stamp; any other goes to
  the stamp pass, and one that passes is re-armed at the clock read
  before it. The signal is described once, in ``docs/ARCHITECTURE.md``
  ("One change signal per index handle").

* **Capture races.** One invariant: every stamp in an entry — and
  its clock — was taken *before* the rows it vouches for were read,
  so a write racing the walk makes the next stamp pass miss (it also
  moves the clock past the entry's) and never vouches for what it
  replaced: :meth:`ResultCache.store` re-stats nothing. The walk
  records each stamp as it reads (the DirMeta record's own, a
  listing's, a cold read's bracket), which is why a cache attaches
  only to a single-process engine; a capture during which the
  handle's epoch moved — a hook fired, or any thread drained a batch
  of watch events — aborts its store.

* **Credential scoping.** The key includes the resolved
  ``(uid, gid, groups)`` — what the server resolves on every
  invocation — so entries can never be replayed across principals,
  and an optional per-scope byte budget keeps one tenant's hot
  queries from evicting everyone else's.

The cache assumes deterministic SQL (no ``random()``/``now``-style
terms), the same assumption the scatter-gather merge contract already
makes for ``gufi_query``-shaped specs.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
import threading
import time
import weakref
from collections import OrderedDict
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import obs

from ..checkpoint import ChangefeedCheckpoint
from ..plan import QueryPlan
from .sinks import ResultSink, Row, SinkSummary
from .types import _COUNTER_FIELDS, QueryResult, QuerySpec, Token

if TYPE_CHECKING:
    from repro.fs.changelog import ChangeJournal
    from repro.fs.permissions import Credentials

    from ..index import DirMetaCache, GUFIIndex

#: (uid, gid, supplementary groups) — one principal's scope
CredKey = tuple[int, int, frozenset[int]]
#: full cache key: (credentials, normalized spec, plan window, start),
#: plus ``False`` for a one-directory (non-descending) run
CacheKey = (
    tuple[CredKey, tuple, tuple | None, str]
    | tuple[CredKey, tuple, tuple | None, str, bool]
)
#: one directory's extent in an entry's flat ``rows`` and its measured
#: bytes: (start, end, nbytes)
Batch = tuple[int, int, int]
#: the write clock: the handle's epoch where its watch vouches, else
#: (epoch, applied changefeed cursor) under a declared sole writer
Clock = int | tuple[int, int]


#: quoted SQL regions — string literals and quoted identifiers —
#: matched whole so their interior never takes part in whitespace
#: collapsing (''/""/`` doubling stays inside its region)
_QUOTED_RE = re.compile(
    r"'(?:[^']|'')*'"
    r'|"(?:[^"]|"")*"'
    r"|`(?:[^`]|``)*`"
    r"|\[[^\]]*\]"
)
_WS_RE = re.compile(r"\s+")


#: SQL texts up to this long have their normal form memoised
_NORM_MEMO_CHARS = 4096


def _norm_sql(sql: str | None) -> str | None:
    """Whitespace-collapsed SQL, so formatting differences share an
    entry — collapsed only *outside* quoted regions. Whitespace inside
    a string literal (or quoted identifier) is part of the query's
    meaning: ``name = 'a  b'`` and ``name = 'a b'`` are different
    queries and must never share a cache key. Unquoted runs collapse
    to a single space, never to nothing — ``'a' 'b'`` (a literal with
    an alias) must not become the escaped literal ``'a''b'``.
    Memoised per text (the last 1 024 short ones): a tool sends the
    same few statements again and again."""
    if not sql:
        return None
    if len(sql) <= _NORM_MEMO_CHARS:
        return _collapse_memo(sql)
    return _collapse(sql)


def _collapse(sql: str) -> str:
    out: list[str] = []
    pos = 0
    for m in _QUOTED_RE.finditer(sql):
        out.append(_WS_RE.sub(" ", sql[pos : m.start()]))
        out.append(m.group(0))
        pos = m.end()
    out.append(_WS_RE.sub(" ", sql[pos:]))
    return "".join(out).strip()


_collapse_memo = functools.lru_cache(maxsize=1024)(_collapse)


def spec_key(spec: QuerySpec) -> tuple:
    """Normalized row-determining fields of a spec. Where rows go is
    the sink's business, never the key's: replay goes through the
    caller's sink."""
    return (
        _norm_sql(spec.I),
        _norm_sql(spec.T),
        _norm_sql(spec.S),
        _norm_sql(spec.E),
        _norm_sql(spec.J),
        _norm_sql(spec.G),
        bool(spec.xattrs),
        bool(spec.t_no_prune),
    )


#: reads QueryPlan's fields, in order, into a tuple (they are all
#: primitives, so unlike ``dataclasses.astuple`` it copies nothing)
_plan_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(QueryPlan))
)


def plan_key(plan: QueryPlan | None) -> tuple | None:
    """The plan window as a value key."""
    return None if plan is None else _plan_fields(plan)


def cred_key(creds: "Credentials") -> CredKey:
    return (creds.uid, creds.gid, frozenset(creds.groups))


def make_key(
    creds: "Credentials",
    spec: QuerySpec,
    plan: QueryPlan | None,
    start: str,
    *,
    descend: bool = True,
) -> CacheKey:
    """The key of a walk from ``start`` — or, ``descend=False``, of the
    one directory ``run_single`` reads there, which carries the descent
    bit as a fifth element and so never shares the walk's entry."""
    key = (cred_key(creds), spec_key(spec), plan_key(plan), start)
    return key if descend else key + (False,)


#: the values sized by their length (a module constant: a tuple built
#: per value costs a third of the loop); any other counts 16 bytes
_SIZED = (str, bytes)


def _rows_nbytes(rows: Sequence[Row]) -> int:
    """Cheap size estimate of a row batch for the byte budget: 64 a
    row, plus each value's length where it has one, else 16."""
    n = 64 * len(rows)
    for v in chain.from_iterable(rows):
        n += len(v) if isinstance(v, _SIZED) else 16
    return n


class CaptureSink(ResultSink):
    """Tee wrapper: forwards every callback to the caller's sink while
    recording the full pre-cap row stream for the cache.

    Recording happens *before* the inner sink absorbs the batch, so a
    bounded/paginated caller sink's row cap never truncates the cached
    entry — replay re-applies whatever cap the future caller brings.
    A capture that outgrows ``max_bytes`` poisons itself (recording
    stops, rows are freed, forwarding continues untouched).

    ``donor`` is the stale entry this run replaces, if any: where the
    walk finds a directory's recorded decision still holds and its
    stages ran, it asks :meth:`donated` for the rows.
    """

    def __init__(
        self,
        inner: ResultSink,
        max_bytes: int,
        donor: "CacheEntry | None" = None,
    ) -> None:
        self.inner = inner
        self.max_bytes = max_bytes
        self.donor = donor
        self.rows: list[Row] = []
        self.final_rows: list[Row] = []
        #: emitting directory -> its batch in ``rows``
        self.batches: dict[str, Batch] = {}
        self.nbytes = 0
        #: directories served from the donor instead of their database
        self.reused = 0
        self.overflowed = False
        self._lock = threading.Lock()

    def _claim(self) -> None:
        super()._claim()
        self.inner._claim()

    def _record(
        self,
        bucket: list[Row],
        rows: list[Row],
        path: str | None = None,
        nbytes: int | None = None,
    ) -> None:
        """Record one batch (caller holds the lock)."""
        if self.overflowed:
            return
        if nbytes is None:
            nbytes = _rows_nbytes(rows)
        self.nbytes += nbytes
        if self.nbytes > self.max_bytes:
            self.overflowed = True
            self.rows = []
            self.final_rows = []
            self.batches = {}
            return
        if path is not None:
            lo = len(bucket)
            self.batches[path] = (lo, lo + len(rows), nbytes)
        bucket.extend(rows)

    # Each batch is recorded and forwarded under one lock, so the
    # caller's sink receives the rows in the entry's order: a replay
    # delivers the sequence this run delivered, and a value derived
    # from this run's rows (a cursor's digest) holds for its replays.
    def emit(self, path: str | None, rows: list[Row]) -> None:
        with self._lock:
            self._record(self.rows, rows, path)
            self.inner.emit(path, rows)

    def donated(self, path: str) -> None:
        """Emit the donor's rows for ``path`` — its stages ran there at
        capture — in place of running them: the walk has decided that
        its decision holds. Counts the directory as reused."""
        donor = self.donor
        assert donor is not None
        batch = donor.batches.get(path)
        with self._lock:
            if batch is not None:
                lo, hi, nbytes = batch
                rows = donor.rows[lo:hi]
                self._record(self.rows, rows, path, nbytes)
                self.inner.emit(path, rows)
            self.reused += 1

    def emit_final(self, rows: list[Row]) -> None:
        with self._lock:
            self._record(self.final_rows, rows)
            self.inner.emit_final(rows)

    def finish(self) -> SinkSummary:
        return self.inner.finish()


@dataclasses.dataclass
class CacheEntry:
    """One materialized result plus its validity token."""

    key: CacheKey
    #: walk-stage rows (per-directory batches, capture order)
    rows: list[Row]
    #: G-stage rows (emitted once via ``emit_final`` on replay)
    final_rows: list[Row]
    #: QueryResult counters replayed verbatim
    counters: dict[str, int]
    #: the run's validity token: touched path -> (db.db stamp,
    #: listing stamp), each taken before the walk read it
    stamps: Token
    #: the cache's write clock read before the capture or the last
    #: stamp pass that found the entry valid; None: no clock then
    clock: Clock | None
    nbytes: int
    #: what the walk decided in every directory it decided (see
    #: :attr:`QueryResult.outcomes`); None when the run cannot donate
    #: (aggregate/xattr spec) and the entry is dropped on invalidation
    outcomes: dict[str, int] | None = None
    #: emitting directory -> its batch in ``rows``: with ``outcomes``,
    #: what a directory whose stages ran hands the run that replaces it
    batches: dict[str, Batch] = dataclasses.field(default_factory=dict)
    #: invalidated, kept only as the donor of the run that replaces it
    stale: bool = False
    #: values derived from this entry's rows, kept with it by the
    #: caller that derived them (the serving layer keeps a cursor's
    #: rows digest here); it goes when the entry goes
    memo: dict = dataclasses.field(default_factory=dict)


class ResultCache:
    """Bounded credential-scoped cache of materialized query results.

    An entry is served only when it is still valid, by one of two
    rules:

    1. **Clock.** The entry's write clock equals the cache's
       (:meth:`clock`): the handle heard of no write since the entry
       was last checked.
    2. **Stamp pass.** Otherwise — and always without a clock —
       every stamp the walk read under still equals the file's.

    A cache serves one index handle (:meth:`bind_index`). Thread-safe:
    the server shares one instance across every warm session.
    ``max_scope_bytes`` bounds how much of the budget a single
    credential key may hold (the per-tenant budget); the global bound
    evicts LRU-first across scopes.
    """

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 256,
        max_entry_bytes: int | None = None,
        max_scope_bytes: int | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.max_entry_bytes = (
            max_entry_bytes if max_entry_bytes is not None else max_bytes // 4
        )
        self.max_scope_bytes = max_scope_bytes
        #: set by :meth:`attach_journal`: a changefeed is the sole
        #: writer of this index
        self.journal: "ChangeJournal | None" = None
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.total_bytes = 0
        self._scope_bytes: dict[CredKey, int] = {}
        #: the DirMeta cache of the one index handle this cache serves,
        #: and the listener hooked on it while bound
        self._meta: DirMetaCache | None = None
        self._hook: Callable[[str | None, bool], None] | None = None
        # advisory counters (mirrored into obs metrics when enabled)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.capture_aborts = 0
        self.dirs_reused = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_index(self, index: "GUFIIndex") -> None:
        """Subscribe to the index handle's DirMeta-cache invalidation
        hooks — the push half of invalidation — and arm the handle's
        watch, which lets its epoch be the write clock
        (:meth:`GUFIIndex.arm_watch`: once per handle, off this cache's
        lock). Cache keys do not name the
        index, so a cache serves one handle: binding it again does
        nothing, binding another raises ``ValueError``. The hook holds
        this cache weakly, so a dropped cache unhooks itself at the
        next notification."""
        meta = index.cache
        with self._lock:
            if self._meta is not None and self._meta is not meta:
                raise ValueError("a result cache serves one index handle")
            self._meta = meta
        index.arm_watch()
        with self._lock:
            if self._hook is not None:
                return
            self_ref = weakref.ref(self)

            def hook(path: str | None, subtree: bool) -> None:
                rc = self_ref()
                if rc is None:
                    meta.remove_listener(hook)
                else:
                    rc._on_invalidate(path, subtree)

            self._hook = hook
            meta.add_listener(hook)

    def close(self) -> None:
        """Unhook from the bound index's invalidation hooks. Safe to
        call repeatedly; the cache remains usable (lookups just lose
        push invalidation until the same handle is bound again, and
        keep the write clock)."""
        with self._lock:
            hook, self._hook = self._hook, None
        if hook is not None and self._meta is not None:
            self._meta.remove_listener(hook)

    def attach_journal(
        self, journal: "ChangeJournal", *, exclusive: bool = False
    ) -> None:
        """Declare that a changefeed is the sole writer of this index
        (``exclusive=True``, anything else is a ``ValueError``), which
        makes its applied cursor the write clock where no watch is
        armed: an entry untouched by any hook and by any apply since
        it was last checked is valid without a stat. A writer in
        another process announces nothing to a journal, so without
        that declaration (and without a watch) every hit pays the
        stamp pass."""
        if not exclusive:
            raise ValueError(
                "attach_journal needs exclusive=True: the cursor is a "
                "write clock only when the changefeed is the sole writer"
            )
        self.journal = journal

    # ------------------------------------------------------------------
    # Push invalidation (DirMetaCache listener)
    # ------------------------------------------------------------------
    def _on_invalidate(self, path: str | None, subtree: bool) -> None:
        rec = obs.metrics()
        with self._lock:
            if not self._entries:
                return
            if path is None:
                dropped = len(self)
                self._entries.clear()
                self.total_bytes = 0
                self._scope_bytes.clear()
            else:
                parent = path.rsplit("/", 1)[0] or "/"
                prefix = path.rstrip("/") + "/"
                doomed = [
                    entry
                    for entry in self._entries.values()
                    if not entry.stale
                    and self._touches(entry, path, parent, prefix, subtree)
                ]
                for entry in doomed:
                    self._retire_locked(entry)
                dropped = len(doomed)
            if dropped:
                self.invalidations += dropped
                if rec.enabled:
                    rec.counter(
                        "gufi_result_cache_invalidations_total", dropped
                    )

    @staticmethod
    def _touches(
        entry: CacheEntry, path: str, parent: str, prefix: str, subtree: bool
    ) -> bool:
        stamps = entry.stamps
        if path in stamps or parent in stamps:
            return True
        if subtree:
            return any(p.startswith(prefix) for p in stamps)
        return False

    def _retire_locked(self, entry: CacheEntry) -> None:
        """Take an invalidated entry out of service: one that can
        donate goes stale — at the LRU end, so it is evicted before any
        servable entry — and anything else is dropped."""
        if entry.outcomes is None:
            self._drop_locked(entry.key)
        else:
            entry.stale = True
            self._entries.move_to_end(entry.key, last=False)

    def _drop_locked(self, key: CacheKey) -> bool:
        """Forget ``key``; True when a servable entry went (a stale one
        was counted when it was invalidated, and is no eviction)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.total_bytes -= entry.nbytes
        scope = key[0]
        left = self._scope_bytes.get(scope, 0) - entry.nbytes
        if left > 0:
            self._scope_bytes[scope] = left
        else:
            self._scope_bytes.pop(scope, None)
        return not entry.stale

    # ------------------------------------------------------------------
    # Lookup / validation
    # ------------------------------------------------------------------
    def lookup(
        self,
        key: CacheKey,
        index: "GUFIIndex",
        admits: Callable[[CacheEntry], bool] | None = None,
        watched: bool | None = None,
    ) -> CacheEntry | None:
        """The entry for ``key``, revalidated — or None (miss): the
        clock check, then, where the clock cannot vouch, the stamp
        pass. With ``admits`` (the caller's bound on what serving an
        entry costs, for a caller that must not block on the stamp
        pass) only the clock check runs, on an entry ``admits``
        accepts, and a decline counts nothing: the caller asks again
        later. ``watched``: the caller drained the handle's watch
        (None: drain it here)."""
        rec = obs.metrics()
        entry = self._servable(key)
        if entry is not None and (admits is None or admits(entry)):
            t0 = time.perf_counter()
            if watched is None:
                watched = index.sync()
            clock = self.clock(index, watched)
            if clock is not None and clock == entry.clock:
                valid, rule = True, "clock"
            elif admits is not None:
                return None
            else:
                valid, rule = self._validate(entry, index, watched), "stamps"
            self._observe_validation(rec, t0, rule)
            if self._settle(rec, key, entry, clock, valid):
                return entry
        if admits is not None:
            return None
        with self._lock:
            self.misses += 1
        if rec.enabled:
            rec.counter("gufi_result_cache_misses_total")
        return None

    def _servable(self, key: CacheKey) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
        return None if entry is None or entry.stale else entry

    @staticmethod
    def _observe_validation(rec: Any, t0: float, rule: str) -> None:
        if rec.enabled:
            rec.observe(
                "gufi_result_cache_validate_seconds",
                time.perf_counter() - t0,
            )
            rec.counter("gufi_result_cache_validations_total", rule=rule)

    def _settle(
        self,
        rec: Any,
        key: CacheKey,
        entry: CacheEntry,
        clock: Clock | None,
        valid: bool,
    ) -> bool:
        """Fold one validation in; True (a hit, counted) when the entry
        is valid and still live. An invalid live entry is retired."""
        with self._lock:
            # the push hooks may have retired or replaced it meanwhile
            live = self._entries.get(key) is entry and not entry.stale
            if not live:
                return False
            if not valid:
                self._retire_locked(entry)
                self.invalidations += 1
                if rec.enabled:
                    rec.counter("gufi_result_cache_invalidations_total")
                return False
            # Entry mutations happen only here, under the lock and
            # after the liveness re-check, so concurrent validations
            # of the same entry cannot race each other: the entry is
            # re-armed at the clock read before its validation.
            entry.clock = clock
            self._entries.move_to_end(key)
            self.hits += 1
        if rec.enabled:
            rec.counter("gufi_result_cache_hits_total")
        return True

    def clock(
        self, index: "GUFIIndex", watched: bool | None = None
    ) -> Clock | None:
        """The write clock, read by a lookup before it validates and by
        a run before it starts: the handle's epoch where its watch
        vouches (``watched``: the caller drained it; None: drain it
        here), else the epoch and the applied changefeed cursor of a
        declared sole writer, else None (no clock: every hit pays the
        stamp pass)."""
        if watched is None:
            watched = index.sync()
        if watched:
            return index.cache.epoch
        if self.journal is not None:
            cursor = ChangefeedCheckpoint(index.root).load()
            return (index.cache.epoch, cursor)
        return None

    def donor(self, key: CacheKey) -> CacheEntry | None:
        """The stale entry under ``key``, whose decisions the run that
        replaces it replays where they still hold — or None."""
        with self._lock:
            entry = self._entries.get(key)
            return entry if entry is not None and entry.stale else None

    @staticmethod
    def _validate(entry: CacheEntry, index: "GUFIIndex", watched: bool) -> bool:
        """The stamp pass: does every stamp the entry's walk read under
        still hold (``DirMetaCache.current``, on plain path strings)?"""
        current, index_path = index.cache.current, index.index_path
        return all(
            current(path, index_path(path), db_stamp, dir_stamp, watched)
            for path, (db_stamp, dir_stamp) in entry.stamps.items()
        )

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(
        self,
        key: CacheKey,
        capture: CaptureSink,
        result: QueryResult,
        clock: Clock | None,
        epoch: int,
    ) -> CacheEntry | None:
        """Materialize one finished run, whose write clock and the
        handle's epoch were read before it started. Returns the entry,
        or None (and caches nothing) when the epoch moved meanwhile or
        the capture is over budget."""
        rec = obs.metrics()
        if capture.reused:
            with self._lock:
                self.dirs_reused += capture.reused
            rec.counter("gufi_result_cache_dirs_reused_total", capture.reused)
        if capture.overflowed or result.visited_paths is None:
            self._abort_capture()
            return None
        if self._moved(epoch):
            # the handle heard of a write while the run was in flight:
            # abort, the next run re-captures
            self._abort_capture()
            return None
        # No re-stat: every stamp in the token — and the clock — was
        # taken before the rows it vouches for were read, so a write
        # that landed after it makes the next stamp pass miss (and
        # moves the clock past the entry's); it never makes a stale hit.
        stamps = result.visited_paths
        nbytes = capture.nbytes + 128 * len(stamps)
        if nbytes > self.max_entry_bytes:
            self._abort_capture()
            return None
        entry = CacheEntry(
            key=key,
            rows=capture.rows,
            final_rows=capture.final_rows,
            counters={f: getattr(result, f) for f in _COUNTER_FIELDS},
            stamps=stamps,
            clock=clock,
            nbytes=nbytes,
            outcomes=result.outcomes,
            batches=capture.batches if result.outcomes is not None else {},
        )
        with self._lock:
            if self._moved(epoch):
                self.capture_aborts += 1
                return None
            if key in self._entries:
                self._drop_locked(key)
            self._entries[key] = entry
            self.total_bytes += nbytes
            scope = key[0]
            self._scope_bytes[scope] = (
                self._scope_bytes.get(scope, 0) + nbytes
            )
            evicted = self._evict_locked(scope)
            if evicted and rec.enabled:
                rec.counter("gufi_result_cache_evictions_total", evicted)
        return entry

    def _moved(self, epoch: int) -> bool:
        """Has the bound handle's epoch moved since ``epoch``? (An
        unbound cache cannot tell, so yes.)"""
        meta = self._meta
        return meta is None or meta.epoch != epoch

    def _abort_capture(self) -> None:
        with self._lock:
            self.capture_aborts += 1

    def _evict_locked(self, scope: CredKey) -> int:
        """LRU eviction: first bring the storing scope under its
        per-tenant budget, then the cache under its global bounds."""
        evicted = 0
        if self.max_scope_bytes is not None:
            while self._scope_bytes.get(scope, 0) > self.max_scope_bytes:
                victim = next(
                    (k for k in self._entries if k[0] == scope), None
                )
                if victim is None:
                    break
                evicted += self._drop_locked(victim)
        while self._entries and (
            self.total_bytes > self.max_bytes
            or len(self._entries) > self.max_entries
        ):
            evicted += self._drop_locked(next(iter(self._entries)))
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0
            self._scope_bytes.clear()

    def __len__(self) -> int:
        """Servable entries (a stale one is only a donor)."""
        with self._lock:
            return sum(not e.stale for e in self._entries.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self),
                "stale": len(self._entries) - len(self),
                "dirs_reused": self.dirs_reused,
                "bytes": self.total_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "capture_aborts": self.capture_aborts,
            }
