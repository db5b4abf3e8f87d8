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
  ancestors' — no listing: it reads none. Revalidation
  is one stat per recorded stamp, on path strings, and nothing else —
  not O(traversal), which would open every database and re-run SQL —
  or, while the write clock has not moved, no stamp at all (below).

* **Push invalidation.** Every writer in this codebase (the one
  in-place apply — changefeed, update, graft and prune — refresh and
  rollup/unrollup) already announces itself through
  :class:`~repro.core.index.DirMetaCache`'s ``invalidate*`` hooks;
  the result cache subscribes to those of its one index handle (cache
  keys do not name the index, so a cache serves one) and takes out of
  service exactly the entries whose visited set intersects the
  invalidated path (or subtree). An entry for ``/home/alice`` is
  untouched by churn under ``/proj``.

* **The re-run is the repair.** An invalidated *stream-shaped* entry
  (``S``/``E`` rows only — nothing carried between directories) is
  marked **stale** instead of dropped: never served, a miss like any
  other, first to be evicted — and the *donor* of the run that
  replaces it. That run is the ordinary walk, deciding permission,
  gates and descent for every directory as always; only where the
  donor's stages completed under the ``db.db`` stamp the walk has just
  validated does it emit the donor's rows instead of attaching the
  database (:meth:`CaptureSink.reuse`).

* **Write clock.** A lookup first reads the cache's clock
  (:meth:`ResultCache.clock`): the invalidation sequence paired with
  something that any write to the index advances. Where the index
  tree sits on a local file system the cache arms a
  :mod:`repro.store.watch` on it — inotify over every directory — and
  the clock is its generation, which moves on every write from any
  process, this one or another: one ``stat`` of the root and one
  drain of an empty event queue. Without an armed watch, an attached
  :class:`~repro.fs.changelog.ChangeJournal` declared the sole writer
  (``exclusive=True`` is required) makes the clock the applied
  changefeed cursor. An entry whose clock equals the cache's is valid
  without a stamp; any other goes to the stamp pass, and one that
  passes is re-armed at the clock read before it. With neither —
  a network file system, a forked child, a re-pointed root — there
  is no clock and every hit pays the stamp pass, since a write from
  another process announces nothing. Armed, the boundary is the
  watch's: a write through a hard link from outside the tree, a
  shared mapping, or a mount over an index directory raises no event.

* **Capture races.** One invariant: every stamp in an entry — and
  its clock — was taken *before* the rows it vouches for were read,
  so a write racing the walk makes the next stamp pass miss (it also
  moves the clock past the entry's) and never vouches for what it
  replaced: :meth:`ResultCache.store` re-stats nothing. The walk
  records each stamp as it reads (the DirMeta record's own, a
  listing's, a cold read's bracket), which is why a cache attaches
  only to a single-process engine; a writer that announced itself
  mid-run (the invalidation sequence moved) aborts the store.

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
import operator
import re
import threading
import time
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable

from repro import obs
from repro.store import layout

from ..checkpoint import ChangefeedCheckpoint
from ..plan import QueryPlan
from .sinks import ResultSink, Row, SinkSummary
from .types import _COUNTER_FIELDS, QueryResult, QuerySpec, Token

if TYPE_CHECKING:
    from repro.fs.changelog import ChangeJournal
    from repro.fs.permissions import Credentials
    from repro.store.watch import Watch

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
#: the write clock: (invalidation sequence, source, reading), the
#: source ``"inotify"`` (a watch generation) or ``"cursor"`` (the
#: applied changefeed cursor)
Clock = tuple[int, str, int]


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


def _norm_sql(sql: str | None) -> str | None:
    """Whitespace-collapsed SQL, so formatting differences share an
    entry — collapsed only *outside* quoted regions. Whitespace inside
    a string literal (or quoted identifier) is part of the query's
    meaning: ``name = 'a  b'`` and ``name = 'a b'`` are different
    queries and must never share a cache key. Unquoted runs collapse
    to a single space, never to nothing — ``'a' 'b'`` (a literal with
    an alias) must not become the escaped literal ``'a''b'``."""
    if not sql:
        return None
    out: list[str] = []
    pos = 0
    for m in _QUOTED_RE.finditer(sql):
        out.append(_WS_RE.sub(" ", sql[pos : m.start()]))
        out.append(m.group(0))
        pos = m.end()
    out.append(_WS_RE.sub(" ", sql[pos:]))
    return "".join(out).strip()


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


def _rows_nbytes(rows: Iterable[Row]) -> int:
    """Cheap size estimate of a row batch for the byte budget."""
    n = 0
    for row in rows:
        n += 64
        for v in row:
            if isinstance(v, (str, bytes)):
                n += len(v)
            else:
                n += 16
    return n


class CaptureSink(ResultSink):
    """Tee wrapper: forwards every callback to the caller's sink while
    recording the full pre-cap row stream for the cache.

    Recording happens *before* the inner sink absorbs the batch, so a
    bounded/paginated caller sink's row cap never truncates the cached
    entry — replay re-applies whatever cap the future caller brings.
    A capture that outgrows ``max_bytes`` poisons itself (recording
    stops, rows are freed, forwarding continues untouched).

    ``donor`` is the stale entry this run replaces, if any: the walk
    asks :meth:`reuse` before it attaches a directory's database.
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
        if self.overflowed:
            return
        with self._lock:
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

    def emit(self, path: str | None, rows: list[Row]) -> None:
        self._record(self.rows, rows, path)
        self.inner.emit(path, rows)

    def reuse(self, path: str, stamp: tuple | None) -> bool:
        """Emit the donor's rows for ``path`` in place of running its
        stages — only if they ran to completion at capture, under the
        ``db.db`` stamp the walk has just validated (``stamp``). The
        caller has already decided permission and gates for ``path``
        on this run."""
        donor = self.donor
        assert donor is not None and donor.ran is not None
        batch = donor.ran.get(path)
        if batch is None or stamp is None or donor.stamps[path][0] != stamp:
            return False
        lo, hi, nbytes = batch
        if hi > lo:
            rows = donor.rows[lo:hi]
            self._record(self.rows, rows, path, nbytes)
            self.inner.emit(path, rows)
        with self._lock:
            self.reused += 1
        return True

    def emit_final(self, rows: list[Row]) -> None:
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
    #: directory -> batch, for every directory whose stages ran to
    #: completion (not denied, elided, errored or absent ones); None
    #: when the run cannot donate (aggregate/xattr spec) and the entry
    #: is dropped on invalidation
    ran: dict[str, Batch] | None = None
    #: invalidated, kept only as the donor of the run that replaces it
    stale: bool = False


class ResultCache:
    """Bounded credential-scoped cache of materialized query results.

    An entry is served only when it is still valid, by one of two
    rules:

    1. **Clock.** The entry's write clock equals the cache's
       (:meth:`clock`): nothing was invalidated and nothing was
       written to the index since the entry was last checked.
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
        #: the inotify write clock over the bound index's tree, armed
        #: by the first :meth:`bind_index` where the file system allows
        self._watch: "Watch | None" = None
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.total_bytes = 0
        self._scope_bytes: dict[CredKey, int] = {}
        #: bumped by every DirMetaCache invalidation on the bound index;
        #: captures observe it to detect writes racing a run
        self.invalidation_seq = 0
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
        hooks — the push half of invalidation — and, the first time,
        arm the write clock's watch over its tree. Cache keys do not
        name the index, so a cache serves one handle: binding it again
        does nothing, binding another raises ``ValueError``. The hook
        holds this cache weakly, so a dropped cache unhooks itself at
        the next notification; the watch goes with the cache."""
        meta = index.cache
        with self._lock:
            if self._meta is not None and self._meta is not meta:
                raise ValueError("a result cache serves one index handle")
            if self._meta is None:
                # imported here: a one-shot CLI run binds no cache and
                # need not load ctypes
                from repro.store import watch

                self._watch = watch.arm(str(index.root))
                if self._watch is not None:
                    weakref.finalize(self, self._watch.release)
            self._meta = meta
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
            self.invalidation_seq += 1
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
        if entry.ran is None:
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
    def lookup(self, key: CacheKey, index: "GUFIIndex") -> CacheEntry | None:
        """The entry for ``key``, revalidated — or None (miss)."""
        rec = obs.metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.stale:
                self.misses += 1
                entry = None
        if entry is None:
            if rec.enabled:
                rec.counter("gufi_result_cache_misses_total")
            return None
        t0 = time.perf_counter()
        valid, clock, rule = self._validate(entry, index)
        if rec.enabled:
            rec.observe(
                "gufi_result_cache_validate_seconds",
                time.perf_counter() - t0,
            )
            rec.counter("gufi_result_cache_validations_total", rule=rule)
        with self._lock:
            # the push hooks may have retired or replaced it meanwhile
            live = self._entries.get(key) is entry and not entry.stale
            if not (valid and live):
                if live:
                    self._retire_locked(entry)
                    self.invalidations += 1
                    if rec.enabled:
                        rec.counter("gufi_result_cache_invalidations_total")
                self.misses += 1
                if rec.enabled:
                    rec.counter("gufi_result_cache_misses_total")
                return None
            # Entry mutations happen only here, under the lock and
            # after the liveness re-check, so concurrent validations
            # of the same entry cannot race each other: the entry is
            # re-armed at the clock read before its validation.
            entry.clock = clock
            self._entries.move_to_end(key)
            self.hits += 1
        if rec.enabled:
            rec.counter("gufi_result_cache_hits_total")
        return entry

    def clock(self, index: "GUFIIndex") -> Clock | None:
        """The write clock, read by a lookup before it validates and by
        a run before it starts: the invalidation sequence and the
        armed watch's generation, else the applied changefeed cursor
        of a declared sole writer, else None (no clock: every hit pays
        the stamp pass)."""
        if self._watch is not None:
            generation = self._watch.clock()
            if generation is not None:
                return (self.invalidation_seq, "inotify", generation)
        if self.journal is not None:
            cursor = ChangefeedCheckpoint(index.root).load()
            return (self.invalidation_seq, "cursor", cursor)
        return None

    def donor(self, key: CacheKey) -> CacheEntry | None:
        """The stale entry under ``key``, for the run that replaces it
        to reuse (see :meth:`CaptureSink.reuse`) — or None."""
        with self._lock:
            entry = self._entries.get(key)
            return entry if entry is not None and entry.stale else None

    def _validate(
        self, entry: CacheEntry, index: "GUFIIndex"
    ) -> tuple[bool, Clock | None, str]:
        """Revalidate one entry without mutating it (the caller folds
        the outcome in under the lock). Returns ``(valid, the clock
        read first, the rule that decided: "clock" or "stamps")``."""
        clock = self.clock(index)
        # No stamp: no hook fired and nothing was written to the
        # index since the entry was last checked.
        if clock is not None and clock == entry.clock:
            return True, clock, "clock"
        # Stamp pass: one stat per recorded stamp — a directory's
        # database, then its listing where the walk read one — on
        # plain path strings, and nothing else.
        for path, (db_stamp, dir_stamp) in entry.stamps.items():
            base = index.index_path(path)
            if layout.file_stamp(f"{base}/{layout.DB_NAME}") != db_stamp:
                return False, clock, "stamps"
            if dir_stamp is not None:
                if layout.dir_stamp(base) != dir_stamp:
                    return False, clock, "stamps"
        return True, clock, "stamps"

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(
        self,
        key: CacheKey,
        capture: CaptureSink,
        result: QueryResult,
        clock: Clock | None,
        inv_seq_at_start: int,
    ) -> bool:
        """Materialize one finished run, whose write clock and
        invalidation sequence were read before it started. Returns
        False (and caches nothing) when a writer announced itself
        meanwhile or the capture is over budget."""
        rec = obs.metrics()
        if capture.reused:
            with self._lock:
                self.dirs_reused += capture.reused
            rec.counter("gufi_result_cache_dirs_reused_total", capture.reused)
        if capture.overflowed or result.visited_paths is None:
            self._abort_capture()
            return False
        if self.invalidation_seq != inv_seq_at_start:
            # a writer announced itself while the run was in flight:
            # abort, the next run re-captures
            self._abort_capture()
            return False
        # No re-stat: every stamp in the token — and the clock — was
        # taken before the rows it vouches for were read, so a write
        # that landed after it makes the next stamp pass miss (and
        # moves the clock past the entry's); it never makes a stale hit.
        stamps = result.visited_paths
        nbytes = capture.nbytes + 128 * len(stamps)
        if nbytes > self.max_entry_bytes:
            self._abort_capture()
            return False
        ran: dict[str, Batch] | None = None
        if result.ran_paths is not None:
            batches = capture.batches
            ran = {p: batches.get(p, (0, 0, 0)) for p in result.ran_paths}
        entry = CacheEntry(
            key=key,
            rows=capture.rows,
            final_rows=capture.final_rows,
            counters={f: getattr(result, f) for f in _COUNTER_FIELDS},
            stamps=stamps,
            clock=clock,
            nbytes=nbytes,
            ran=ran,
        )
        with self._lock:
            if self.invalidation_seq != inv_seq_at_start:
                self.capture_aborts += 1
                return False
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
        return True

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
            self.invalidation_seq += 1

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
