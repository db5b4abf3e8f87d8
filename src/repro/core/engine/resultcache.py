"""Materialized query results with changefeed-driven invalidation.

The tsummary/rollup optimizations cut work *per query*; nothing in the
paper's design memoizes *across* queries, so a dashboard re-running
the same selective query pays the full permission-gated traversal
every time even when the index has not changed. This module adds that
missing layer: a bounded, credential-scoped :class:`ResultCache` that
materializes complete result row sets (walk-stage rows plus the J/G
aggregate output) keyed by ``(resolved credentials, normalized query
spec, plan window, start path)``.

Correctness model — an entry may be served only when it is *provably*
equal to what a cold run would return right now:

* **Validity token.** At capture time each entry records (a) the
  stamp of every directory the walk visited — the ``db.db``
  :func:`~repro.core.db.file_stamp` (inode, mtime_ns, size) plus the
  physical directory's :func:`~repro.core.db.dir_stamp` for listing
  changes — including the start path's ancestors (whose permission
  bits gate reachability), and (b) the index's applied changefeed
  cursor (:class:`~repro.core.checkpoint.ChangefeedCheckpoint`).
  Revalidation is two stats per visited directory and one per
  ancestor, on path strings, and nothing else — not O(traversal),
  which would open every database and re-run SQL — or O(journal
  drain) when the changefeed fast path applies (below).

* **Push invalidation.** Every writer in this codebase (update,
  refresh, rollup/unrollup, changefeed apply) already announces
  itself through :class:`~repro.core.index.DirMetaCache`'s
  ``invalidate*`` hooks; the result cache subscribes to them and
  takes out of service exactly the entries whose visited set
  intersects the invalidated path (or subtree). An entry for
  ``/home/alice`` is untouched by churn under ``/proj``.

* **The re-run is the repair.** An invalidated *stream-shaped* entry
  (``S``/``E`` rows only — nothing carried between directories) is
  marked **stale** instead of dropped: never served, a miss like any
  other, first to be evicted — and the *donor* of the run that
  replaces it. That run is the ordinary walk, deciding permission,
  gates and descent for every directory as always; only where the
  donor's stages completed under the ``db.db`` stamp the walk has just
  validated does it emit the donor's rows instead of attaching the
  database (:meth:`CaptureSink.reuse`).

* **Changefeed fast path.** When a :class:`~repro.fs.changelog
  .ChangeJournal` is attached, a lookup first consults the applied
  cursor: if no invalidation reached this cache since capture and
  the events in ``(entry cursor, applied cursor]`` are retained and
  touch none of the entry's visited directories, the entry is valid
  without a single stat. An evicted window (overflow) falls back to
  the stamp pass — never to trust. The journal only sees writers
  that *announce* themselves (in-process hooks, changefeed applies),
  so the stat-free path is bounded: unless the cache is constructed
  with ``journal_exclusive=True`` (the changefeed is provably the
  sole writer), every entry re-runs the stamp pass at least once per
  ``stamp_ttl`` seconds, so an out-of-band rewrite from another
  process is detected within the TTL instead of never.

* **Capture races.** Rows are captured through a tee
  (:class:`CaptureSink`) while stamps are taken *after* the run; a
  write racing the run could therefore stamp fresh over stale rows.
  Three guards close this: any invalidation observed between run
  start and store aborts the capture; each visited directory's
  store-time stamp is cross-checked against the stamp the walk's
  DirMeta cache validated (a mismatch means an out-of-band rewrite
  landed mid-run — capture aborted); and the DirMeta cache itself
  only publishes entries whose stamp is unchanged across the read
  (see :meth:`GUFIIndex.cached_dir_meta`). For scatter-gather runs
  the walk's DirMeta entries live in the *worker* processes, so each
  worker ships the per-path stamps its walk validated alongside its
  visited set (``QueryResult.visited_stamps``) and the parent
  cross-checks those — the guard holds across process boundaries.

* **Credential scoping.** The key includes the resolved
  ``(uid, gid, groups)`` — the same key the server's warm-session
  LRU uses — so entries can never be replayed across principals,
  and an optional per-scope byte budget keeps one tenant's hot
  queries from evicting everyone else's.

The cache assumes deterministic SQL (no ``random()``/``now``-style
terms), the same assumption the scatter-gather merge contract already
makes for ``gufi_query``-shaped specs.
"""

from __future__ import annotations

import dataclasses
import re
import threading
import time
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable

from repro import obs
from repro.store import layout

from ..checkpoint import ChangefeedCheckpoint
from .sinks import ResultSink, Row, SinkSummary
from .traversal import proper_ancestors
from .types import QueryResult, QuerySpec

if TYPE_CHECKING:
    from repro.fs.changelog import ChangeEvent, ChangeJournal
    from repro.fs.permissions import Credentials

    from ..index import GUFIIndex
    from ..plan import QueryPlan
    from ..session import _ThreadState

#: (uid, gid, supplementary groups) — the server's session-LRU key
CredKey = tuple[int, int, frozenset[int]]
#: full cache key: (credentials, normalized spec, plan window, start)
CacheKey = tuple[CredKey, tuple, tuple | None, str]
#: db.db file stamp (None: no database at capture time)
DbStamp = tuple[int, int, int] | None
#: physical index-directory stamp (None: listing not load-bearing)
DirStamp = tuple[int, int] | None
#: one directory's extent in an entry's flat ``rows`` and its measured
#: bytes: (start, end, nbytes)
Batch = tuple[int, int, int]

#: QueryResult counters replayed verbatim from the captured run
_COUNTER_FIELDS = (
    "dirs_visited",
    "dirs_denied",
    "dbs_opened",
    "dirs_errored",
    "dirs_pruned_by_plan",
    "attaches_elided",
)


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
    """Normalized row-determining fields of a spec.

    ``output_prefix`` is deliberately excluded: it only chooses the
    default *sink* shape, never the rows, and replay goes through the
    caller's sink anyway."""
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


def plan_key(plan: "QueryPlan | None") -> tuple | None:
    """The plan window as a value key (QueryPlan is a frozen dataclass
    of primitives)."""
    if plan is None:
        return None
    return dataclasses.astuple(plan)


def cred_key(creds: "Credentials") -> CredKey:
    return (creds.uid, creds.gid, frozenset(creds.groups))


def make_key(
    creds: "Credentials",
    spec: QuerySpec,
    plan: "QueryPlan | None",
    start: str,
) -> CacheKey:
    return (cred_key(creds), spec_key(spec), plan_key(plan), start)


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

    def thread_output_path(self, ordinal: int) -> str | None:
        return self.inner.thread_output_path(ordinal)

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

    def emit(self, st: "_ThreadState", rows: list[Row]) -> None:
        # the walk names the directory it is in on the thread's context
        self._record(self.rows, rows, st.ctx.current_path)
        self.inner.emit(st, rows)

    def reuse(self, st: "_ThreadState", path: str, stamp: tuple | None) -> bool:
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
            self.inner.emit(st, rows)
        with self._lock:
            self.reused += 1
        return True

    def emit_final(self, rows: list[Row]) -> None:
        self._record(self.final_rows, rows)
        self.inner.emit_final(rows)

    def finish(self, states: list["_ThreadState"]) -> SinkSummary:
        return self.inner.finish(states)


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
    #: visited path -> (db.db stamp, physical-dir stamp)
    stamps: dict[str, tuple[DbStamp, DirStamp]]
    #: applied changefeed cursor at capture time
    cursor: int
    #: the cache's invalidation sequence at capture/last validation
    inv_seq: int
    nbytes: int
    #: ``time.monotonic()`` of the last stamp pass (store counts as
    #: one) — bounds how long the stat-free changefeed fast path may
    #: serve this entry without re-statting (see ``stamp_ttl``)
    stamped_at: float = 0.0
    hits: int = 0
    #: directory -> batch, for every directory whose stages ran to
    #: completion (not denied, elided, errored or absent ones); None
    #: when the run cannot donate (aggregate/xattr spec, scatter,
    #: traced I/O) and the entry is dropped on invalidation
    ran: dict[str, Batch] | None = None
    #: invalidated, kept only as the donor of the run that replaces it
    stale: bool = False


class ResultCache:
    """Bounded credential-scoped cache of materialized query results.

    Thread-safe: the server shares one instance across every warm
    session. ``max_scope_bytes`` bounds how much of the budget a
    single credential key may hold (the per-tenant budget); the global
    bound evicts LRU-first across scopes.
    """

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 256,
        max_entry_bytes: int | None = None,
        max_scope_bytes: int | None = None,
        journal: "ChangeJournal | None" = None,
        journal_exclusive: bool = False,
        stamp_ttl: float = 2.0,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.max_entry_bytes = (
            max_entry_bytes if max_entry_bytes is not None else max_bytes // 4
        )
        self.max_scope_bytes = max_scope_bytes
        self.journal = journal
        #: the changefeed is provably the only writer of this index —
        #: only then may the stat-free fast path serve an entry
        #: indefinitely. Writers in *other processes* never fire this
        #: cache's hooks nor journal their writes, so the default is
        #: False and the fast path is bounded by ``stamp_ttl``.
        self.journal_exclusive = journal_exclusive
        #: max seconds the fast path may skip the stamp pass when the
        #: journal is not exclusive (out-of-band writes are detected
        #: within this bound instead of never)
        self.stamp_ttl = stamp_ttl
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.total_bytes = 0
        self._scope_bytes: dict[CredKey, int] = {}
        #: bumped by every DirMetaCache invalidation on a bound index;
        #: captures observe it to detect writes racing a run
        self.invalidation_seq = 0
        #: bound DirMeta caches as (weakref, listener) pairs — weak so
        #: a long-lived shared cache never pins short-lived per-index
        #: caches (or their listener cycles) in memory
        self._bound: list[tuple[weakref.ref, Any]] = []
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
        """Subscribe to the index's DirMeta-cache invalidation hooks —
        the push half of invalidation. Idempotent per index handle.

        The subscription is weak on both sides: the listener holds no
        strong reference to this cache, and ``_bound`` holds none to
        the index's DirMeta cache — binding many short-lived indexes
        to one long-lived shared cache leaks nothing."""
        cache = index.cache
        with self._lock:
            live = [(ref, hook) for ref, hook in self._bound
                    if ref() is not None]
            if any(ref() is cache for ref, _ in live):
                self._bound = live
                return
            self_ref = weakref.ref(self)
            cache_ref = weakref.ref(cache)

            def hook(path: str | None, subtree: bool) -> None:
                rc = self_ref()
                if rc is None:
                    c = cache_ref()
                    if c is not None:
                        c.remove_listener(hook)
                    return
                rc._on_invalidate(path, subtree)

            live.append((cache_ref, hook))
            self._bound = live
            cache.add_listener(hook)

    def close(self) -> None:
        """Detach from every bound index's invalidation hooks. Safe to
        call repeatedly; the cache remains usable (lookups just lose
        push invalidation until indexes are bound again)."""
        with self._lock:
            bound, self._bound = self._bound, []
        for cache_ref, hook in bound:
            cache = cache_ref()
            if cache is not None:
                cache.remove_listener(hook)

    def attach_journal(
        self, journal: "ChangeJournal", exclusive: bool = False
    ) -> None:
        """Enable the changefeed fast path: lookups may validate from
        the journal window instead of per-directory stats. Pass
        ``exclusive=True`` only when the changefeed is the sole writer
        of the index — it lifts the ``stamp_ttl`` bound on stat-free
        validation."""
        self.journal = journal
        self.journal_exclusive = exclusive

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
        mono0 = time.monotonic()
        valid, applied, stamped = self._validate(entry, index)
        if rec.enabled:
            rec.observe(
                "gufi_result_cache_validate_seconds",
                time.perf_counter() - t0,
            )
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
            # of the same entry cannot race each other. ``inv_seq``
            # may legitimately advance past the validated value: any
            # invalidation that *touched* this entry retired it (the
            # liveness check above fails), so a surviving entry was
            # untouched by whatever bumped the sequence.
            entry.cursor = max(entry.cursor, applied)
            entry.inv_seq = self.invalidation_seq
            if stamped:
                entry.stamped_at = max(entry.stamped_at, mono0)
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
        if rec.enabled:
            rec.counter("gufi_result_cache_hits_total")
        return entry

    def donor(self, key: CacheKey) -> CacheEntry | None:
        """The stale entry under ``key``, for the run that replaces it
        to reuse (see :meth:`CaptureSink.reuse`) — or None."""
        with self._lock:
            entry = self._entries.get(key)
            return entry if entry is not None and entry.stale else None

    def _validate(
        self, entry: CacheEntry, index: "GUFIIndex"
    ) -> tuple[bool, int, bool]:
        """Revalidate one entry without mutating it (the caller folds
        the outcome in under the lock). Returns ``(valid, applied
        cursor, stamp pass ran)``."""
        journal = self.journal
        # Only the journal branches read the applied cursor. A cursor
        # left lagging merely widens a later journal window (safe).
        applied = entry.cursor
        if journal is not None:
            applied = ChangefeedCheckpoint(index.root).load()
            # Changefeed fast path: provably untouched without a stat.
            # Requires that no invalidation reached this cache since
            # the entry was (re)validated — the push hooks are how
            # non-changefeed writers (rollup, update, refresh)
            # announce themselves. Writers in *other* processes
            # announce nothing, so unless the journal is exclusive the
            # stat-free answer is only trusted within ``stamp_ttl`` of
            # the entry's last stamp pass.
            fresh = self.journal_exclusive or (
                time.monotonic() - entry.stamped_at < self.stamp_ttl
            )
            if fresh and entry.inv_seq == self.invalidation_seq:
                events = journal.events_between(entry.cursor, applied)
                if events is not None and not any(
                    self._event_touches(e, entry.stamps) for e in events
                ):
                    return True, applied, False
            # Precise event-driven invalidation: a retained window
            # that touches a visited directory kills the entry without
            # the stamp pass; an evicted window (overflow) falls
            # through to stamps — never to trust.
            if applied > entry.cursor:
                events = journal.events_between(entry.cursor, applied)
                if events is not None and any(
                    self._event_touches(e, entry.stamps) for e in events
                ):
                    return False, applied, False
        # Stamp pass: two stats per recorded directory (one for an
        # ancestor) on plain path strings, and nothing else.
        for path, (db_stamp, dir_stamp) in entry.stamps.items():
            base = index.index_path(path)
            if layout.file_stamp(f"{base}/{layout.DB_NAME}") != db_stamp:
                return False, applied, True
            if dir_stamp is not None:
                if layout.dir_stamp(base) != dir_stamp:
                    return False, applied, True
        return True, applied, True

    @staticmethod
    def _event_touches(
        event: "ChangeEvent", stamps: dict[str, tuple[DbStamp, DirStamp]]
    ) -> bool:
        """Conservative: does this journal event affect any visited
        directory? File events touch their parent's database; directory
        events touch the directory and its parent; structural directory
        ops (rename/rmdir) touch the whole subtree."""
        paths = [event.path]
        if event.dst_path is not None:
            paths.append(event.dst_path)
        for p in paths:
            if p in stamps:
                return True
            parent = p.rsplit("/", 1)[0] or "/"
            if parent in stamps:
                return True
        if event.is_dir and event.op in ("rename", "rmdir"):
            for p in paths:
                prefix = p.rstrip("/") + "/"
                if any(s.startswith(prefix) for s in stamps):
                    return True
        return False

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def store(
        self,
        key: CacheKey,
        capture: CaptureSink,
        result: QueryResult,
        index: "GUFIIndex",
        inv_seq_at_start: int,
    ) -> bool:
        """Materialize one finished run. Returns False (and caches
        nothing) when the capture cannot be proven race-free or is
        over budget."""
        rec = obs.metrics()
        if capture.reused:
            with self._lock:
                self.dirs_reused += capture.reused
            rec.counter("gufi_result_cache_dirs_reused_total", capture.reused)
        if capture.overflowed or result.visited_paths is None:
            self._abort_capture()
            return False
        if self.invalidation_seq != inv_seq_at_start:
            # a writer invalidated something while the run was in
            # flight: the rows may predate the write its stamps
            # postdate — abort, the next run re-captures
            self._abort_capture()
            return False
        cache = index.cache
        # The stamps the walk actually validated its reads against.
        # Single-process runs leave them in this engine's DirMeta
        # cache; scatter-gather workers ship theirs back explicitly
        # (the parent's cache never saw the reads, so peeking it alone
        # would make this cross-check vacuous for every path).
        shipped = result.visited_stamps or {}
        stamped_at = time.monotonic()
        stamps: dict[str, tuple[DbStamp, DirStamp]] = {}
        for path in set(result.visited_paths):
            walk_db, walk_dir = shipped.get(path, (None, None))
            if walk_db is None:
                walk_db = cache.peek_stamp(path)
            if walk_dir is None:
                walk_dir = cache.peek_subdir_stamp(path)
            base = index.index_path(path)
            db_stamp = layout.file_stamp(f"{base}/{layout.DB_NAME}")
            if walk_db is not None and db_stamp != tuple(walk_db):
                self._abort_capture()
                return False
            dir_stamp = layout.dir_stamp(base)
            if walk_dir is not None and dir_stamp != tuple(walk_dir):
                self._abort_capture()
                return False
            stamps[path] = (db_stamp, dir_stamp)
        start = key[3]
        for anc in proper_ancestors(start):
            anc_db = f"{index.index_path(anc)}/{layout.DB_NAME}"
            stamps.setdefault(anc, (layout.file_stamp(anc_db), None))
        cursor = ChangefeedCheckpoint(index.root).load()
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
            cursor=cursor,
            inv_seq=inv_seq_at_start,
            nbytes=nbytes,
            stamped_at=stamped_at,
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
