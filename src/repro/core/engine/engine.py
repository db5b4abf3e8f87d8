"""The layered parallel query engine (paper §III-C2, ``gufi_query``).

:class:`QueryEngine` wires the three layers together around the shared
breadth-first walker:

* :mod:`~repro.core.engine.traversal` decides who may go where —
  permission enforcement, plan gating (including attach elision off
  the warm DirMeta cache), and descent control;
* :mod:`~repro.core.engine.stages` executes SQL — attach/detach,
  cold-path metadata reads, T/S/E with xattr views and per-stage
  timings, and the J/G merge with its aggregate-database lifecycle;
* :mod:`~repro.core.engine.sinks` absorb rows — in memory, to
  per-thread files, bounded/paginated for servers, or into a results
  database.

Sessions: an engine is a *persistent* handle. Its worker-thread
connections (each to an in-memory scratch database) and registered SQL
functions live in a
:class:`~repro.core.session.ThreadStatePool` that survives across
``run()`` calls, and permission metadata comes from the index's
mtime-validated :class:`~repro.core.index.DirMetaCache` — so repeated
queries on a warm index skip per-query setup and per-directory summary
reads. Per-directory counters are kept in the per-thread state and
merged once after the walk; rows go to the run's sink, which owns them.
The hot path takes no locks.

Replay-only mode (:func:`replay_only`): a caller that must not block —
the serving layer's event loop — runs a tool with it set, and every
engine front end inside either replays a result-cache entry the write
clock alone vouches for and the mode admits (by default one of at most
:data:`REPLAY_ONLY_MAX_ROWS` rows, :func:`small_entry`), or raises
:class:`NotCached` before it walks, audits, opens a span or counts
anything. The mode is a context variable, so it never reaches
a thread the caller hands the retry to: ``loop.run_in_executor`` does
not copy the context.
"""

from __future__ import annotations

import contextvars
import sqlite3
import threading
import time
from typing import Any, Callable

from repro import obs
from repro.fs.permissions import ROOT, Credentials
from repro.scan.walker import FatalWalkError, ParallelTreeWalker, WalkStats
from repro.sim.blktrace import IOTracer
from repro.store.layout import DB_NAME, StampBracket

from ..index import DirMeta, GUFIIndex, IndexError_
from ..plan import QueryPlan
from ..session import ThreadStatePool, _ThreadState
from .resultcache import CacheEntry, CaptureSink, ResultCache, make_key
from .sinks import MemorySink, ResultSink, SinkSummary
from .stages import MergeRunner, StageRunner
from .traversal import (
    CancelToken,
    QueryCancelled,
    Traversal,
    normalize_path,
    path_depth,
)
from .types import (
    DENIED,
    DESCENDED,
    KIND,
    NO_STAGE,
    PLAN_PRUNED,
    RAN,
    QueryPermissionError,
    QueryResult,
    QuerySpec,
    Token,
    spec_label,
)


def _kind(descend: bool) -> str:
    """The observability name of a run: the walk, or one directory."""
    return "query.run" if descend else "query.run_single"


#: The largest entry (rows plus final rows) a replay-only run serves by
#: default. Measured on one pinned core of a 2-vCPU Xeon (Python 3.11)
#: with ``find``-shaped rows (a 50-byte path, a type, a size): the
#: replay and the reply's one ``json.dumps``
#: (:func:`repro.serve.codec.dumps`) cost ≈0.9 µs a row together (≈2.5
#: µs while a value walk rebuilt every row before the encode), so at
#: 200 rows a hit holds the event loop ≈0.2 ms; the encode is on the
#: loop for an executor answer too. A paged hit encodes one page and
#: reads the rows digest its entry keeps (``CacheEntry.memo``), so the
#: serving layer admits an entry of any size for one once the digest
#: is there. On ``serve_mix`` a bound of 1 000 was no faster (0.353
#: against 0.358 ms a request, one run each, with the walk).
REPLAY_ONLY_MAX_ROWS = 200

#: the replay-only mode's admission rule while it is on, else None
_replay_only: contextvars.ContextVar[
    Callable[[CacheEntry], bool] | None
] = contextvars.ContextVar("gufi_replay_only", default=None)


def small_entry(entry: CacheEntry) -> bool:
    """The default replay-only rule: at most
    :data:`REPLAY_ONLY_MAX_ROWS` rows."""
    return len(entry.rows) + len(entry.final_rows) <= REPLAY_ONLY_MAX_ROWS


class NotCached(Exception):
    """A replay-only run found no entry it may serve without blocking.
    Raised before any walk, audit record, span, metric or cache
    counter; only a caller that set :func:`replay_only` sees it."""


class replay_only:
    """``with replay_only():`` runs the block in replay-only mode (see
    the module docstring); ``admits`` says which valid entries it may
    serve."""

    __slots__ = ("admits", "_token")

    def __init__(
        self, admits: Callable[[CacheEntry], bool] = small_entry
    ) -> None:
        self.admits = admits

    def __enter__(self) -> None:
        self._token = _replay_only.set(self.admits)

    def __exit__(self, *exc: object) -> None:
        _replay_only.reset(self._token)


class QueryEngine:
    """Query executor bound to an index, credentials, and a pool size.

    The handle is a *session*: scratch connections persist across
    :meth:`run` calls (see :mod:`repro.core.session`).
    Call :meth:`close` (or use the handle as a context manager) for
    deterministic cleanup; otherwise GC finalizers close the pooled
    connections (and remove a scatter-gather hand-off directory).
    """

    def __init__(
        self,
        index: GUFIIndex,
        creds: Credentials = ROOT,
        nthreads: int = 8,
        tracer: IOTracer | None = None,
        pool: ThreadStatePool | None = None,
        processes: int = 1,
        result_cache: ResultCache | None = None,
    ) -> None:
        if result_cache is not None and (processes > 1 or tracer is not None):
            # a replay reads nothing, so a traced one would record a
            # false trace; scatter workers validate in their own process
            raise ValueError(
                "a result cache needs a single-process, untraced engine"
            )
        self.index = index
        self.creds = creds
        self.nthreads = nthreads
        self.tracer = tracer
        #: warm thread states and the uid -> name map; a pool passed in
        #: may serve other principals too and outlives this engine
        self._owns_pool = pool is None
        self.pool = ThreadStatePool() if pool is None else pool
        #: worker processes for run(); 1 = single-process (historical)
        self.processes = max(1, int(processes))
        self._scatter_engine: Any = None
        #: optional materialized-result cache (engine/resultcache.py).
        #: Sharing one instance across engines/sessions is the point —
        #: entries are credential-scoped by key, so a shared cache is
        #: safe across principals.
        self.result_cache = result_cache
        if result_cache is not None:
            result_cache.bind_index(index)

    def close(self) -> None:
        """Release the session's pooled connections (and with them
        their in-memory scratch databases) if it made the pool, and,
        after a scatter-gather run, the workers' hand-off directory."""
        if self._owns_pool:
            self.pool.close()
        if self._scatter_engine is not None:
            self._scatter_engine.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        spec: QuerySpec,
        start: str = "/",
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """Parallel permission-gated descent from ``start``.

        ``sink`` chooses the result path; the default is in-memory
        rows (:class:`MemorySink`).

        ``cancel`` is a cooperative :class:`CancelToken` (deadline
        and/or caller-side kill): the traversal layer observes it once
        per directory and aborts the walk with :class:`QueryCancelled`
        — the serving layer's deadline enforcement. A ``processes > 1``
        run carries the token's deadline into every worker process
        (the clock is system-wide), so a shard past it stops within
        one directory too; a manual :meth:`CancelToken.cancel` is seen
        while the shards are planned, not once they are dispatched.

        With ``processes > 1`` the run is executed scatter-gather: the
        index is partitioned into subtree shards, each processed by a
        worker *process* running its own engine, and the results are
        merged back through ``sink`` (see
        :mod:`repro.core.engine.scatter`). ``processes=1`` is exactly
        the historical single-process path.

        With a :class:`ResultCache` attached (single-process, untraced
        engines only), the run is served from a revalidated
        materialized entry when one exists (rows replayed through
        ``sink``), and otherwise captured through a tee for the next
        call on this engine or on any other sharing the cache — see
        :mod:`repro.core.engine.resultcache`."""
        return self._front(spec, start, True, plan, sink, cancel)

    def run_single(
        self,
        spec: QuerySpec,
        path: str = "/",
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """Process exactly one directory's database (no descent).

        This is :meth:`run` without descent — the same front end
        (pre-dispatch cancel check, result cache), per-directory step
        (``cancel`` checkpoint included), merge phase and sinks — on
        the calling thread, also under ``processes > 1``. Its error
        mapping is a direct call's: a directory the caller may not read
        raises :class:`QueryPermissionError` instead of being counted
        in ``dirs_denied``, and a failing stage raises its own
        exception (no walker collects it into a ``RuntimeError``);
        either way nothing is cached. Its cache entry is its own (the
        key carries the descent bit), valid while the directory's
        ``db.db`` stamp and its ancestors' are."""
        return self._front(spec, path, False, plan, sink, cancel)

    def _front(
        self,
        spec: QuerySpec,
        start: str,
        descend: bool,
        plan: QueryPlan | None,
        sink: ResultSink | None,
        cancel: CancelToken | None,
    ) -> QueryResult:
        """The front end :meth:`run` and :meth:`run_single` share."""
        if cancel is not None and cancel.cancelled:
            raise QueryCancelled("query cancelled before dispatch")
        if self.result_cache is not None and not spec.names_users():
            return self._run_cached(spec, start, descend, plan, sink, cancel)
        if _replay_only.get() is not None:
            raise NotCached("no result cache")
        return self._run_uncached(spec, start, descend, plan, sink, cancel)

    def _run_uncached(
        self,
        spec: QuerySpec,
        start: str,
        descend: bool,
        plan: QueryPlan | None,
        sink: ResultSink | None,
        cancel: CancelToken | None,
        capture: CaptureSink | None = None,
        watched: bool | None = None,
    ) -> QueryResult:
        """One real run: scatter-gather, the single-process walk, or
        (no descent) the one directory on the calling thread.
        ``capture``: the run's tee, when a stale entry donates to it.
        ``watched`` says whether the caller drained the index's watch
        (None: the run drains it itself)."""
        if descend and self.processes > 1:
            return self._scatter().run(spec, start, plan, sink, cancel)
        sink = MemorySink() if sink is None else sink
        sink._claim()

        def impl(otr: Any) -> QueryResult:
            result = self._run_impl(
                spec, start, descend, plan, sink, otr, cancel, capture, watched
            )
            if not descend and result.dirs_denied:
                raise QueryPermissionError(f"permission denied: {start!r}")
            return result

        return self._observed(_kind(descend), spec, start, impl)

    def _run_cached(
        self,
        spec: QuerySpec,
        start: str,
        descend: bool,
        plan: QueryPlan | None,
        sink: ResultSink | None,
        cancel: CancelToken | None,
    ) -> QueryResult:
        """The result-cache front end: replay a valid entry, or run for
        real through a capturing tee and store. A run that raises —
        a denied :meth:`run_single` included — stores nothing. In
        replay-only mode only the clock check runs, on entries the mode
        admits; anything else raises :class:`NotCached`.

        Replay ignores ``cancel`` past the entry check in :meth:`_front`:
        serving a validated materialized entry is O(rows), already far
        cheaper than any deadline worth enforcing."""
        cache = self.result_cache
        assert cache is not None
        key = make_key(
            self.creds, spec, plan, normalize_path(start), descend=descend
        )
        # One drain serves the lookup and, on a miss, the run.
        watched = self.index.sync()
        admits = _replay_only.get()
        entry = cache.lookup(key, self.index, admits, watched)
        if entry is None and admits is not None:
            raise NotCached(start)
        if entry is not None:
            return self._observed(
                _kind(descend),
                spec,
                start,
                lambda otr: self._replay(entry, sink),
                walks=False,
            )
        # Read the write clock and the handle's epoch *before* the run,
        # like every stamp of its token: the epoch moving mid-run (a
        # hook, or a batch any thread drained) aborts the store.
        clock = cache.clock(self.index, watched)
        epoch = self.index.cache.epoch
        # A stale entry under this key donates its decisions (and its
        # rows) where they still hold to the walk that replaces it.
        capture = CaptureSink(
            MemorySink() if sink is None else sink,
            cache.max_entry_bytes,
            cache.donor(key),
        )
        result = self._run_uncached(
            spec, start, descend, plan, capture, cancel,
            capture if capture.donor is not None else None,
            watched,
        )
        entry = cache.store(key, capture, result, clock, epoch)
        if entry is not None:
            result.memo = entry.memo
        return result

    def _replay(
        self, entry: CacheEntry, sink: ResultSink | None
    ) -> QueryResult:
        """Serve one materialized entry through the caller's sink —
        the sink sees the same emit/emit_final/finish sequence a real
        run produces, so caps, paging, files, and aggregate databases
        all behave identically."""
        t0 = time.monotonic()
        sink = MemorySink() if sink is None else sink
        sink._claim()
        summary = self._deliver(sink, entry.rows, entry.final_rows)
        return QueryResult(
            rows=summary.rows,
            elapsed=time.monotonic() - t0,
            **entry.counters,
            output_files=summary.files,
            truncated=summary.truncated,
            cached=True,
            memo=entry.memo,
        )

    @staticmethod
    def _deliver(
        sink: ResultSink, rows: list[tuple], final_rows: list[tuple]
    ) -> SinkSummary:
        """Hand rows no walk of this process produced — a cached
        entry's, or the scatter workers' — to ``sink`` in the
        emit/emit_final/finish sequence a real run produces, so caps,
        paging and files behave identically. Nothing is checked out
        of the pool: no stage runs."""
        try:
            if rows:
                sink.emit(None, rows)
            if final_rows:
                sink.emit_final(final_rows)
        finally:
            summary = sink.finish()
        return summary

    def run_shard(
        self,
        spec: QuerySpec,
        units: list[tuple[str, bool]],
        start_depth: int,
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        agg_path: str | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """Process a list of shard work units ``(path, may_descend)``.

        This is the worker-side entry point of scatter-gather
        execution: the shard planner has already enforced root
        reachability and made the descent decisions *above* these
        units, so each unit is processed with full per-directory
        semantics (permissions, plan gates, counters) but units with
        ``may_descend=False`` never expand children. ``start_depth``
        is the absolute depth of the *original* query start, so plan
        depth windows stay relative to it.

        ``agg_path`` makes the run's aggregate database that file (it
        is otherwise in memory) and leaves it on disk after the run so
        the gather phase can fold the per-worker ``J`` results and run
        ``G`` once globally. No
        whole-query observability is recorded here — the parent owns
        the query-level span/counters; workers contribute their
        walker/session metrics through snapshot merging."""
        sink = MemorySink() if sink is None else sink
        sink._claim()
        norm = [(normalize_path(p), bool(rec)) for p, rec in units]
        trav = Traversal(
            self.index, self.creds, spec, plan, start_depth, cancel=cancel
        )
        return self._walk_units(
            spec, norm, start_depth, trav, sink, obs.tracer(),
            agg_path=agg_path,
        )

    def _scatter(self) -> Any:
        """The engine's lazily-built scatter-gather front end."""
        if self._scatter_engine is None:
            from .scatter import ScatterGatherEngine

            self._scatter_engine = ScatterGatherEngine(self, self.processes)
        return self._scatter_engine

    # ------------------------------------------------------------------
    # Observability wrapper
    # ------------------------------------------------------------------
    def _observed(
        self,
        kind: str,
        spec: QuerySpec,
        start: str,
        impl: Callable[[Any], QueryResult],
        walks: bool = True,
    ) -> QueryResult:
        """Run ``impl`` under the process observability layer: a span
        covering the whole call, counters folded once from the
        result's (already lock-free) tallies, per-stage timings, cache
        hit/miss deltas, and a slow-query log check. With everything
        disabled this is two attribute checks and a straight call.
        A replay (``walks=False``) folds the run, its seconds and its
        rows, and nothing of the walk it did not do: the entry's
        captured walk counters stay on its :class:`QueryResult`."""
        rec = obs.metrics()
        otr = obs.tracer()
        slow = obs.slow_log()
        if not (rec.enabled or otr.enabled or slow.enabled):
            return impl(otr)
        t0 = time.monotonic()
        cache_before = (
            self.index.cache.counters() if rec.enabled and walks else None
        )
        span = otr.start(kind, start=start) if otr.enabled else None
        result: QueryResult | None = None
        error: BaseException | None = None
        try:
            result = impl(otr)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.monotonic() - t0
            if span is not None:
                otr.end(
                    span,
                    rows=len(result.rows) if result is not None else 0,
                    error=type(error).__name__ if error is not None else None,
                )
            if rec.enabled:
                self._fold_metrics(
                    rec, kind, result, error, elapsed, cache_before
                )
            if slow.enabled:
                slow.record(
                    elapsed, kind=kind, detail=spec_label(spec), start=start
                )

    def _fold_metrics(
        self,
        rec: Any,
        kind: str,
        result: QueryResult | None,
        error: BaseException | None,
        elapsed: float,
        cache_before: dict[str, int] | None,
    ) -> None:
        """Fold one run; ``cache_before`` None marks a replay, which
        folds no walk counter and no DirMeta-cache delta."""
        rec.counter("gufi_query_runs_total", kind=kind)
        rec.observe("gufi_query_seconds", elapsed, kind=kind)
        if error is not None:
            rec.counter("gufi_query_failures_total", error=type(error).__name__)
        if result is not None:
            rec.counter("gufi_query_rows_total", len(result.rows))
        if cache_before is None:
            return
        if result is not None:
            rec.counter("gufi_query_dirs_visited_total", result.dirs_visited)
            rec.counter("gufi_query_dirs_denied_total", result.dirs_denied)
            rec.counter("gufi_query_dbs_opened_total", result.dbs_opened)
            rec.counter("gufi_query_dirs_errored_total", result.dirs_errored)
            rec.counter(
                "gufi_query_dirs_pruned_total", result.dirs_pruned_by_plan
            )
            rec.counter(
                "gufi_query_attaches_elided_total", result.attaches_elided
            )
            stage_seconds = result.stage_seconds or {}
            for stage in ("T", "S", "E", "J", "G"):
                rec.counter(
                    "gufi_query_stage_seconds_total",
                    stage_seconds.get(stage, 0.0),
                    stage=stage,
                )
        cache_after = self.index.cache.counters()
        for which in ("meta", "subdir"):
            rec.counter(
                "gufi_session_cache_hits_total",
                cache_after[f"{which}_hits"] - cache_before[f"{which}_hits"],
                kind=which,
            )
            rec.counter(
                "gufi_session_cache_misses_total",
                cache_after[f"{which}_misses"]
                - cache_before[f"{which}_misses"],
                kind=which,
            )
        # lookups answered clean off the watch, and by a stamp check
        for rule in ("watch", "stat"):
            rec.counter(
                "gufi_session_cache_validations_total",
                cache_after[f"validations_{rule}"]
                - cache_before[f"validations_{rule}"],
                rule=rule,
            )

    # ------------------------------------------------------------------
    # Walk execution
    # ------------------------------------------------------------------
    def _run_impl(
        self,
        spec: QuerySpec,
        start: str,
        descend: bool,
        plan: QueryPlan | None,
        sink: ResultSink,
        otr: Any,
        cancel: CancelToken | None = None,
        capture: CaptureSink | None = None,
        watched: bool | None = None,
    ) -> QueryResult:
        start = normalize_path(start)
        start_depth = path_depth(start)
        # One drain before anything of the tree is read, the start's
        # ancestors included: every write it reports marks its
        # directory's cached records dirty, and the rest are clean.
        if watched is None:
            watched = self.index.sync()
        trav = Traversal(
            self.index, self.creds, spec, plan, start_depth, cancel=cancel,
            watched=watched,
        )
        ancestors = trav.check_start(start)
        result = self._walk_units(
            spec, [(start, descend)], start_depth, trav, sink, otr,
            capture=capture,
        )
        if result.visited_paths is not None:
            result.visited_paths.update(ancestors)
        return result

    def _walk_units(
        self,
        spec: QuerySpec,
        units: list[tuple[str, bool]],
        start_depth: int,
        trav: Traversal,
        sink: ResultSink,
        otr: Any,
        agg_path: str | None = None,
        capture: CaptureSink | None = None,
    ) -> QueryResult:
        """The shared walk body: process every ``(path, may_descend)``
        unit (descending where allowed), then run the J/G merge.
        ``run()`` passes a single recursive unit at the query start,
        ``run_single()`` a single non-descending one, and
        ``run_shard()`` a shard's worth of units. ``capture`` is the
        run's capturing tee when a stale result-cache entry donates to
        it: a directory whose ``db.db`` is the one the donor decided it
        under is replayed, not decided again."""
        t0 = time.monotonic()
        pool = self.pool
        index = self.index
        creds = self.creds
        # Stage timings feed QueryResult.stage_seconds; both flags are
        # read once so the per-directory path tests plain locals.
        timing = obs.metrics().enabled
        tracing = otr.enabled
        # A cached run collects the paths it touched with the stamps it
        # read them under (the entry's validity token); a stream-shaped
        # one (S/E rows, nothing carried between directories) also
        # records what it decided in each directory: the run that
        # replaces its entry replays those decisions where they hold.
        collect = self.result_cache is not None and not spec.names_users()
        donates = collect and not (
            spec.I or spec.T or spec.J or spec.G or spec.xattrs
        )
        # What a cold directory's metadata read costs is what the run
        # asks of it: the planner's bounds and the tree-summary bit are
        # read by a plan and by ``T`` and by nothing else here, so a run
        # with neither reads (and caches, marked as such) the lean
        # record. Decided here, once; enforced by ``get_meta``.
        lean = trav.plan is None and not spec.T
        # Watched, a clean record comes with no stat; the one stat a
        # directory then costs is the check before its attach.
        watched = trav.watched
        stage = StageRunner(index, spec, self.tracer, otr, timing, tracing)
        db_suffix = "/" + DB_NAME
        # the stale entry this run replaces: its decisions and stamps
        decided: dict[str, int] = {}
        donor_stamps: Token = {}
        if capture is not None:
            donor = capture.donor
            assert donor is not None and donor.outcomes is not None
            decided, donor_stamps = donor.outcomes, donor.stamps
        get_meta, current = index.cache.get_meta, index.cache.current
        # Thread-ident -> checked-out state, for *this* run only (the
        # walker creates fresh threads per walk). The pool's lock is
        # taken once per thread per run — at checkout — never per
        # directory.
        run_states: dict[int, _ThreadState] = {}

        def thread_state() -> _ThreadState:
            tid = threading.get_ident()
            st = run_states.get(tid)
            if st is None:
                st = run_states[tid] = pool.acquire(spec.I, creds)
            return st

        def holds(path: str, meta: DirMeta | None) -> bool:
            """Is ``meta``, this handle's record of ``path`` (none once a
            hook dropped it), at the ``db.db`` stamp the donor decided
            it under? A decision depends only on the key and DirMeta."""
            return meta is not None and path in decided and (
                meta.stamp == donor_stamps[path][0]
            )

        def replay(
            st: _ThreadState, path: str, base: str, may_descend: bool
        ) -> list[tuple[str, bool]]:
            """Replay the donor's decision for ``path``, which holds, and
            inline for each listed descendant whose decision holds too:
            tallied as a warm walk tallies it, a ran directory's rows
            from the donor, its listing read as any walk reads it.
            Returns the rest, for the walker to decide afresh."""
            assert capture is not None
            token, outcomes = st.token, st.outcomes
            fresh: list[tuple[str, bool]] = []
            todo: list[tuple[str, str]] = []
            while True:
                code = decided[path]
                db_stamp = donor_stamps[path][0]
                token[path] = (db_stamp, None)
                outcomes[path] = code
                kind = code & KIND
                if kind == DENIED:
                    st.denied += 1
                else:
                    st.visited += 1
                    if code & PLAN_PRUNED:
                        st.pruned += 1
                    if kind == NO_STAGE:
                        st.elided += 1
                    else:
                        st.opened += 1
                        capture.donated(path)
                    if may_descend and code & DESCENDED:
                        dir_stamp, names = index.cached_subdir_names(path, watched)
                        token[path] = (db_stamp, dir_stamp)
                        prefix = "" if path == "/" else path
                        todo.extend([
                            (f"{prefix}/{name}", f"{base}/{name}")
                            for name in names
                        ])
                # on to the next listed directory whose check passes
                while todo:
                    path, base = todo.pop()
                    # the cancellation checkpoint of each directory
                    trav.checkpoint()
                    if holds(path, get_meta(path, base + db_suffix, lean, watched)):
                        may_descend = True
                        break
                    fresh.append((path, True))
                else:
                    return fresh

        def process_dir(unit: tuple[str, bool]) -> list[tuple[str, bool]]:
            source_path, may_descend = unit
            # Cancellation checkpoint: observed before any work for
            # this directory. QueryCancelled is a FatalWalkError, so
            # the walker aborts the whole pool promptly.
            trav.checkpoint()

            st = thread_state()
            # plain strings: Path objects here cost more than the listing
            index_dir = index.index_path(source_path)
            db_path = index_dir + db_suffix
            # Descent-time 'stat': the validated cache answers warm
            # queries with a dictionary lookup; denied directories are
            # then skipped without ever attaching their database.
            meta = get_meta(source_path, db_path, lean, watched)
            if decided and holds(source_path, meta):
                return replay(st, source_path, index_dir, may_descend)
            st.ctx.current_path = source_path
            depth = path_depth(source_path)
            st.ctx.current_depth = depth
            rel_depth = depth - start_depth
            # Every touched directory — visited, denied, pruned, elided,
            # errored, or absent — is part of a cached result's validity
            # token, under the stamp taken before anything of it was
            # read: a change to any of them could change the answer.
            db_stamp = None if meta is None else meta.stamp
            if collect:
                st.token[source_path] = (db_stamp, None)

            def children(meta: DirMeta, code: int) -> list[tuple[str, bool]]:
                """The child units, and the directory's outcome (its
                ``code``, plus whether descent read its listing)."""
                paths: list[str] = []
                # a no-descend unit never pays for its child listing
                if may_descend:
                    dir_stamp, paths = trav.descend(
                        source_path, meta, rel_depth
                    )
                    if dir_stamp is not None:
                        code |= DESCENDED
                        if collect:
                            st.token[source_path] = (db_stamp, dir_stamp)
                if donates and (code & DESCENDED or not paths):
                    st.outcomes[source_path] = code
                return [(child, True) for child in paths]

            if meta is not None:
                if not trav.permitted(meta):
                    st.denied += 1
                    if donates:
                        st.outcomes[source_path] = DENIED
                    return []
                gates = trav.stage_gates(meta, rel_depth)
                if trav.plan is not None and not (
                    gates.run_t or gates.run_s or gates.run_e
                ):
                    # Warm fast path: the cached stats decide
                    # matchability before any SQLite work. No surviving
                    # stage needs the database, so the attach is elided
                    # outright and the walk continues off the cached
                    # child listing.
                    st.visited += 1
                    st.pruned += 1
                    st.elided += 1
                    return children(meta, NO_STAGE | PLAN_PRUNED)
                if watched and not current(source_path, index_dir, db_stamp, None):
                    # Written since the drain: the permission decision
                    # and the rows must come from the same file, so
                    # this one is read cold.
                    meta = None
            if meta is None:
                bracket = StampBracket(db_path)
                db_stamp = bracket.stamp
                if collect:
                    st.token[source_path] = (db_stamp, None)
                if db_stamp is None:
                    return []
            # Warm, the cached record has granted access (the kernel
            # would have refused a denied user the open). Cold, this
            # one attach serves the permission read and the stages.
            try:
                stage.attach(st, db_path)
            except sqlite3.DatabaseError:
                st.errored += 1
                return []
            local_rows: list[tuple] = []
            try:
                if meta is None:
                    try:
                        meta = stage.read_meta(st, lean, db_stamp)
                    except (sqlite3.DatabaseError, IndexError_):
                        # A corrupt or truncated shard, or one with no
                        # summary record, must not kill the whole
                        # query: count it and move on (the paper's
                        # answer to shard damage is the periodic
                        # rebuild).
                        st.errored += 1
                        return []
                    if bracket.unchanged():
                        # Publish only when the file is unchanged
                        # across the read — a racing rewrite must
                        # never pin its predecessor's DirMeta.
                        index.cache.put_meta(source_path, meta)
                    if not trav.permitted(meta):
                        st.denied += 1
                        if donates:
                            st.outcomes[source_path] = DENIED
                        return []
                    gates = trav.stage_gates(meta, rel_depth)
                stage.account_io(st, db_path)
                st.visited += 1
                st.opened += 1
                if gates.plan_pruned:
                    st.pruned += 1
                if gates.run_t and meta.tsummary:
                    stage.t_stage(st, local_rows)
                if (gates.run_s or gates.run_e) and not trav.t_prunes(
                    meta, rel_depth
                ):
                    stage.s_e_stages(
                        st, index_dir, creds, gates.run_s, gates.run_e, local_rows
                    )
            finally:
                StageRunner.detach(st)
            if local_rows:
                sink.emit(source_path, local_rows)
            # Under a plan, no surviving stage is what a warm walk
            # elides: replayed, it is tallied as elided.
            if trav.plan is not None and not (
                gates.run_t or gates.run_s or gates.run_e
            ):
                return children(meta, NO_STAGE | PLAN_PRUNED)
            return children(meta, RAN | gates.plan_pruned * PLAN_PRUNED)

        expand: Callable[[tuple[str, bool]], list[tuple[str, bool]]]
        if tracing:

            def expand(unit: tuple[str, bool]) -> list[tuple[str, bool]]:
                sp = otr.start("query.dir", path=unit[0])
                try:
                    return process_dir(unit)
                finally:
                    otr.end(sp)

        else:
            expand = process_dir

        def retire() -> SinkSummary:
            """Finish the sink (a file sink closes its files) and park
            the states in the pool again."""
            try:
                return sink.finish()
            finally:
                pool.release(list(run_states.values()))

        # An aborted run finishes its sink and parks its (idle) states
        # instead of orphaning them: a long-lived server times queries
        # out routinely and must not leak a pool's worth of connections
        # (or a file sink's files) each time.
        if len(units) == 1 and not units[0][1]:
            # One directory, no descent (``run_single``): the step runs
            # on the calling thread — starting ``nthreads`` threads
            # costs several times the directory itself — where nothing
            # swallows its errors, so any of them aborts.
            try:
                expand(units[0])
            except BaseException:
                retire()
                raise
            stats = WalkStats(items_processed=1)
        else:
            try:
                stats = ParallelTreeWalker(self.nthreads).walk(units, expand)
            except FatalWalkError:  # cancellation, simulated crashes
                retire()
                raise
        # Tallies are read while the states are still checked out: a
        # released state may be reset by a concurrent run on this pool.
        states = list(run_states.values())
        visited = sum(st.visited for st in states)
        denied = sum(st.denied for st in states)
        opened = sum(st.opened for st in states)
        errored = sum(st.errored for st in states)
        plan_pruned = sum(st.pruned for st in states)
        elided = sum(st.elided for st in states)
        t_time = sum(st.t_time for st in states)
        s_time = sum(st.s_time for st in states)
        e_time = sum(st.e_time for st in states)
        visited_paths: Token | None = None
        if collect:
            # each directory is processed by one thread: no key clashes
            visited_paths = {}
            for st in states:
                visited_paths.update(st.token)
        outcomes: dict[str, int] | None = None
        if donates:
            outcomes = {}
            for st in states:
                outcomes.update(st.outcomes)

        # --------------------------------------------------------------
        # Merge phase: J per thread database, then G on the aggregate.
        # --------------------------------------------------------------
        merge = MergeRunner(
            spec,
            pool.users,
            otr,
            timing,
            tracing,
            agg_path=agg_path,
        )
        try:
            g_rows = merge.run(states)
            if g_rows:
                sink.emit_final(g_rows)
        finally:
            # Output files close even when J/G raised; states go back
            # to the pool either way.
            summary = retire()

        if stats.errors:
            item, exc = stats.errors[0]
            raise RuntimeError(
                f"query failed at {item[0]!r}: {exc}"
            ) from exc

        return QueryResult(
            rows=summary.rows,
            elapsed=time.monotonic() - t0,
            dirs_visited=visited,
            dirs_denied=denied,
            dbs_opened=opened,
            dirs_errored=errored,
            dirs_pruned_by_plan=plan_pruned,
            attaches_elided=elided,
            output_files=summary.files,
            truncated=summary.truncated,
            walk_stats=stats,
            visited_paths=visited_paths,
            outcomes=outcomes,
            stage_seconds=(
                {
                    "T": t_time,
                    "S": s_time,
                    "E": e_time,
                    "J": merge.j_time,
                    "G": merge.g_time,
                }
                if timing
                else None
            ),
        )
