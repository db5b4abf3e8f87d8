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
reads. Per-directory accounting (counters, row buffers) is kept in the
per-thread state and merged once after the walk; the hot path takes no
locks.
"""

from __future__ import annotations

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
from .sinks import MemorySink, ResultSink, ThreadFileSink
from .stages import MergeRunner, StageRunner
from .traversal import (
    CancelToken,
    QueryCancelled,
    Traversal,
    normalize_path,
    path_depth,
)
from .types import (
    QueryPermissionError,
    QueryResult,
    QuerySpec,
    spec_label,
)


class QueryEngine:
    """Query executor bound to an index, credentials, and a pool size.

    The handle is a *session*: scratch connections and output files
    persist across :meth:`run` calls (see :mod:`repro.core.session`).
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
        users: dict[int, str] | None = None,
        groups: dict[int, str] | None = None,
        processes: int = 1,
        mp_start_method: str | None = None,
        result_cache: ResultCache | None = None,
    ) -> None:
        self.index = index
        self.creds = creds
        self.nthreads = nthreads
        self.tracer = tracer
        # keep these exact dict objects: the pool's QueryContexts alias
        # them, so in-place updates propagate to live sessions
        self.users = users if users is not None else {}
        self.groups = groups if groups is not None else {}
        self.pool = ThreadStatePool(users=self.users, groups=self.groups)
        #: worker processes for run(); 1 = single-process (historical)
        self.processes = max(1, int(processes))
        #: multiprocessing start method for scatter-gather workers
        #: (None = the platform default, fork on Linux)
        self.mp_start_method = mp_start_method
        self._scatter_engine: Any = None
        #: optional materialized-result cache (engine/resultcache.py).
        #: Sharing one instance across engines/sessions is the point —
        #: entries are credential-scoped by key, so a shared cache is
        #: safe across principals.
        self.result_cache = result_cache
        if result_cache is not None:
            result_cache.bind_index(index)
        #: collect per-run visited paths (the cache's validity token).
        #: Scatter workers have no cache of their own but set this on
        #: the parent's behalf so the gathered result can be stored.
        self.collect_visited = result_cache is not None

    def close(self) -> None:
        """Release the session's pooled connections (and with them
        their in-memory scratch databases) and, after a scatter-gather
        run, the workers' hand-off directory."""
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
        rows (or per-thread files when ``spec.output_prefix`` is set,
        preserving the ``-o`` shorthand).

        ``cancel`` is a cooperative :class:`CancelToken` (deadline
        and/or caller-side kill): the traversal layer observes it once
        per directory and aborts the walk with :class:`QueryCancelled`
        — the serving layer's deadline enforcement. Cancellation is
        cooperative *within this process*: a ``processes > 1`` run
        checks the token at dispatch but the worker processes do not
        observe it mid-shard.

        With ``processes > 1`` the run is executed scatter-gather: the
        index is partitioned into subtree shards, each processed by a
        worker *process* running its own engine, and the results are
        merged back through ``sink`` (see
        :mod:`repro.core.engine.scatter`). ``processes=1`` is exactly
        the historical single-process path.

        With a :class:`ResultCache` attached, the run is served from a
        revalidated materialized entry when one exists (rows replayed
        through ``sink``), and otherwise captured through a tee for
        the next caller — see :mod:`repro.core.engine.resultcache`."""
        if cancel is not None and cancel.cancelled:
            raise QueryCancelled("query cancelled before dispatch")
        if self.result_cache is not None:
            return self._run_cached(spec, start, plan, sink, cancel)
        return self._run_uncached(spec, start, plan, sink, cancel)

    def _run_uncached(
        self,
        spec: QuerySpec,
        start: str,
        plan: QueryPlan | None,
        sink: ResultSink | None,
        cancel: CancelToken | None,
        donor: CaptureSink | None = None,
    ) -> QueryResult:
        """One real run: scatter-gather, or the single-process walk."""
        if self.processes > 1:
            return self._scatter().run(spec, start, plan=plan, sink=sink)
        sink = self._default_sink(spec) if sink is None else sink
        sink._claim()
        return self._observed(
            "query.run",
            spec,
            start,
            lambda otr: self._run_impl(
                spec, start, True, plan, sink, otr, cancel, donor
            ),
        )

    def _run_cached(
        self,
        spec: QuerySpec,
        start: str,
        plan: QueryPlan | None,
        sink: ResultSink | None,
        cancel: CancelToken | None,
    ) -> QueryResult:
        """The result-cache front end of :meth:`run`: replay a valid
        entry, or run for real through a capturing tee and store.

        Replay ignores ``cancel`` past the entry check in :meth:`run`:
        serving a validated materialized entry is O(rows), already far
        cheaper than any deadline worth enforcing."""
        cache = self.result_cache
        assert cache is not None
        key = make_key(self.creds, spec, plan, normalize_path(start))
        entry = cache.lookup(key, self.index)
        if entry is not None:
            return self._observed(
                "query.run",
                spec,
                start,
                lambda otr: self._replay(spec, entry, sink),
            )
        # Snapshot the invalidation sequence *before* the run: a write
        # landing mid-run bumps it and the store aborts (the rows may
        # predate the write its stamps postdate).
        inv_seq = cache.invalidation_seq
        # A stale entry under this key donates its unchanged
        # directories' rows to the walk that replaces it (scatter
        # workers and traced I/O always read the databases).
        reads_all = self.processes > 1 or self.tracer is not None
        capture = CaptureSink(
            self._default_sink(spec) if sink is None else sink,
            cache.max_entry_bytes,
            None if reads_all else cache.donor(key),
        )
        result = self._run_uncached(
            spec, start, plan, capture, cancel,
            capture if capture.donor is not None else None,
        )
        cache.store(key, capture, result, self.index, inv_seq)
        return result

    def _replay(
        self,
        spec: QuerySpec,
        entry: CacheEntry,
        sink: ResultSink | None,
    ) -> QueryResult:
        """Serve one materialized entry through the caller's sink —
        the sink sees the same emit/emit_final/finish sequence a real
        run produces, so caps, paging, files, and aggregate databases
        all behave identically."""
        t0 = time.monotonic()
        sink = self._default_sink(spec) if sink is None else sink
        sink._claim()
        # a replay executes no stage, so its checkout runs no SQL
        st = self.pool.acquire(spec.I, sink.thread_output_path(0), stages=False)
        output_files: list[str] = []
        try:
            if entry.rows:
                sink.emit(st, entry.rows)
            if entry.final_rows:
                sink.emit_final(entry.final_rows)
            summary = sink.finish([st])
        finally:
            out_path = st.finish_output()
            if out_path is not None:
                output_files.append(out_path)
            self.pool.release([st])
        return QueryResult(
            rows=summary.rows,
            elapsed=time.monotonic() - t0,
            **entry.counters,
            output_files=output_files or None,
            truncated=summary.truncated,
            cached=True,
        )

    def run_shard(
        self,
        spec: QuerySpec,
        units: list[tuple[str, bool]],
        start_depth: int,
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        agg_path: str | None = None,
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
        sink = self._default_sink(spec) if sink is None else sink
        sink._claim()
        norm = [(normalize_path(p), bool(rec)) for p, rec in units]
        trav = Traversal(self.index, self.creds, spec, plan, start_depth)
        return self._walk_units(
            spec, norm, start_depth, trav, sink, obs.tracer(),
            agg_path=agg_path,
        )

    def _scatter(self) -> Any:
        """The engine's lazily-built scatter-gather front end."""
        if self._scatter_engine is None:
            from .scatter import ScatterGatherEngine

            self._scatter_engine = ScatterGatherEngine(
                self,
                processes=self.processes,
                mp_start_method=self.mp_start_method,
            )
        return self._scatter_engine

    def run_single(
        self,
        spec: QuerySpec,
        path: str = "/",
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """Process exactly one directory's database (no descent).

        This is one directory of :meth:`run` — the same per-directory
        step (``cancel`` checkpoint included), merge phase and sinks —
        executed on the calling thread, with a direct call's error
        mapping: a directory the caller may not read raises
        :class:`QueryPermissionError` instead of being counted in
        ``dirs_denied``, and a failing stage raises its own exception
        (no walker collects it into a ``RuntimeError``)."""
        sink = self._default_sink(spec) if sink is None else sink
        sink._claim()

        def single(otr: Any) -> QueryResult:
            result = self._run_impl(spec, path, False, plan, sink, otr, cancel)
            if result.dirs_denied:
                raise QueryPermissionError(f"permission denied: {path!r}")
            return result

        return self._observed("query.run_single", spec, path, single)

    @staticmethod
    def _default_sink(spec: QuerySpec) -> ResultSink:
        if spec.output_prefix is not None:
            return ThreadFileSink(spec.output_prefix)
        return MemorySink()

    # ------------------------------------------------------------------
    # Observability wrapper
    # ------------------------------------------------------------------
    def _observed(
        self,
        kind: str,
        spec: QuerySpec,
        start: str,
        impl: Callable[[Any], QueryResult],
    ) -> QueryResult:
        """Run ``impl`` under the process observability layer: a span
        covering the whole call, counters folded once from the
        result's (already lock-free) tallies, per-stage timings, cache
        hit/miss deltas, and a slow-query log check. With everything
        disabled this is two attribute checks and a straight call."""
        rec = obs.metrics()
        otr = obs.tracer()
        slow = obs.slow_log()
        if not (rec.enabled or otr.enabled or slow.enabled):
            return impl(otr)
        t0 = time.monotonic()
        cache_before = self.index.cache.stats() if rec.enabled else None
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
                assert cache_before is not None
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
        cache_before: dict[str, int],
    ) -> None:
        rec.counter("gufi_query_runs_total", kind=kind)
        rec.observe("gufi_query_seconds", elapsed, kind=kind)
        if error is not None:
            rec.counter("gufi_query_failures_total", error=type(error).__name__)
        if result is not None:
            rec.counter("gufi_query_rows_total", len(result.rows))
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
        cache_after = self.index.cache.stats()
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
        donor: CaptureSink | None = None,
    ) -> QueryResult:
        start = normalize_path(start)
        start_depth = path_depth(start)
        trav = Traversal(
            self.index, self.creds, spec, plan, start_depth, cancel=cancel
        )
        trav.check_root_reachable(start)
        if not self.index.db_path(start).exists():
            raise FileNotFoundError(f"no index directory for {start!r}")
        return self._walk_units(
            spec, [(start, descend)], start_depth, trav, sink, otr,
            donor=donor,
        )

    def _walk_units(
        self,
        spec: QuerySpec,
        units: list[tuple[str, bool]],
        start_depth: int,
        trav: Traversal,
        sink: ResultSink,
        otr: Any,
        agg_path: str | None = None,
        donor: CaptureSink | None = None,
    ) -> QueryResult:
        """The shared walk body: process every ``(path, may_descend)``
        unit (descending where allowed), then run the J/G merge.
        ``run()`` passes a single recursive unit at the query start,
        ``run_single()`` a single non-descending one, and
        ``run_shard()`` a shard's worth of units. ``donor`` is the
        run's capturing tee when a stale result-cache entry can donate
        the rows of unchanged directories to it."""
        t0 = time.monotonic()
        pool = self.pool
        index = self.index
        creds = self.creds
        # Stage timings feed QueryResult.stage_seconds; both flags are
        # read once so the per-directory path tests plain locals.
        timing = obs.metrics().enabled
        tracing = otr.enabled
        collect = self.collect_visited
        # A stream-shaped run (S/E rows, nothing carried between
        # directories) also reports where its stages completed: those
        # directories' rows can be donated to the run that replaces it.
        donates = (
            collect
            and self.tracer is None
            and not (spec.I or spec.T or spec.J or spec.G or spec.xattrs)
        )
        # What a cold directory's metadata read costs is what the run
        # asks of it: the planner's bounds and the tree-summary bit are
        # read by a plan and by ``T`` and by nothing else here, so a run
        # with neither reads (and caches, marked as such) the lean
        # record. Decided here, once; enforced by ``get_meta``.
        lean = trav.plan is None and not spec.T
        stage = StageRunner(index, spec, self.tracer, otr, timing, tracing)
        db_suffix = "/" + DB_NAME
        # Thread-ident -> checked-out state, for *this* run only (the
        # walker creates fresh threads per walk). The lock is taken
        # once per thread per run — at checkout — never per directory.
        run_states: dict[int, _ThreadState] = {}
        checkout_lock = threading.Lock()

        def thread_state() -> _ThreadState:
            tid = threading.get_ident()
            st = run_states.get(tid)
            if st is None:
                with checkout_lock:
                    ordinal = len(run_states)
                    st = pool.acquire(
                        spec.I, sink.thread_output_path(ordinal)
                    )
                    run_states[tid] = st
            return st

        def process_dir(unit: tuple[str, bool]) -> list[tuple[str, bool]]:
            source_path, may_descend = unit
            # Cancellation checkpoint: observed before any work for
            # this directory. QueryCancelled is a FatalWalkError, so
            # the walker aborts the whole pool promptly.
            trav.checkpoint()

            st = thread_state()
            if collect:
                # Every touched directory — visited, denied, pruned,
                # elided, errored, or absent — is part of the result's
                # validity token: a change to any of them could change
                # the answer.
                st.touched.append(source_path)
            st.ctx.current_path = source_path
            depth = path_depth(source_path)
            st.ctx.current_depth = depth
            rel_depth = depth - start_depth

            def children(
                meta: DirMeta, t_pruned: bool = False
            ) -> list[tuple[str, bool]]:
                # a no-descend unit never pays for its child listing
                if not may_descend:
                    return []
                paths = trav.descend(source_path, meta, rel_depth, t_pruned)
                return [(child, True) for child in paths]

            # plain strings: Path objects here cost more than the listing
            index_dir = index.index_path(source_path)
            db_path = index_dir + db_suffix
            # Descent-time 'stat': the validated cache answers warm
            # queries with a dictionary lookup; denied directories are
            # then skipped without ever attaching their database.
            meta = index.cache.get_meta(source_path, db_path, lean)
            if meta is not None:
                if not trav.permitted(meta):
                    st.denied += 1
                    return []
                if trav.elide_warm(meta, rel_depth):
                    # Warm fast path: the cached stats decide
                    # matchability before any SQLite work. No surviving
                    # stage needs the database, so the attach is elided
                    # outright and the walk continues off the cached
                    # child listing.
                    st.visited += 1
                    st.pruned += 1
                    st.elided += 1
                    return children(meta)
                if donor is not None and donor.reuse(
                    st, source_path, index.cache.peek_stamp(source_path)
                ):
                    # Unchanged since the donor's capture (the stamp
                    # ``get_meta`` validated above): its rows stand in
                    # for ATTACH, S/E, DETACH; the rest is this run's.
                    st.visited += 1
                    st.opened += 1
                    if trav.stage_gates(meta, rel_depth).plan_pruned:
                        st.pruned += 1
                    st.ran.append(source_path)
                    return children(meta)
            else:
                bracket = StampBracket(db_path)
                if bracket.missing:
                    return []
            # Warm, the cached record has granted access (the kernel
            # would have refused a denied user the open). Cold, this
            # one attach serves the permission read and the stages.
            try:
                stage.attach(st, db_path)
            except sqlite3.DatabaseError:
                st.errored += 1
                return []
            t_pruned = False
            local_rows: list[tuple] = []
            try:
                if meta is None:
                    try:
                        meta = stage.read_meta(st, lean)
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
                        index.cache.put_meta(source_path, bracket.stamp, meta)
                    if not trav.permitted(meta):
                        st.denied += 1
                        return []
                stage.account_io(st, db_path)
                st.visited += 1
                st.opened += 1
                gates = trav.stage_gates(meta, rel_depth)
                if gates.plan_pruned:
                    st.pruned += 1
                if gates.run_t and meta.tsummary:
                    t_pruned = stage.t_stage(st, local_rows)
                if not t_pruned and (gates.run_s or gates.run_e):
                    stage.s_e_stages(
                        st, index_dir, creds, gates.run_s, gates.run_e, local_rows
                    )
            finally:
                StageRunner.detach(st)
            if donates:
                st.ran.append(source_path)
            if local_rows:
                sink.emit(st, local_rows)
            return children(meta, t_pruned)

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

        def retire() -> list[str]:
            """Flush the checked-out states' output files and park the
            states in the pool again; returns the files written."""
            states = list(run_states.values())
            files = sorted(p for st in states if (p := st.finish_output()))
            pool.release(states)
            return files

        # An aborted run parks its (idle) states instead of orphaning
        # them: a long-lived server times queries out routinely and
        # must not leak a pool's worth of connections each time.
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
        visited_paths: list[str] | None = None
        if collect:
            visited_paths = [p for st in states for p in st.touched]
        ran_paths: list[str] | None = None
        if donates:
            ran_paths = [p for st in states for p in st.ran]

        # --------------------------------------------------------------
        # Merge phase: J per thread database, then G on the aggregate.
        # --------------------------------------------------------------
        merge = MergeRunner(
            spec,
            self.users,
            self.groups,
            otr,
            timing,
            tracing,
            agg_path=agg_path,
        )
        try:
            g_rows = merge.run(states)
            if g_rows:
                sink.emit_final(g_rows)
            summary = sink.finish(states)
        finally:
            # Output files flush (and record) even when J/G raised;
            # states go back to the pool either way.
            output_files = retire()

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
            output_files=output_files or None,
            truncated=summary.truncated,
            walk_stats=stats,
            visited_paths=visited_paths,
            ran_paths=ran_paths,
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
