"""Scatter-gather query execution over subtree shards (multi-process).

The thread-parallel engine is GIL-bound: per-stage timings show the
cold hot path dominated by Python, not SQLite, so one process tops out
at roughly one core of useful work regardless of ``nthreads``. This
module is the way past that — the partitioned-parallel-query design of
Brindexer and Icicle applied to a GUFI tree:

* the **shard planner** is a dry run of the query's own
  :class:`~repro.core.engine.traversal.Traversal` over the warm
  :class:`~repro.core.index.DirMetaCache`: it expands the top levels
  breadth-first, asking the traversal every descent question the walk
  asks (permissions, rollup cuts, tsummary pruning, plan depth
  windows), so workers collectively visit exactly the directories one
  process would. Expanded directories (the *spine*) ride along as
  single-directory no-descend units; the directories below them (the
  *frontier*) are recursive units, packed onto shards longest first by
  ``DirStats.totfiles``;
* one :class:`~repro.core.engine.engine.QueryEngine` per **worker
  process** runs its shard via ``run_shard``. Workers are spawn-safe:
  the task payload carries only the index path, ``Credentials``,
  ``QuerySpec``, ``QueryPlan``, the unit list and the run's deadline —
  all picklable. Under the default ``fork`` start method the parent's
  warm index cache is inherited for free;
* the **gather** hands worker rows, in worker order, and the ``G``
  rows to the caller's single
  :class:`~repro.core.engine.sinks.ResultSink` the way a result-cache
  replay does (``QueryEngine._deliver``): per-worker aggregate
  databases (the ``J`` stage output) are row-unioned into one parent
  aggregate on which ``G`` runs exactly once, and ``QueryResult``
  counters, ``stage_seconds``, and obs metric snapshots are merged
  from every worker so observability stays whole-query.

This is the one place a query's intermediate data touches disk: rows
and ``J`` aggregates cross a *process* boundary, so each worker leaves
a result file and (with ``J``) an aggregate database in a hand-off
directory the :class:`ScatterGatherEngine` makes on first use and
removes when the engine closes. The aggregate files are written with
the rollback journal and sync off and deleted once folded — hand-offs,
not durable stores — and the parent's fold database is in memory.

Crash semantics: workers report results through a *result file*
(pickle + atomic rename), never a pipe the parent must block on. A
worker that dies without writing its file — OOM-killed, segfaulted —
surfaces as its shard's units counted in ``dirs_errored`` (plus a
``gufi_scatter_worker_crashes_total`` metric), not as a hang. A worker
that *reports* an exception re-raises in the parent, matching the
single-process walk-error contract; one that reports its deadline
passed makes the parent raise
:class:`~repro.core.engine.traversal.QueryCancelled` before any row
reaches the sink.

Merge contract (documented in ARCHITECTURE.md): for scatter-gather to
be equivalent to a single-process run, ``J`` must be append-only into
the aggregate (``INSERT ... SELECT``) and ``I`` must be pure DDL —
both already true of every ``gufi_query``-shaped spec, where ``G`` is
a reduction over rows ``J`` deposited.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import shutil
import sqlite3
import tempfile
import time
import traceback
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import obs
from repro.fs.permissions import Credentials
from repro.scan.walker import WalkStats
from repro.store.layout import publish

from ..index import DirMeta, GUFIIndex
from ..plan import QueryPlan
from ..session import run_sql, user_script
from ..sqlfuncs import QueryContext, register
from .engine import QueryEngine
from .sinks import MemorySink, ResultSink
from .traversal import (
    CancelToken,
    QueryCancelled,
    Traversal,
    normalize_path,
    path_depth,
)
from .types import _COUNTER_FIELDS, QueryResult, QuerySpec

#: set around fork-start so workers inherit the parent's warm index
#: handle (DirMeta cache included) instead of re-opening cold; spawn
#: children never see it and fall back to ``GUFIIndex.open``
_FORK_INDEX: GUFIIndex | None = None

#: the planner stops widening the frontier at this many units per
#: process, or this many levels below the start, whichever comes first
_OVERSHARD = 4
_MAX_LEVELS = 4

#: one shard work unit: (source path, may_descend)
Unit = tuple[str, bool]


# ----------------------------------------------------------------------
# Shard plan
# ----------------------------------------------------------------------
@dataclass
class Shard:
    """One worker's slice of the tree."""

    units: list[Unit] = field(default_factory=list)
    weight: int = 0


def _unit_weight(meta: DirMeta | None) -> int:
    """Balance weight of a recursive unit: the subtree's total file
    count when the summary stats carry one, else 1."""
    if meta is not None and meta.stats is not None:
        tot = meta.stats.totfiles
        if tot is not None:
            return max(1, int(tot))
    return 1


def plan_shards(
    trav: Traversal, start: str, processes: int
) -> list[Shard] | None:
    """Partition the subtree under ``start`` into balanced shards.

    A dry run of ``trav`` — the run's own traversal, so its
    credentials, plan, spec and cancel token — over the DirMeta cache:
    levels are expanded breadth-first until the frontier is
    ``processes * _OVERSHARD`` wide or ``_MAX_LEVELS`` deep, and a
    directory the walk would not descend into is never expanded here.
    Returns ``None`` when there are fewer than two units to pack, in
    which case the caller runs single-process.
    """
    index = trav.index
    spine: list[str] = []
    frontier = [start]
    for _ in range(_MAX_LEVELS):
        if len(frontier) >= processes * _OVERSHARD:
            break
        below: list[str] = []
        for path in frontier:
            trav.checkpoint()
            spine.append(path)
            meta = index.cached_dir_meta(path)
            # a denied or missing directory is the worker's to count
            if meta is not None and trav.permitted(meta):
                below += trav.descend(
                    path, meta, path_depth(path) - trav.start_depth
                )[1]
        frontier = below
    # Recursive frontier units, with the spine riding along; a tree the
    # planner exhausted is sharded as its spine, so small-but-wide
    # trees still parallelise.
    riders = spine if frontier else []
    units = [
        (path, bool(frontier), _unit_weight(index.cached_dir_meta(path)))
        for path in (frontier or spine)
    ]
    if len(units) < 2:
        return None
    # LPT greedy pack: heaviest unit onto the lightest shard.
    shards = [Shard() for _ in range(min(processes, len(units)))]
    units.sort(key=lambda unit: -unit[2])
    for path, rec, weight in units + [(path, False, 1) for path in riders]:
        shard = min(shards, key=lambda s: s.weight)
        shard.units.append((path, rec))
        shard.weight += weight
    for shard in shards:
        shard.units.sort()
    return shards


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
@dataclass
class _WorkerTask:
    """Everything a worker process needs — picklable by construction
    (spawn-safe): paths, plain dataclasses, and primitives only."""

    worker_id: int
    index_root: str
    creds: Credentials
    spec: QuerySpec  # G stripped; J kept; output handled by the parent
    plan: QueryPlan | None
    units: list[Unit]
    start_depth: int
    nthreads: int
    users: dict[int, str]
    #: where the worker leaves its J-stage aggregate (None: no J)
    agg_path: str | None
    #: where the worker writes its pickled result (atomic rename)
    result_path: str
    #: enable the worker's own metrics registry and ship a snapshot
    obs_metrics: bool
    #: the run's absolute ``time.monotonic()`` deadline, if any: the
    #: clock is system-wide, so the worker's token trips when the
    #: parent's would (a manual cancel does not cross the fork)
    deadline: float | None
    #: test hook, called with worker_id before any work (picklable
    #: module-level function; crash tests kill the process here)
    worker_init: Callable[[int], None] | None = None


@dataclass
class _WorkerResult:
    """What comes back through the result file."""

    worker_id: int
    rows: list[tuple] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] | None = None
    walk_processed: int = 0
    walk_errored: int = 0
    elapsed: float = 0.0
    metrics: dict | None = None
    error: str | None = None
    #: the shard stopped at the run's deadline
    cancelled: bool = False


def _worker_main(task: _WorkerTask) -> None:
    """Worker process entry point: run the shard, write the result
    file. Never raises — failures travel back as ``error`` text."""
    payload: _WorkerResult
    try:
        # A forked child inherits the parent's live registry; recording
        # into it would double-count once the snapshot is merged back.
        # Start from a fresh (or null) recorder either way.
        obs.disable()
        if task.obs_metrics:
            obs.enable(metrics=True)
        if task.worker_init is not None:
            task.worker_init(task.worker_id)
        fork_index = _FORK_INDEX
        if fork_index is not None and str(fork_index.root) == task.index_root:
            index = fork_index  # warm cache, copy-on-write
        else:
            index = GUFIIndex.open(task.index_root)
        engine = QueryEngine(index, creds=task.creds, nthreads=task.nthreads)
        engine.pool.users.update(task.users)
        try:
            result = engine.run_shard(
                task.spec,
                task.units,
                task.start_depth,
                plan=task.plan,
                sink=MemorySink(),
                agg_path=task.agg_path,
                cancel=CancelToken(task.deadline),
            )
        finally:
            engine.close()
        walk = result.walk_stats
        payload = _WorkerResult(
            worker_id=task.worker_id,
            rows=result.rows,
            counters={f: getattr(result, f) for f in _COUNTER_FIELDS},
            stage_seconds=result.stage_seconds,
            walk_processed=walk.items_processed if walk else 0,
            walk_errored=walk.items_errored if walk else 0,
            elapsed=result.elapsed,
            metrics=obs.snapshot().to_dict() if task.obs_metrics else None,
        )
    except QueryCancelled:
        payload = _WorkerResult(task.worker_id, cancelled=True)
    except BaseException:
        payload = _WorkerResult(task.worker_id, error=traceback.format_exc())
    tmp = task.result_path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh)
    publish(tmp, task.result_path)


def _unlink(path: str) -> None:
    """Remove a hand-off file that may never have been written."""
    try:
        os.unlink(path)
    except OSError:
        pass


# ----------------------------------------------------------------------
# The gather side
# ----------------------------------------------------------------------
class ScatterGatherEngine:
    """Multi-process front end over a :class:`QueryEngine`.

    Owned lazily by the engine when ``processes > 1``; ``run`` has the
    engine's exact signature and result contract. The planner, the
    worker fan-out, and the gather all run under the parent's
    whole-query observability span, so a scatter-gather query is one
    ``query.run`` span with one set of merged counters — the workers'
    walker/session metrics fold in through snapshot merging.
    """

    def __init__(self, engine: QueryEngine, processes: int) -> None:
        self.engine = engine
        self.processes = max(2, int(processes))
        #: test hook forwarded to every worker (see ``_WorkerTask``)
        self.worker_init: Callable[[int], None] | None = None
        self._seq = 0
        #: the hand-off directory, made by the first sharded run
        self._handoff_dir: str | None = None
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------
    def _handoff(self) -> str:
        """The directory workers leave their result and aggregate
        files in (the parent deletes each file as it reads it)."""
        if self._handoff_dir is None:
            self._handoff_dir = tempfile.mkdtemp(prefix="gufi_scatter_")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._handoff_dir, ignore_errors=True
            )
        return self._handoff_dir

    def close(self) -> None:
        """Remove the hand-off directory, if a run made one."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._handoff_dir = None

    def run(
        self,
        spec: QuerySpec,
        start: str = "/",
        plan: QueryPlan | None = None,
        sink: ResultSink | None = None,
        cancel: CancelToken | None = None,
    ) -> QueryResult:
        """:meth:`QueryEngine.run` over worker processes. ``cancel``
        is checked once per directory the planner expands, and its
        deadline travels with every shard: a worker past it stops
        within one directory, and the run raises
        :class:`QueryCancelled` before any row reaches ``sink``. A
        manual :meth:`CancelToken.cancel` is seen only until the
        shards are dispatched."""
        engine = self.engine
        sink = MemorySink() if sink is None else sink
        sink._claim()
        return engine._observed(
            "query.run",
            spec,
            start,
            lambda otr: self._run_impl(spec, start, plan, sink, otr, cancel),
        )

    def _run_impl(
        self,
        spec: QuerySpec,
        start: str,
        plan: QueryPlan | None,
        sink: ResultSink,
        otr: Any,
        cancel: CancelToken | None,
    ) -> QueryResult:
        global _FORK_INDEX
        engine = self.engine
        t0 = time.monotonic()
        start = normalize_path(start)
        start_depth = path_depth(start)
        trav = Traversal(
            engine.index, engine.creds, spec, plan, start_depth, cancel=cancel
        )
        trav.check_start(start)
        shards = plan_shards(trav, start, self.processes)
        if shards is None:
            # Tree too narrow to shard: run single-process, same sink.
            # never watched: the plan above was read off stamps
            return engine._run_impl(
                spec, start, True, plan, sink, otr, cancel, watched=False
            )

        timing = obs.metrics().enabled
        worker_spec = replace(spec, G=None)
        scratch = self._handoff()
        seq = self._seq
        self._seq += 1
        nthreads = max(1, engine.nthreads // len(shards))
        tasks = [
            _WorkerTask(
                worker_id=wid,
                index_root=str(engine.index.root),
                creds=engine.creds,
                spec=worker_spec,
                plan=plan,
                units=shard.units,
                start_depth=start_depth,
                nthreads=nthreads,
                users=dict(engine.pool.users),
                agg_path=(
                    os.path.join(scratch, f"scatter_{seq}_w{wid}.agg.db")
                    if spec.J
                    else None
                ),
                result_path=os.path.join(
                    scratch, f"scatter_{seq}_w{wid}.result.pkl"
                ),
                obs_metrics=timing,
                deadline=None if cancel is None else cancel.deadline,
                worker_init=self.worker_init,
            )
            for wid, shard in enumerate(shards)
        ]

        ctx = mp.get_context()
        procs = [
            ctx.Process(target=_worker_main, args=(task,), daemon=True)
            for task in tasks
        ]
        try:
            if ctx.get_start_method() == "fork":
                _FORK_INDEX = engine.index
            for p in procs:
                p.start()
        finally:
            _FORK_INDEX = None
        for p in procs:
            p.join()

        results: list[_WorkerResult | None] = []
        for task in tasks:
            res: _WorkerResult | None = None
            try:
                with open(task.result_path, "rb") as fh:
                    res = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError):
                res = None  # the worker died before writing: a crash
            finally:
                _unlink(task.result_path)
            results.append(res)

        crashes = sum(1 for r in results if r is None)
        crashed_units = sum(
            len(task.units)
            for task, r in zip(tasks, results)
            if r is None
        )
        worker_error: tuple[int, str] | None = None
        for res in results:
            if res is not None and res.error is not None:
                worker_error = (res.worker_id, res.error)
                break

        rec = obs.metrics()
        if rec.enabled:
            from repro.obs.registry import MetricsSnapshot

            rec.counter("gufi_scatter_runs_total")
            rec.counter("gufi_scatter_shards_total", len(shards))
            if crashes:
                rec.counter("gufi_scatter_worker_crashes_total", crashes)
            for res in results:
                if res is not None and res.metrics is not None:
                    rec.merge_snapshot(MetricsSnapshot.from_dict(res.metrics))

        try:
            if any(r is not None and r.cancelled for r in results):
                raise QueryCancelled("query cancelled (deadline exceeded)")
            g_rows, g_time = self._fold_aggregates(spec, tasks, results)
        finally:
            for task in tasks:
                if task.agg_path is not None:
                    _unlink(task.agg_path)

        clean = [r for r in results if r is not None and r.error is None]
        summary = engine._deliver(
            sink, [row for r in clean for row in r.rows], g_rows
        )

        if worker_error is not None:
            wid, text = worker_error
            raise RuntimeError(
                f"query failed in scatter worker {wid}:\n{text}"
            )

        counters = {
            name: sum(r.counters[name] for r in clean)
            for name in _COUNTER_FIELDS
        }
        counters["dirs_errored"] += crashed_units
        walk = WalkStats(
            items_processed=sum(r.walk_processed for r in clean),
            items_errored=sum(r.walk_errored for r in clean),
            elapsed=time.monotonic() - t0,
            thread_completion_times=sorted(r.elapsed for r in clean),
            items_per_thread={
                r.worker_id: r.walk_processed + r.walk_errored for r in clean
            },
        )
        stage_seconds: dict[str, float] | None = None
        if timing:
            stage_seconds = {"T": 0.0, "S": 0.0, "E": 0.0, "J": 0.0, "G": g_time}
            for res in clean:
                for key, v in (res.stage_seconds or {}).items():
                    if key in ("T", "S", "E", "J"):
                        stage_seconds[key] += v
        return QueryResult(
            rows=summary.rows,
            elapsed=time.monotonic() - t0,
            **counters,
            output_files=summary.files,
            truncated=summary.truncated,
            walk_stats=walk,
            stage_seconds=stage_seconds,
        )

    # ------------------------------------------------------------------
    def _fold_aggregates(
        self,
        spec: QuerySpec,
        tasks: list[_WorkerTask],
        results: list[_WorkerResult | None],
    ) -> tuple[list[tuple], float]:
        """Row-union every clean worker's aggregate database into one
        parent aggregate built from the ``I`` script, then run ``G``
        exactly once against it. Returns (G rows, G seconds); the
        caller deletes the worker files."""
        if not (spec.J or spec.G):
            return [], 0.0
        g_rows: list[tuple] = []
        g_time = 0.0
        # only this connection reads the fold: a private in-memory
        # database the worker files are attached to, one at a time
        conn = sqlite3.connect(":memory:")
        try:
            if spec.I:
                user_script(conn, spec.I)
                conn.commit()
            for task, res in zip(tasks, results):
                if (
                    task.agg_path is None
                    or res is None
                    or res.error is not None
                    or not os.path.exists(task.agg_path)
                ):
                    continue
                conn.execute("ATTACH DATABASE ? AS worker", (task.agg_path,))
                try:
                    tables = [
                        name
                        for (name,) in conn.execute(
                            "SELECT name FROM worker.sqlite_master "
                            "WHERE type = 'table' "
                            "AND name NOT LIKE 'sqlite_%'"
                        )
                    ]
                    for table in tables:
                        here = conn.execute(
                            "SELECT name FROM main.sqlite_master "
                            "WHERE type = 'table' AND name = ?",
                            (table,),
                        ).fetchone()
                        if here is not None:
                            conn.execute(
                                f'INSERT INTO main."{table}" '
                                f'SELECT * FROM worker."{table}"'
                            )
                        else:
                            conn.execute(
                                f'CREATE TABLE main."{table}" AS '
                                f'SELECT * FROM worker."{table}"'
                            )
                    conn.commit()
                finally:
                    conn.execute("DETACH DATABASE worker")
            if spec.G:
                gb = time.perf_counter()
                register(conn, QueryContext(users=self.engine.pool.users))
                g_rows = run_sql(conn, spec.G, 0)
                g_time = time.perf_counter() - gb
        finally:
            conn.close()
        return g_rows, g_time
