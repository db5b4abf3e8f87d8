"""Scatter-gather query execution over subtree shards (multi-process).

The thread-parallel engine is GIL-bound: per-stage timings show the
cold hot path dominated by Python, not SQLite, so one process tops out
at roughly one core of useful work regardless of ``nthreads``. This
module is the way past that — the partitioned-parallel-query design of
Brindexer and Icicle applied to a GUFI tree:

* a **shard planner** walks the top levels of the index through the
  warm :class:`~repro.core.index.DirMetaCache`, replicating the
  engine's exact descent decisions (permissions, rollup cuts,
  tsummary pruning, plan depth windows), and splits the tree into a
  *spine* (every expanded directory, dispatched as a single-directory
  no-descend unit) and a *frontier* (subtree roots processed
  recursively). Frontier siblings that are permission-compatible with
  their parent — rollup's own grouping predicate,
  :func:`~repro.core.rollup.rollup_compatible` — are packed into the
  same shard, and shards are balanced by ``DirStats.totfiles``;
* one :class:`~repro.core.engine.engine.QueryEngine` per **worker
  process** runs its shard via ``run_shard``. Workers are spawn-safe:
  the task payload carries only the index path, ``Credentials``,
  ``QuerySpec``, ``QueryPlan``, and the unit list — all picklable.
  Under the default ``fork`` start method the parent's warm index
  cache is inherited for free;
* the **gather** folds everything back through the caller's single
  :class:`~repro.core.engine.sinks.ResultSink`: worker rows are
  emitted in worker order, per-worker aggregate databases (the ``J``
  stage output) are row-unioned into one parent aggregate on which
  ``G`` runs exactly once, and ``QueryResult`` counters,
  ``stage_seconds``, and obs metric snapshots are merged from every
  worker so observability stays whole-query.

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
single-process walk-error contract.

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
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import obs
from repro.fs.permissions import Credentials
from repro.scan.walker import WalkStats

from ..index import DirMeta, GUFIIndex
from ..plan import QueryPlan
from ..rollup import rollup_compatible
from ..session import run_sql, user_script
from ..sqlfuncs import QueryContext, register
from .engine import QueryEngine
from .sinks import MemorySink, ResultSink
from .traversal import Traversal, normalize_path, path_depth
from .types import QueryResult, QuerySpec

#: set around fork-start so workers inherit the parent's warm index
#: handle (DirMeta cache included) instead of re-opening cold; spawn
#: children never see it and fall back to ``GUFIIndex.open``
_FORK_INDEX: GUFIIndex | None = None

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


@dataclass
class ShardPlan:
    """The planner's output: balanced shards plus bookkeeping the
    tests and benchmarks introspect."""

    shards: list[Shard]
    #: directories the planner expanded (each dispatched as a
    #: no-descend unit inside some shard)
    spine: list[str]
    #: recursive subtree roots across all shards
    frontier: list[str]
    start_depth: int


def _unit_weight(meta: DirMeta | None) -> int:
    """Balance weight of a recursive unit: the subtree's total file
    count when the summary stats carry one, else 1."""
    if meta is not None and meta.stats is not None:
        tot = meta.stats.totfiles
        if tot is not None:
            return max(1, int(tot))
    return 1


def _t_prunes(
    trav: Traversal, spec: QuerySpec, meta: DirMeta, rel_depth: int
) -> bool:
    """Would the engine's T stage prune descent at this directory?
    Mirrors the walk: T runs only inside the plan's depth window, and
    prunes where tsummary has rows (unless ``t_no_prune``)."""
    return bool(
        spec.T
        and not spec.t_no_prune
        and meta.tsummary
        and trav.wants_level(rel_depth)
    )


def plan_shards(
    index: GUFIIndex,
    trav: Traversal,
    spec: QuerySpec,
    start: str,
    start_depth: int,
    processes: int,
    overshard: int = 4,
    max_levels: int = 4,
) -> ShardPlan | None:
    """Partition the subtree under ``start`` into balanced shards.

    Levels are expanded breadth-first until the recursive frontier is
    wide enough (``processes * overshard``) or ``max_levels`` deep.
    Every descent decision replicates the engine's own traversal layer
    — a directory the single-process walk would not descend into is
    never expanded here — so workers collectively visit exactly the
    directories one process would. Returns ``None`` when the tree is
    too narrow to shard (fewer than two frontier groups), in which
    case the caller falls back to single-process execution.
    """
    target = max(2, processes * overshard)
    metas: dict[str, DirMeta | None] = {}
    parents: dict[str, str] = {}
    spine: list[str] = []
    candidates = [start]
    level = 0
    while candidates and len(candidates) < target and level < max_levels:
        next_level: list[str] = []
        expanded = False
        for path in candidates:
            meta = metas.get(path)
            if path not in metas:
                meta = index.cached_dir_meta(path)
                metas[path] = meta
            spine.append(path)
            if meta is None or not trav.permitted(meta):
                # the worker processing this unit does the counting
                # (denied / errored); nothing descends below it
                continue
            rel_depth = path_depth(path) - start_depth
            t_pruned = _t_prunes(trav, spec, meta, rel_depth)
            children = trav.descend(path, meta, rel_depth, t_pruned=t_pruned)
            if not children:
                continue
            expanded = True
            for child in children:
                parents[child] = path
                next_level.append(child)
        if not expanded:
            candidates = []
            break
        candidates = next_level
        level += 1

    frontier = candidates
    #: work groups kept together in one shard: [(path, may_descend,
    #: weight), ...]
    groups: list[list[tuple[str, bool, int]]] = []
    spine_rides_along = True
    if frontier:
        # Group frontier siblings that rollup could have merged into
        # their parent — they share a permission shape, so keeping
        # them in one shard keeps each worker's profile coherent.
        by_parent: dict[str, list[str]] = defaultdict(list)
        for path in frontier:
            by_parent[parents.get(path, start)].append(path)
        for parent, kids in by_parent.items():
            pmeta = metas.get(parent)
            compat: list[tuple[str, bool, int]] = []
            for kid in kids:
                kmeta = metas.get(kid)
                if kid not in metas:
                    kmeta = index.cached_dir_meta(kid)
                    metas[kid] = kmeta
                w = _unit_weight(kmeta)
                if (
                    pmeta is not None
                    and kmeta is not None
                    and rollup_compatible(
                        pmeta.mode, pmeta.uid, pmeta.gid,
                        kmeta.mode, kmeta.uid, kmeta.gid,
                    )
                ):
                    compat.append((kid, True, w))
                else:
                    groups.append([(kid, True, w)])
            if compat:
                groups.append(compat)

        # A compatibility group heavier than a fair share would defeat
        # balancing: break it back into single-directory groups.
        total_weight = sum(w for g in groups for _, _, w in g)
        fair = total_weight / max(1, processes)
        split: list[list[tuple[str, bool, int]]] = []
        for g in groups:
            if len(g) > 1 and sum(w for _, _, w in g) > fair:
                split.extend([item] for item in g)
            else:
                split.append(g)
        groups = split
    else:
        # The walk exhausted the tree during planning: every visitable
        # directory is on the spine. Shard the complete enumeration as
        # single-directory units instead of giving up — small-but-wide
        # trees still parallelise.
        groups = [
            [(path, False, _unit_weight(metas.get(path)))] for path in spine
        ]
        spine_rides_along = False
    if len(groups) < 2:
        return None

    # LPT greedy pack: heaviest group onto the lightest shard.
    nbins = min(processes, len(groups))
    shards = [Shard() for _ in range(nbins)]
    for g in sorted(groups, key=lambda g: -sum(w for _, _, w in g)):
        bin_ = min(shards, key=lambda s: s.weight)
        bin_.units.extend((path, rec) for path, rec, _ in g)
        bin_.weight += sum(w for _, _, w in g)
    if spine_rides_along:
        # Expanded directories ride along as single-directory units.
        for path in spine:
            bin_ = min(shards, key=lambda s: s.weight)
            bin_.units.append((path, False))
            bin_.weight += 1
    for shard in shards:
        shard.units.sort()
    return ShardPlan(
        shards=shards,
        spine=spine,
        frontier=sorted(frontier),
        start_depth=start_depth,
    )


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
    #: test hook, called with worker_id before any work (picklable
    #: module-level function; crash tests kill the process here)
    worker_init: Callable[[int], None] | None = None


@dataclass
class _WorkerResult:
    """What comes back through the result file."""

    worker_id: int
    rows: list[tuple]
    counters: dict[str, int]
    stage_seconds: dict[str, float] | None
    walk_processed: int
    walk_errored: int
    elapsed: float
    metrics: dict | None
    error: str | None


_COUNTER_FIELDS = (
    "dirs_visited",
    "dirs_denied",
    "dbs_opened",
    "dirs_errored",
    "dirs_pruned_by_plan",
    "attaches_elided",
)


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
            error=None,
        )
    except BaseException:
        payload = _WorkerResult(
            worker_id=task.worker_id,
            rows=[],
            counters={},
            stage_seconds=None,
            walk_processed=0,
            walk_errored=0,
            elapsed=0.0,
            metrics=None,
            error=traceback.format_exc(),
        )
    tmp = task.result_path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh)
    os.replace(tmp, task.result_path)


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

    def __init__(
        self,
        engine: QueryEngine,
        processes: int,
        mp_start_method: str | None = None,
        overshard: int = 4,
        max_levels: int = 4,
    ) -> None:
        self.engine = engine
        self.processes = max(2, int(processes))
        self.mp_start_method = mp_start_method
        self.overshard = overshard
        self.max_levels = max_levels
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
    ) -> QueryResult:
        engine = self.engine
        sink = engine._default_sink(spec) if sink is None else sink
        sink._claim()
        return engine._observed(
            "query.run",
            spec,
            start,
            lambda otr: self._run_impl(spec, start, plan, sink, otr),
        )

    def _run_impl(
        self,
        spec: QuerySpec,
        start: str,
        plan: QueryPlan | None,
        sink: ResultSink,
        otr: Any,
    ) -> QueryResult:
        global _FORK_INDEX
        engine = self.engine
        t0 = time.monotonic()
        start = normalize_path(start)
        start_depth = path_depth(start)
        trav = Traversal(engine.index, engine.creds, spec, plan, start_depth)
        trav.check_root_reachable(start)
        if not engine.index.db_path(start).exists():
            raise FileNotFoundError(f"no index directory for {start!r}")

        shard_plan = plan_shards(
            engine.index,
            trav,
            spec,
            start,
            start_depth,
            self.processes,
            overshard=self.overshard,
            max_levels=self.max_levels,
        )
        if shard_plan is None:
            # Tree too narrow to shard: run single-process, same sink.
            return engine._run_impl(spec, start, True, plan, sink, otr)
        shards = shard_plan.shards

        timing = obs.metrics().enabled
        worker_spec = replace(spec, G=None, output_prefix=None)
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
                worker_init=self.worker_init,
            )
            for wid, shard in enumerate(shards)
        ]

        ctx = mp.get_context(self.mp_start_method)
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
                try:
                    os.unlink(task.result_path)
                except OSError:
                    pass
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

        g_rows, g_time = self._fold_aggregates(spec, tasks, results)

        # Gather rows through the caller's sink, via one parent state.
        clean = [r for r in results if r is not None and r.error is None]
        st = engine.pool.acquire(spec.I, sink.thread_output_path(0))
        output_files: list[str] = []
        try:
            for res in clean:
                if res.rows:
                    sink.emit(st, res.rows)
            if g_rows:
                sink.emit_final(g_rows)
            summary = sink.finish([st])
        finally:
            out_path = st.finish_output()
            if out_path is not None:
                output_files.append(out_path)
            engine.pool.release([st])

        if worker_error is not None:
            wid, text = worker_error
            raise RuntimeError(
                f"query failed in scatter worker {wid}:\n{text}"
            )

        def total(name: str) -> int:
            return sum(r.counters.get(name, 0) for r in clean)

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
            dirs_visited=total("dirs_visited"),
            dirs_denied=total("dirs_denied"),
            dbs_opened=total("dbs_opened"),
            dirs_errored=total("dirs_errored") + crashed_units,
            dirs_pruned_by_plan=total("dirs_pruned_by_plan"),
            attaches_elided=total("attaches_elided"),
            output_files=sorted(output_files) if output_files else None,
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
        exactly once against it. Returns (G rows, G seconds)."""
        engine = self.engine
        worker_aggs = [t.agg_path for t in tasks if t.agg_path is not None]
        if not (spec.J or spec.G):
            return [], 0.0
        g_rows: list[tuple] = []
        g_time = 0.0
        try:
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
                    conn.execute(
                        "ATTACH DATABASE ? AS worker", (task.agg_path,)
                    )
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
                    register(conn, QueryContext(users=engine.pool.users))
                    g_rows = run_sql(conn, spec.G, 0)
                    g_time = time.perf_counter() - gb
            finally:
                conn.close()
        finally:
            for path in worker_aggs:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return g_rows, g_time
