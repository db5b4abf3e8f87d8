"""Tests for the persistent query session layer: thread-state pool
reuse, scratch-schema recycling between runs, warm-equals-cold results,
output-file handling across runs, and server-side session caching."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sqlite3
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.core.engine import (
    MemorySink,
    MergeRunner,
    PaginatedSink,
    QueryEngine,
    ResultCache,
    ThreadFileSink,
)
from repro.core.query import (
    Q1_LIST_PATHS,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QuerySpec,
)
from repro.core.index import GUFIIndex
from repro.core.plan import QueryPlan
from repro.core.rollup import rollup
from repro.core.server import GUFIServer, IdentityProvider
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import ROOT
from repro.store import connect
from tests.conftest import ALICE, BOB, NTHREADS


class TestPoolReuse:
    def test_connections_survive_across_runs(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        first = sorted(q.run(Q1_LIST_PATHS).rows)
        # States are checked out lazily, one per worker thread that
        # gets work: a walk one thread finishes alone creates one state
        # and a later walk the next. Warm up until the pool is full.
        for _ in range(50):
            if q.pool.created == NTHREADS:
                break
            q.run(Q1_LIST_PATHS)
        warm, reused = q.pool.created, q.pool.reused
        assert warm >= 1
        for _ in range(5):
            assert sorted(q.run(Q1_LIST_PATHS).rows) == first
        # warm runs check states out of the free list: never more
        # connections or scratch databases than worker threads
        assert warm <= q.pool.created <= NTHREADS
        assert q.pool.reused > reused
        q.close()

    def test_scratch_tables_recycled_same_spec(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        totals = {q.run(Q3_DU_SUMMARIES).rows[-1][0] for _ in range(4)}
        # stale scratch rows from a previous run would inflate the sum
        assert len(totals) == 1
        q.close()

    def test_scratch_schema_swapped_between_different_specs(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        a = QuerySpec(
            I="CREATE TABLE t_a (n INTEGER)",
            E="INSERT INTO t_a SELECT COUNT(*) FROM pentries",
            J="INSERT INTO aggregate.t_a SELECT TOTAL(n) FROM t_a",
            G="SELECT TOTAL(n) FROM t_a",
        )
        b = QuerySpec(
            I="CREATE TABLE t_b (x TEXT)",
            E="INSERT INTO t_b SELECT name FROM pentries",
            J="INSERT INTO aggregate.t_b SELECT x FROM t_b",
            G="SELECT COUNT(*) FROM t_b",
        )
        na = q.run(a).rows[-1][0]
        nb = q.run(b).rows[-1][0]
        assert na == nb == 9  # all demo entries
        # and back again: t_b must be gone, t_a recreated fresh
        assert q.run(a).rows[-1][0] == 9
        q.close()

    def test_interleaved_i_and_no_i_specs(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        with_i = q.run(Q3_DU_SUMMARIES).rows[-1][0]
        assert q.run(Q1_LIST_PATHS).rows  # no I: scratch dropped
        assert q.run(Q3_DU_SUMMARIES).rows[-1][0] == with_i
        q.close()

    def test_close_is_idempotent_and_frees_tmpdir(self, demo_index):
        """A single-process engine never had a directory; a
        ``processes=2`` engine's hand-off directory is gone after
        ``close()``."""
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        q.run(Q3_DU_SUMMARIES)
        assert not hasattr(q.pool, "tmpdir") and q._scatter_engine is None
        q.close()
        q.close()
        q = QueryEngine(demo_index, nthreads=NTHREADS, processes=2)
        q.run(Q3_DU_SUMMARIES)
        tmpdir = q._scatter_engine._handoff_dir
        # every hand-off file is deleted as the parent reads it
        assert os.path.isdir(tmpdir) and os.listdir(tmpdir) == []
        q.close()
        q.close()
        assert not os.path.exists(tmpdir)

    def test_run_after_close_raises(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        q.run(Q1_LIST_PATHS)
        q.close()
        with pytest.raises(RuntimeError):
            q.run(Q1_LIST_PATHS)

    def test_failed_run_does_not_poison_session(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        good = sorted(q.run(Q1_LIST_PATHS).rows)
        with pytest.raises(RuntimeError):
            q.run(QuerySpec(E="SELECT nonsense FROM nowhere"))
        assert sorted(q.run(Q1_LIST_PATHS).rows) == good
        q.close()

    def test_stale_attaches_are_detached_at_checkout(self, demo_index):
        """A state parked with a stale ``gufi`` *and* a stale
        ``aggregate`` attached is checked out clean: both gone (either
        would shadow the run's own), the next run's rows right."""
        with QueryEngine(demo_index, nthreads=1) as q:
            want = q.run(Q3_DU_SUMMARIES).rows
            (st,) = q.pool._all
            connect.attach_ro(st.conn, str(demo_index.db_path("/home/bob")), "gufi")
            st.conn.execute(
                "ATTACH DATABASE 'file:stale?mode=memory&cache=shared' AS aggregate"
            )
            st.conn.execute("CREATE TABLE aggregate.sizes (total_size INTEGER)")
            st.conn.execute("INSERT INTO aggregate.sizes VALUES (1000000)")
            assert q.run(Q3_DU_SUMMARIES).rows == want
            assert q.pool._all == [st]
            assert attached(st) == ["main"]

    def test_run_single_reuses_pool_and_times_itself(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        spec = QuerySpec(E="SELECT name FROM entries ORDER BY name")
        r1 = q.run_single(spec, "/home/bob")
        created = q.pool.created
        r2 = q.run_single(spec, "/home/bob")
        assert r1.rows == r2.rows == [("b.txt",)]
        assert q.pool.created == created
        # the satellite bugfix: elapsed is measured, not hardcoded 0.0
        assert r1.elapsed > 0.0 and r2.elapsed > 0.0
        q.close()


def attached(st) -> list[str]:
    """The aliases a pooled connection has attached (``main`` included)."""
    return [alias for _seq, alias, _file in st.conn.execute("PRAGMA database_list")]


#: scratch table, per-directory rows and a J/G total, all in one spec
ROWS_AND_TOTAL = QuerySpec(
    I="CREATE TABLE t (n INTEGER)",
    S="INSERT INTO t SELECT COUNT(*) FROM pentries",
    E="SELECT name, size FROM pentries",
    J="INSERT INTO aggregate.t SELECT TOTAL(n) FROM t",
    G="SELECT TOTAL(n) FROM t",
)
#: same table name, another shape: a stale ``t`` cannot serve it
NAMES_AND_COUNT = QuerySpec(
    I="CREATE TABLE t (x TEXT, y TEXT)",
    E="INSERT INTO t SELECT name, name FROM pentries",
    J="INSERT INTO aggregate.t SELECT x, y FROM t",
    G="SELECT COUNT(*) FROM t",
)


class TestStatementBudget:
    """A cold directory costs four SQLite statements on its worker
    connection — ATTACH, one metadata read, the stage SQL, DETACH —
    and a warm one three. ATTACH and DETACH expire SQLite's statement
    cache, so every extra statement is a re-parse per directory.
    A result-cache replay executes no stage, so it costs none at all."""

    @staticmethod
    def traced(index, log: list[str]) -> QueryEngine:
        """An engine whose worker connections log every statement they
        run between checkout and release (the pool's own housekeeping
        is per run, not per directory)."""
        q = QueryEngine(index, nthreads=NTHREADS)
        acquire, release = q.pool.acquire, q.pool.release

        def traced_acquire(*args):
            st = acquire(*args)
            st.conn.set_trace_callback(log.append)
            return st

        def untraced_release(states):
            for st in states:
                st.conn.set_trace_callback(None)
            release(states)

        q.pool.acquire, q.pool.release = traced_acquire, untraced_release
        return q

    def test_cold_is_4n_and_warm_is_3n(self, demo_index):
        log: list[str] = []
        q = self.traced(demo_index, log)
        for warm in (False, True):
            del log[:]
            result = q.run(Q1_LIST_PATHS)
            n = result.dirs_visited
            assert n == result.dbs_opened == demo_index.count_dbs()
            verbs = sorted(sql.split()[0] for sql in log)
            expected = ["ATTACH"] * n + ["DETACH"] * n
            expected += ["SELECT"] * (n if warm else 2 * n)
            assert verbs == expected, log
        q.close()

    def test_a_fresh_state_is_an_in_memory_database_and_runs_no_pragma(
        self, demo_index, monkeypatch
    ):
        """Every statement a pooled connection runs from ``connect`` on:
        a fresh state is ``file::memory:`` with nothing to configure
        and nothing stale to look for (one ``sqlite_master`` read finds
        nothing to drop before ``I``); a reused one asks once what is
        attached (and raises nothing: no failing ``DETACH``). Per cold
        directory Q3 is ATTACH, the metadata read, ``S``, ``E``,
        DETACH; per state ``I``'s table, and ``J`` between the
        aggregate's ATTACH and DETACH."""
        log: list[str] = []
        opened: list[str] = []

        class Traced:
            """``sqlite3`` as the session module sees it."""

            def __getattr__(self, name):
                return getattr(sqlite3, name)

            @staticmethod
            def connect(database, **kwargs):
                opened.append(database)
                conn = sqlite3.connect(database, **kwargs)
                conn.set_trace_callback(log.append)
                return conn

        monkeypatch.setattr("repro.core.session.sqlite3", Traced())
        n = demo_index.count_dbs()
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            for run in range(3):
                del log[:]
                created, reused = q.pool.created, q.pool.reused
                result = q.run(Q3_DU_SUMMARIES)
                assert result.dbs_opened == n
                fresh = q.pool.created - created
                parked = q.pool.reused - reused
                states = fresh + parked
                assert states >= 1 and (parked == 0 if run == 0 else parked >= 1)
                verbs = sorted(sql.split()[0] for sql in log)
                assert verbs == sorted(
                    ["ATTACH", "DETACH"] * (n + states)
                    + ["SELECT"] * (n if run == 0 else 0)
                    + ["INSERT"] * (2 * n + states)
                    + ["SELECT", "CREATE"] * fresh
                    + ["PRAGMA", "SELECT", "DELETE"] * parked
                ), log
                assert [s for s in log if s.startswith("PRAGMA")] == (
                    ["PRAGMA database_list"] * parked
                )
        assert opened == ["file::memory:"] * q.pool.created

    #: what only the full metadata statement names
    BOUNDS = ("totfiles", "minsize", "maxmtime", "maxgid", "sqlite_master")

    @pytest.mark.parametrize("shape", ["lean", "plan", "window", "T"])
    def test_the_metadata_read_asks_what_the_run_can_use(self, demo_index, shape):
        """Cold is four statements per directory in either shape of the
        metadata ``SELECT``: seven own-record columns when the run has
        no plan and no ``T`` stage to read bounds or the tree-summary
        bit, the full statement when it has either (a depth-window-only
        plan included)."""
        spec, plan = {
            "lean": (Q1_LIST_PATHS, None),
            "plan": (Q1_LIST_PATHS, QueryPlan(min_size=1)),
            "window": (Q1_LIST_PATHS, QueryPlan(min_level=0, entries_shaped=False)),
            "T": (QuerySpec(T="SELECT totsize FROM tsummary", E=Q1_LIST_PATHS.E,
                            t_no_prune=True), None),
        }[shape]
        log: list[str] = []
        with self.traced(demo_index, log) as q:
            result = q.run(spec, plan=plan)
        n = demo_index.count_dbs()
        assert result.dirs_visited == result.dbs_opened == n
        # (the stats gate drops ``E`` where the bounds show no entry)
        assert (result.dirs_pruned_by_plan > 0) == (shape == "plan")
        assert sorted(sql.split()[0] for sql in log) == (
            ["ATTACH"] * n + ["DETACH"] * n
            + ["SELECT"] * (2 * n - result.dirs_pruned_by_plan)
        ), log
        meta = [sql for sql in log if "gufi.summary" in sql]
        assert len(meta) == n and len(set(meta)) == 1
        named = [word for word in self.BOUNDS if word in meta[0]]
        assert named == ([] if shape == "lean" else list(self.BOUNDS)), meta[0]
        assert ("isroot = 1" in meta[0]) == (shape == "lean")
        cached = [m for _stamp, m in demo_index.cache._meta.values()]
        assert len(cached) == n
        assert all(m.lean == (shape == "lean") for m in cached)

    @pytest.mark.parametrize("shape", ["memory", "paginated", "files"])
    def test_replay_issues_no_statement(self, demo_index, tmp_path, shape):
        def sink(tag):
            if shape == "files":
                return ThreadFileSink(str(tmp_path / tag))
            return MemorySink() if shape == "memory" else PaginatedSink(4)

        def lines(result):
            return sorted(
                ln for p in result.output_files or () for ln in open(p)
            )

        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=ResultCache()
        ) as q:
            live = q.run(ROWS_AND_TOTAL, sink=sink("live"))
            assert not live.cached and q.pool._all
            log: list[str] = []
            # every pooled connection, from before the checkout to
            # after the release: the replay's whole stay in the pool
            for st in q.pool._all:
                st.conn.set_trace_callback(log.append)
            replay = q.run(ROWS_AND_TOTAL, sink=sink("replay"))
            for st in q.pool._all:
                st.conn.set_trace_callback(None)
        assert replay.cached
        assert log == []
        assert sorted(replay.rows, key=repr) == sorted(live.rows, key=repr)
        assert lines(replay) == lines(live)
        assert bool(lines(live)) == (shape == "files")

    def test_real_run_after_replay_prepares_in_full(self, demo_index):
        """A replay leaves the state's scratch schema, its stale rows
        and the record of which ``I`` built it as it found them; the
        next run that executes stages must still get a clean schema of
        its own ``I`` — whether that is the ``I`` just replayed (over a
        state holding the other one) or a different one."""
        with QueryEngine(demo_index, nthreads=NTHREADS) as cold:
            want = {
                (spec.G, start): sorted(cold.run(spec, start).rows, key=repr)
                for spec in (ROWS_AND_TOTAL, NAMES_AND_COUNT)
                for start in ("/", "/home")
            }
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=ResultCache()
        ) as q:
            def run(spec, start, cached):
                result = q.run(spec, start)
                assert result.cached is cached
                assert sorted(result.rows, key=repr) == want[spec.G, start]

            run(ROWS_AND_TOTAL, "/", False)
            run(NAMES_AND_COUNT, "/", False)  # states now hold its ``t``
            run(ROWS_AND_TOTAL, "/", True)  # replayed over them
            run(ROWS_AND_TOTAL, "/home", False)  # same I as the replay
            run(ROWS_AND_TOTAL, "/", True)
            run(NAMES_AND_COUNT, "/home", False)  # a different I
            run(NAMES_AND_COUNT, "/", True)
            run(NAMES_AND_COUNT, "/home", True)
            run(ROWS_AND_TOTAL, "/home", True)


class TestLeanThenFull:
    """A plan-less, ``T``-less walk leaves *lean* records behind —
    permission bits, no bounds, tree-summary bit unknown. Whatever
    reads bounds or that bit afterwards, on the same handle, must get
    what a fresh handle gets: a lean record answers no such lookup."""

    BIG = FindFilters(min_size=500)

    @pytest.fixture(params=["flat", "rolled"])
    def index(self, request, demo_index):
        if request.param == "rolled":
            rollup(demo_index, nthreads=NTHREADS)
        build_tsummary(demo_index, "/home")
        return GUFIIndex.open(demo_index.root)

    @pytest.mark.parametrize("creds", [ROOT, ALICE, BOB], ids=["root", "alice", "bob"])
    def test_one_handle_in_sequence(self, index, creds):
        def find(tools):
            return tools.find("/", self.BIG)

        steps = [
            ("q1", lambda tools: tools.engine.run(Q1_LIST_PATHS)),
            ("find", find),
            ("du", lambda tools: tools.du("/", use_tsummary=True)),
            # T alone: it prunes at /home only if the bit is known there
            ("q4", lambda tools: tools.engine.run(Q4_DU_TSUMMARY)),
            ("find again", find),
        ]
        seen = {}
        with GUFITools(index, creds, nthreads=1) as tools:
            for name, step in steps:
                misses = index.cache.meta_misses
                got = step(tools)
                # the oracle: the same step on a handle that holds nothing
                with GUFITools(
                    GUFIIndex.open(index.root), creds, nthreads=1
                ) as fresh:
                    want = step(fresh)
                if name == "du":
                    assert got == want
                    continue
                assert got.rows == want.rows, name
                assert (got.dirs_visited, got.dirs_denied) == (
                    want.dirs_visited, want.dirs_denied), name
                seen[name] = got, index.cache.meta_misses - misses
        q1, q1_misses = seen["q1"]
        first, first_misses = seen["find"]
        again, again_misses = seen["find again"]
        touched = q1.dirs_visited + q1.dirs_denied
        assert q1_misses == touched
        # the planned run found a record everywhere and used none: every
        # database it may read is opened, nothing is elided
        assert first.attaches_elided == 0
        assert first.dbs_opened == first.dirs_visited == q1.dirs_visited
        assert first_misses == touched
        # ... and left full records: the same run again decides from them
        assert again.attaches_elided > 0 and again_misses == 0
        assert again.dbs_opened == first.dbs_opened - again.attaches_elided

    def test_cached_dir_meta_never_returns_a_lean_record(self, index):
        with QueryEngine(index, nthreads=NTHREADS) as q:
            q.run(Q1_LIST_PATHS)
        paths = list(index.cache._meta)
        assert "/home" in paths
        assert all(m.lean for _stamp, m in index.cache._meta.values())
        fresh = GUFIIndex.open(index.root)
        hits = index.cache.meta_hits
        for path in paths:
            meta = index.cached_dir_meta(path)
            assert not meta.lean and meta == fresh.dir_meta(path)
            assert meta.tsummary == (path == "/home")
        assert index.cache.meta_hits == hits  # every one a miss, re-read
        # and a lean walk afterwards is served by the full records
        misses = index.cache.meta_misses
        with QueryEngine(index, nthreads=NTHREADS) as q:
            q.run(Q1_LIST_PATHS)
        assert index.cache.meta_misses == misses
        assert not any(m.lean for _stamp, m in index.cache._meta.values())

    def test_a_lean_record_does_not_displace_a_full_one(self, index):
        full = index.dir_meta("/home")
        stamp = index.cache.peek_stamp("/home")
        lean = dataclasses.replace(full, stats=None, tsummary=None)
        index.cache.put_meta("/home", stamp, lean)
        assert index.cached_dir_meta("/home") is full
        # unless it describes another file: then it is the news
        index.cache.put_meta("/home", (0, 0, 0), lean)
        assert index.cache._meta["/home"][1] is lean

    @pytest.mark.parametrize("plan", [None, QueryPlan()], ids=["lean", "full"])
    @pytest.mark.parametrize("damage", ["garbage", "empty", "no-summary-row"])
    def test_damaged_database_is_counted_in_either_shape(
        self, demo_index, plan, damage
    ):
        db = demo_index.db_path("/home/bob")
        if damage == "garbage":
            db.write_bytes(b"\xde\xad\xbe\xef" * 1000)
        elif damage == "empty":
            db.write_bytes(b"")
        else:
            conn = sqlite3.connect(db)
            conn.execute("DELETE FROM summary WHERE isroot = 1")
            conn.commit()
            conn.close()
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            walk = q.run(Q1_LIST_PATHS, plan=plan)
            single = q.run_single(Q1_LIST_PATHS, "/home/bob", plan=plan)
        assert (walk.dirs_errored, single.dirs_errored) == (1, 1)
        assert ("/home/alice/a.txt",) in walk.rows and single.rows == []
        assert "/home/bob" not in demo_index.cache._meta


def spy_on_j_stage(monkeypatch, before=lambda: None) -> list[str]:
    """The name of the aggregate each run's ``J`` attaches, recorded
    as it starts (after ``before()``: a place to hold the run)."""
    names: list[str] = []
    j_stage = MergeRunner._j_stage

    def spied(self, states, name):
        names.append(name)
        before()
        j_stage(self, states, name)

    monkeypatch.setattr(MergeRunner, "_j_stage", spied)
    return names


def _refuse_tempfile(*_args, **_kwargs):
    raise AssertionError("a single-process query asked tempfile for a path")


class TestIntermediateDatabasesInMemory:
    """Per-thread scratch and the ``J``/``G`` aggregate are in-memory
    databases: a single-process query makes no directory and no file,
    two runs in flight never share one, and a failing ``J`` leaves
    none behind."""

    Q3_ARGS = [
        arg
        for flag in "ISEJG"
        for arg in (f"-{flag}", getattr(Q3_DU_SUMMARIES, flag))
    ]

    @pytest.fixture(params=["flat", "rolled"])
    def index(self, request, demo_index):
        if request.param == "rolled":
            rollup(demo_index, nthreads=NTHREADS)
        build_tsummary(demo_index, "/")
        return GUFIIndex.open(demo_index.root)

    def everything(self, root: str, creds) -> dict:
        """The aggregate-shaped queries of the CLI and of the tools,
        and a result-cache replay, each on a cold handle."""
        ident = ["--uid", str(creds.uid), "--gid", str(creds.gid)]
        got: dict = {}
        for name, argv in [
            ("q3", ["query", root, "-n", "2", *self.Q3_ARGS]),
            ("find", ["find", root, "-n", "2"]),
            ("du", ["du", root, "-n", "2"]),
            ("du --tsummary", ["du", root, "--tsummary", "-n", "2"]),
        ]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main(argv + ident) == 0
            got[name] = out.getvalue()
        with GUFITools(
            GUFIIndex.open(root), creds, nthreads=NTHREADS,
            result_cache=ResultCache(),
        ) as tools:
            got["space_by_user"] = tools.space_by_user("/")
            got["largest_files"] = tools.largest_files("/")
            live = tools.engine.run(Q3_DU_SUMMARIES)
            replay = tools.engine.run(Q3_DU_SUMMARIES)
            assert not live.cached and replay.cached
            got["replay"] = live.rows, replay.rows
        return got

    @pytest.mark.parametrize("creds", [ROOT, ALICE], ids=["root", "alice"])
    def test_no_temp_directory_and_no_temp_file(self, index, creds, monkeypatch):
        root = str(index.root)
        want = self.everything(root, creds)
        assert float(want["q3"]) == float(want["du"]) > 0
        assert want["replay"][0] == want["replay"][1]
        with monkeypatch.context() as patch:
            patch.setattr(tempfile, "mkdtemp", _refuse_tempfile)
            patch.setattr(tempfile, "mkstemp", _refuse_tempfile)
            assert self.everything(root, creds) == want
            # only rows handed across processes may touch disk
            with QueryEngine(index, nthreads=NTHREADS, processes=2) as q:
                with pytest.raises(AssertionError, match="tempfile"):
                    q.run(Q1_LIST_PATHS)

    def test_two_runs_in_flight_share_nothing(self, demo_index, monkeypatch):
        """Two runs on one pool, both inside ``J`` at the same moment
        (a barrier holds each until the other has its aggregate): same
        table name, different shapes — a shared aggregate or scratch
        table would fail the ``I`` script or mix the rows."""
        with QueryEngine(demo_index, nthreads=NTHREADS) as cold:
            want = [
                sorted(cold.run(spec).rows, key=repr)
                for spec in (ROWS_AND_TOTAL, NAMES_AND_COUNT)
            ]
        barrier = threading.Barrier(2, timeout=60)
        uris = spy_on_j_stage(monkeypatch, before=barrier.wait)
        rounds = 5
        with QueryEngine(demo_index, nthreads=NTHREADS) as q, \
                ThreadPoolExecutor(2) as both:
            for _ in range(rounds):
                runs = [
                    both.submit(q.run, spec)
                    for spec in (ROWS_AND_TOTAL, NAMES_AND_COUNT)
                ]
                got = [sorted(r.result(timeout=120).rows, key=repr) for r in runs]
                assert got == want
            assert q.pool.created <= 2 * NTHREADS
        # the aggregate's name is per run
        assert len(set(uris)) == len(uris) == 2 * rounds
        assert all("mode=memory&cache=shared" in uri for uri in uris)

    def test_a_failing_j_leaves_no_aggregate_behind(self, demo_index, monkeypatch):
        uris = spy_on_j_stage(monkeypatch)
        broken = dataclasses.replace(
            Q3_DU_SUMMARIES, J="INSERT INTO aggregate.nonsense SELECT 1"
        )
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            want = q.run(Q3_DU_SUMMARIES).rows
            with pytest.raises(sqlite3.OperationalError, match="nonsense"):
                q.run(broken)
            assert q.pool._all and len(q.pool._free) == len(q.pool._all)
            assert all(attached(st) == ["main"] for st in q.pool._all)
            # the failed run's aggregate died with its owner connection:
            # its name now opens an empty database
            probe = sqlite3.connect(uris[-1], uri=True)
            try:
                assert probe.execute("SELECT * FROM sqlite_master").fetchall() == []
            finally:
                probe.close()
            assert q.run(Q3_DU_SUMMARIES).rows == want
            with pytest.raises(sqlite3.OperationalError, match="nonsense"):
                q.run(broken)
            assert q.run(Q3_DU_SUMMARIES).rows == want


class TestOutputFilesAcrossRuns:
    def test_same_prefix_truncates_between_runs(self, demo_index, tmp_path):
        spec = QuerySpec(
            E="SELECT rpath(dname, d_isroot, name) FROM vrpentries",
            output_prefix=str(tmp_path / "out"),
        )
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        r1 = q.run(spec)
        lines1 = sorted(
            ln for p in r1.output_files for ln in open(p).read().splitlines()
        )
        r2 = q.run(spec)
        lines2 = sorted(
            ln for p in r2.output_files for ln in open(p).read().splitlines()
        )
        # rerun replaces, never appends/duplicates
        assert lines1 == lines2
        q.close()

    def test_output_files_recorded_when_merge_stage_fails(
        self, demo_index, tmp_path
    ):
        """Satellite bugfix: the J stage raising must not lose or leave
        unflushed the per-thread output files."""
        spec = QuerySpec(
            E="SELECT name FROM pentries",
            J="INSERT INTO nonsense_table SELECT 1",
            output_prefix=str(tmp_path / "o"),
        )
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        import sqlite3

        with pytest.raises(sqlite3.Error):
            q.run(spec)
        files = sorted(
            str(tmp_path / f)
            for f in os.listdir(tmp_path)
            if f.startswith("o.")
        )
        assert files  # streamed output exists on disk...
        total = sum(len(open(f).read().splitlines()) for f in files)
        assert total == 9  # ...and is complete (flushed) despite the raise
        q.close()


class TestEngineLifecycle:
    def test_context_manager_runs_and_cleans_up(self, demo_index):
        with QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS) as q:
            rows = q.run(Q1_LIST_PATHS).rows
            assert rows
            states = list(q.pool._all)
            assert states
        assert q.pool._all == []
        for st in states:
            with pytest.raises(sqlite3.ProgrammingError):  # closed
                st.conn.execute("SELECT 1")

    def test_cache_stats_exposed(self, demo_index):
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            q.run(Q1_LIST_PATHS)
            q.run(Q1_LIST_PATHS)
            stats = q.index.cache.stats()
        assert stats["meta_hits"] > 0


def _make_server(index, nthreads=NTHREADS):
    idp = IdentityProvider()
    idp.add_user("alice", uid=ALICE.uid, gid=ALICE.gid)
    idp.add_user("bob", uid=BOB.uid, gid=BOB.gid)
    return GUFIServer(index, idp, nthreads=nthreads)


class TestServerSessions:
    def test_repeat_invocations_reuse_one_session(self, demo_index):
        # one worker thread: states are checked out lazily, so with
        # more a thread that got no work the first time may get some
        # (and its first state) the second
        with _make_server(demo_index, nthreads=1) as server:
            r1 = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            tools = server._sessions[(BOB.uid, BOB.gid, BOB.groups)]
            created = tools.engine.pool.created
            r2 = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            assert sorted(r1.rows) == sorted(r2.rows)
            assert server._sessions[(BOB.uid, BOB.gid, BOB.groups)] is tools
            assert tools.engine.pool.created == created == 1
            assert len(server.audit_log) == 2

    def test_disabled_user_blocked_despite_warm_session(self, demo_index):
        from repro.core.server import AuthenticationError

        with _make_server(demo_index) as server:
            server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            server.identity.disable("bob")
            with pytest.raises(AuthenticationError):
                server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)

    def test_group_change_yields_new_session_with_new_access(self, demo_index):
        with _make_server(demo_index) as server:
            before = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            assert not any("/proj/shared/" in r[0] for r in before.rows)
            # admin adds bob to the project group: next query must see
            # the group area even though a warm session existed
            server.identity.set_groups("bob", frozenset({100}))
            after = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            assert any("/proj/shared/" in r[0] for r in after.rows)

    def test_lru_eviction_closes_sessions(self, demo_index):
        with _make_server(demo_index) as server:
            server.SESSION_CACHE_SIZE = 1
            server.invoke("alice", "query", "/", spec=Q1_LIST_PATHS)
            alice_tools = server._sessions[(ALICE.uid, ALICE.gid, ALICE.groups)]
            server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            assert len(server._sessions) == 1
            with pytest.raises(RuntimeError):
                alice_tools.engine.run(Q1_LIST_PATHS)
