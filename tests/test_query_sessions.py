"""Tests for the persistent query session layer: thread-state pool
reuse, scratch-schema recycling between runs, warm-equals-cold results,
output-file handling across runs, and server-side session caching."""

from __future__ import annotations

import dataclasses
import os
import sqlite3

import pytest

from repro.core.engine import (
    MemorySink,
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
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        q.run(Q1_LIST_PATHS)
        tmpdir = q.pool.tmpdir
        assert os.path.isdir(tmpdir)
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
            tmpdir = q.pool.tmpdir
        assert not os.path.exists(tmpdir)

    def test_cache_stats_exposed(self, demo_index):
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            q.run(Q1_LIST_PATHS)
            q.run(Q1_LIST_PATHS)
            stats = q.index.cache.stats()
        assert stats["meta_hits"] > 0


def _make_server(index):
    idp = IdentityProvider()
    idp.add_user("alice", uid=ALICE.uid, gid=ALICE.gid)
    idp.add_user("bob", uid=BOB.uid, gid=BOB.gid)
    return GUFIServer(index, idp, nthreads=NTHREADS)


class TestServerSessions:
    def test_repeat_invocations_reuse_one_session(self, demo_index):
        with _make_server(demo_index) as server:
            r1 = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            tools = server._sessions[(BOB.uid, BOB.gid, BOB.groups)]
            created = tools.engine.pool.created
            r2 = server.invoke("bob", "query", "/", spec=Q1_LIST_PATHS)
            assert sorted(r1.rows) == sorted(r2.rows)
            assert server._sessions[(BOB.uid, BOB.gid, BOB.groups)] is tools
            assert tools.engine.pool.created == created
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
