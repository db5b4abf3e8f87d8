"""Tests for the parallel query engine: permission gating, the four
paper queries, aggregation plumbing (I/S/E/J/G), SQL helper functions,
T-pruning, tracing, and error paths."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.core.engine import QueryEngine, ThreadFileSink
from repro.core.plan import QueryPlan
from repro.core.query import (
    Q1_LIST_NAMES,
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QueryPermissionError,
    QuerySpec,
)
from repro.core.session import ThreadStatePool
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.sim.blktrace import IOTracer
from tests.conftest import ALICE, BOB, CAROL_IN_PROJ, NTHREADS


def ground_truth_visible(tree, creds):
    """Entries a POSIX-correct metadata search shows ``creds``: the
    entries of every directory that is readable and whose ancestors
    (and itself) are searchable."""
    out = []
    stack = ["/"]
    while stack:
        d = stack.pop()
        ino = tree.get_inode(d)
        from repro.fs.permissions import can_read_dir, can_search_dir

        if not can_search_dir(ino.mode, ino.uid, ino.gid, creds):
            continue
        if not can_read_dir(ino.mode, ino.uid, ino.gid, creds):
            continue
        for e in tree.readdir(d):
            child = f"{d.rstrip('/')}/{e.name}"
            if e.ftype.value == "d":
                stack.append(child)
            else:
                out.append(child)
    return sorted(out)


class TestRootQueries:
    def test_q1_lists_everything(self, demo_tree, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        result = q.run(Q1_LIST_PATHS)
        assert sorted(r[0] for r in result.rows) == ground_truth_visible(
            demo_tree, Credentials(uid=0, gid=0)
        )

    def test_q2_all_dirs(self, demo_tree, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        result = q.run(Q2_DIR_SIZES)
        assert len(result.rows) == demo_tree.num_dirs
        paths = sorted(r[0] for r in result.rows)
        assert "/home/alice" in paths and "/" in paths

    def test_q3_total_size(self, demo_tree, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        result = q.run(Q3_DU_SUMMARIES)
        expected = sum(
            i.size for _, i in demo_tree.iter_inodes()
            if i.ftype.value != "d"
        )
        assert result.rows[-1][0] == pytest.approx(expected)

    def test_q4_single_db(self, demo_index):
        build_tsummary(demo_index, "/")
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        result = q.run(Q4_DU_TSUMMARY)
        assert result.dirs_visited == 1
        assert result.rows

    def test_q4_equals_q3(self, demo_index):
        build_tsummary(demo_index, "/")
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        r3 = q.run(Q3_DU_SUMMARIES)
        r4 = q.run(Q4_DU_TSUMMARY)
        assert r4.rows[0][0] == pytest.approx(r3.rows[-1][0])


class TestPermissionGating:
    def test_user_sees_only_accessible(self, demo_tree, demo_index):
        for creds in (ALICE, BOB, CAROL_IN_PROJ):
            q = QueryEngine(demo_index, creds=creds, nthreads=NTHREADS)
            got = sorted(r[0] for r in q.run(Q1_LIST_PATHS).rows)
            assert got == ground_truth_visible(demo_tree, creds), creds

    def test_alice_blocked_from_bob_secret(self, demo_index):
        q = QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/home/bob/b.txt" in rows  # bob's home is world-readable
        assert not any("secret" in r for r in rows)

    def test_group_access(self, demo_index):
        q = QueryEngine(demo_index, creds=CAROL_IN_PROJ, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/proj/shared/p.c" in rows
        assert "/proj/shared/data/d.h5" in rows
        assert not any(r.startswith("/home/alice") for r in rows)

    def test_xonly_dir_not_listed(self, demo_index):
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert not any("hidden" in r for r in rows)

    def test_denied_counted(self, demo_index):
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        result = q.run(Q1_LIST_PATHS)
        assert result.dirs_denied >= 2  # alice home, ronly/xonly...

    def test_start_inside_denied_tree_raises(self, demo_index):
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        with pytest.raises(QueryPermissionError):
            q.run(Q1_LIST_PATHS, start="/home/alice/sub")

    def test_start_below_xonly_allowed_for_searchers(self, demo_index):
        # /public/xonly is 0711: bob may use it as a path component,
        # and the root itself must then be readable... it isn't a dir
        # with a db below, so query the xonly dir itself: r missing ->
        # denied to process.
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        result = q.run(Q1_LIST_PATHS, start="/public/xonly")
        assert result.rows == []
        assert result.dirs_denied == 1

    def test_missing_start_raises(self, demo_index):
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        with pytest.raises(FileNotFoundError):
            q.run(Q1_LIST_NAMES, start="/nope")

    def test_user_cost_proportional(self, demo_index):
        root_visited = QueryEngine(demo_index, nthreads=NTHREADS).run(
            Q1_LIST_NAMES
        ).dirs_visited
        bob_visited = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS).run(
            Q1_LIST_NAMES
        ).dirs_visited
        assert bob_visited < root_visited


class TestAggregation:
    def test_i_j_g_pipeline(self, demo_index):
        spec = QuerySpec(
            I="CREATE TABLE counts (n INTEGER)",
            E="INSERT INTO counts SELECT COUNT(*) FROM pentries",
            J="INSERT INTO aggregate.counts SELECT TOTAL(n) FROM counts",
            G="SELECT TOTAL(n) FROM counts",
        )
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec)
        total = QueryEngine(demo_index, nthreads=NTHREADS).run(Q1_LIST_NAMES)
        assert result.rows[-1][0] == len(total.rows)

    def test_group_by_merge(self, demo_index):
        spec = QuerySpec(
            I="CREATE TABLE usage (uid INTEGER, bytes INTEGER)",
            E="INSERT INTO usage SELECT uid, TOTAL(size) FROM pentries GROUP BY uid",
            J="INSERT INTO aggregate.usage SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid",
            G="SELECT uid, TOTAL(bytes) FROM usage GROUP BY uid ORDER BY uid",
        )
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec)
        by_uid = {int(u): b for u, b in result.rows}
        assert by_uid[1001] == 100 + 250 + 700  # alice's files
        assert by_uid[1002] == 300 + 50

    def test_g_without_j(self, demo_index):
        # G alone runs against an (empty) aggregate built from I
        spec = QuerySpec(
            I="CREATE TABLE t (x INTEGER)",
            G="SELECT COUNT(*) FROM t",
        )
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec)
        assert result.rows[-1] == (0,)


class TestSqlFuncs:
    def test_path_function(self, demo_index):
        spec = QuerySpec(S="SELECT path(), level() FROM summary")
        rows = QueryEngine(demo_index, nthreads=NTHREADS).run(spec, "/home").rows
        paths = {r[0]: r[1] for r in rows}
        assert paths["/home"] == 1
        assert paths["/home/alice"] == 2

    def test_uidtouser(self, demo_index):
        q = QueryEngine(
            demo_index, nthreads=NTHREADS,
            pool=ThreadStatePool(users={1001: "alice"}),
        )
        spec = QuerySpec(E="SELECT uidtouser(uid) FROM pentries")
        rows = q.run(spec, "/home/alice").rows
        assert ("alice",) in rows

    def test_basename(self, demo_index):
        spec = QuerySpec(S="SELECT basename(path()) FROM summary")
        rows = QueryEngine(demo_index, nthreads=NTHREADS).run(spec, "/home/bob").rows
        assert ("bob",) in rows

    def test_rpath_at_root(self, demo_index):
        spec = QuerySpec(E="SELECT rpath(dname, d_isroot, name) FROM vrpentries")
        rows = QueryEngine(demo_index, nthreads=NTHREADS).run(spec, "/").rows
        assert all(r[0].startswith("/") and "//" not in r[0] for r in rows)


class TestTPruning:
    def test_t_prunes_descent(self, demo_index):
        build_tsummary(demo_index, "/home")
        spec = QuerySpec(
            T="SELECT totfiles FROM tsummary WHERE rectype = 0",
            E="SELECT name FROM pentries",
        )
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        result = q.run(spec, "/home")
        assert result.dirs_visited == 1
        # tsummary row only; no entry rows from below
        assert len(result.rows) == 1

    def test_t_no_prune(self, demo_index):
        build_tsummary(demo_index, "/home")
        spec = QuerySpec(
            T="SELECT totfiles FROM tsummary WHERE rectype = 0",
            t_no_prune=True,
        )
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec, "/home")
        assert result.dirs_visited > 1

    def test_t_descends_when_absent(self, demo_index):
        spec = QuerySpec(T="SELECT totfiles FROM tsummary")
        result = QueryEngine(demo_index, nthreads=NTHREADS).run(spec, "/home")
        assert result.dirs_visited > 1
        assert result.rows == []


class TestTracing:
    def test_tracer_counts_permitted_only(self, demo_index):
        tr_root = IOTracer()
        QueryEngine(demo_index, nthreads=NTHREADS, tracer=tr_root).run(Q1_LIST_NAMES)
        tr_bob = IOTracer()
        QueryEngine(
            demo_index, creds=BOB, nthreads=NTHREADS, tracer=tr_bob
        ).run(Q1_LIST_NAMES)
        assert tr_bob.num_reads < tr_root.num_reads
        assert tr_bob.total_bytes < tr_root.total_bytes


class TestRunSingle:
    def test_single_dir(self, demo_index):
        spec = QuerySpec(E="SELECT name FROM entries ORDER BY name")
        result = QueryEngine(demo_index, nthreads=NTHREADS).run_single(
            spec, "/home/bob"
        )
        assert [r[0] for r in result.rows] == ["b.txt"]
        assert result.dirs_visited == 1

    def test_single_denied(self, demo_index):
        with pytest.raises(QueryPermissionError):
            QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS).run_single(
                QuerySpec(E="SELECT name FROM entries"), "/home/alice"
            )

    def test_bad_sql_raises(self, demo_index):
        """The error surfaces as itself, and the checked-out state
        goes back to the pool — a server must not leak a connection
        per bad ``ls``."""
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            for _ in range(3):
                with pytest.raises(sqlite3.OperationalError):
                    q.run_single(QuerySpec(E="SELECT nonsense FROM nowhere"), "/")
            assert len(q.pool._free) == q.pool.created == 1
            again = q.run_single(QuerySpec(E="SELECT name FROM entries"), "/public")
            assert again.rows and q.pool.created == 1

    def test_merge_phase_runs(self, demo_index):
        """One directory of ``run`` has a merge phase, so ``J``/``G``
        produce the directory's total."""
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            single = q.run_single(Q3_DU_SUMMARIES, "/home/bob")
            walked = q.run(
                Q3_DU_SUMMARIES,
                "/home/bob",
                plan=QueryPlan(max_level=0, entries_shaped=False),
            )
        assert single.rows == walked.rows
        assert single.scalar() > 0

    def test_output_prefix_streams_to_files(self, demo_index, tmp_path):
        spec = QuerySpec(E="SELECT name FROM entries")
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            result = q.run_single(
                spec, "/home/bob", sink=ThreadFileSink(str(tmp_path / "o"))
            )
        assert result.rows == []
        assert result.output_files == [str(tmp_path / "o.0")]
        assert (tmp_path / "o.0").read_text() == "b.txt\n"

    def test_starts_no_thread(self, demo_index, monkeypatch):
        """The single directory runs on the calling thread."""

        def no_threads(self):
            raise AssertionError("run_single started a thread")

        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            monkeypatch.setattr(threading.Thread, "start", no_threads)
            rows = q.run_single(
                QuerySpec(E="SELECT name FROM entries"), "/home/bob"
            ).rows
        assert rows == [("b.txt",)]

    def test_bad_sql_in_run_raises(self, demo_index):
        with pytest.raises(RuntimeError):
            QueryEngine(demo_index, nthreads=NTHREADS).run(
                QuerySpec(E="SELECT nonsense FROM nowhere")
            )
