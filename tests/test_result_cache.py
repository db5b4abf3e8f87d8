"""Materialized query-result cache (ISSUE 8 tentpole).

The contract under test: a :class:`~repro.core.engine.ResultCache`
replay must be **observably identical** to a cold traversal, at every
point of an arbitrary interleaving of namespace mutations, changefeed
applies, and queries — no stale reads, no permission leakage across
credential keys — while actually being a cache (second run of a hot
query replays instead of walking).

Layout:

* ``TestCacheBasics`` — hit/miss/replay mechanics, counters, spec
  normalization, sink variants.
* ``TestRunSingle`` — a one-directory run (``ls``/``stat``) replays an
  entry of its own, byte-identical, and never stores a denied
  directory.
* ``TestInvalidation`` — push invalidation precision, stamp-pass
  validation, changefeed semantics (unapplied events must *not*
  invalidate: the index is unchanged).
* ``TestHitBudget`` / ``TestFreshnessMatrix`` — a hit costs exactly
  the stats its token needs (one, the root's, while the write clock's
  watch is armed), and the clock and those stats still catch every
  kind of out-of-band change from every kind of start, made by this
  process or another one, armed or not.
* ``TestWatchedWalkBudget`` — on an armed handle a warm walk stats
  the root once and each database it attaches, nothing else; a warm
  tree-summary build stats no clean directory; a write drained
  mid-check, a republish after the drain, a ``processes=2`` run and a
  forked child never turn a stale record into a stat-free one.
* ``TestWriteClock`` — the inotify watch follows the tree's shape
  (moves, new directories), gives up where it cannot vouch (a
  re-pointed root, a forked child, a failed re-arm), and survives
  queue overflow.
* ``TestCredentialScoping`` — no replay across principals, per-scope
  budgets.
* ``TestBounds`` — LRU byte/entry budgets, oversized-entry refusal.
* ``TestWhereACacheAttaches`` — only to a single-process, untraced
  engine.
* ``TestMetricNames`` — the seven exported ``gufi_result_cache_*`` names.
* ``TestReuseBudget`` / ``TestReuseSecurity`` /
  ``TestReplayedDecisions`` / ``TestStaleEntries`` — an invalidated
  stream-shaped entry is the donor of its own re-run: that run attaches
  only what changed, decides permission only where a stamp changed and
  replays the rest, equals a cold run in rows and counters, can never
  show a user more than POSIX would, and a stale entry is never served
  and first to be evicted.
* ``TestNoStaleReadsProperty`` — the acceptance property, PR 7 style:
  hypothesis-driven mutate/apply/query interleavings under root and
  unprivileged creds, with and without rollups.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import os
import shutil
import sqlite3
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import (
    BoundedSink,
    MemorySink,
    PaginatedSink,
    QueryEngine,
    QuerySpec,
    ResultCache,
    ThreadFileSink,
)
from repro.core.engine.resultcache import make_key
from repro.core.engine.traversal import path_depth
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
)
from repro.core.rollup import rollup
from repro.core.tools import GUFITools
from repro.core.update import update_directory
from repro.fs.changelog import ChangeJournal
from repro.fs.permissions import ROOT
from repro.gen.datasets import dataset2
from repro.gen.namespace import NamespaceMutator
from repro.obs.export import to_prometheus
from repro.sim.blktrace import IOTracer
from repro.store import connect, watch
from repro.store.layout import DirStore, file_stamp
from tests.conftest import ALICE, BOB, NTHREADS, build_demo_tree

OPTS = BuildOptions(nthreads=NTHREADS)

E_ALL = QuerySpec(E="SELECT path() || '/' || name, size FROM pentries")


def cold_rows(index, spec, creds=ROOT, plan=None, start="/"):
    """Oracle: a fresh, cache-less engine's sorted rows."""
    eng = QueryEngine(index, creds=creds, nthreads=NTHREADS)
    try:
        return sorted(eng.run(spec, start, plan=plan).rows)
    finally:
        eng.close()


def _write_in_place(db_path, name="oob.txt", journal_mode="DELETE"):
    """A foreign process adds an entry behind every cache's back."""
    _sql_in_place(
        db_path,
        "INSERT INTO entries (name, type, mode, uid, gid, size) "
        "VALUES (?, 'f', 420, 0, 0, 11)",
        (name,),
        journal_mode,
    )


def _sql_in_place(db_path, sql, params=(), journal_mode="DELETE"):
    """One foreign write to a database, in place. ``MEMORY`` keeps the
    rollback journal off the disk, so no file comes and goes beside
    the database and the directory's mtime does not move."""
    con = sqlite3.connect(db_path)
    con.execute(f"PRAGMA journal_mode={journal_mode}")
    con.execute(sql, params)
    con.commit()
    con.close()


def _replace_same_bytes(db_path: str) -> None:
    """Swap ``db_path`` for a byte-identical copy on a new inode, with
    the file's and the directory's mtime put back: the inode is then
    the only thing a stamp can see."""
    parent = os.path.dirname(db_path)
    file_ns = os.stat(db_path).st_mtime_ns
    dir_ns = os.stat(parent).st_mtime_ns
    inode = os.stat(db_path).st_ino
    shutil.copyfile(db_path, db_path + ".copy")
    os.replace(db_path + ".copy", db_path)
    os.utime(db_path, ns=(file_ns, file_ns))
    os.utime(parent, ns=(dir_ns, dir_ns))
    assert os.stat(db_path).st_ino != inode


def _unarm(monkeypatch) -> None:
    """Caches bound from here on find their file system unsupported:
    no watch, so no write clock without a journal."""
    monkeypatch.setattr(watch, "fs_supported", lambda path: False)


def _arm(monkeypatch) -> None:
    """Caches bound from here on arm their watch whatever file system
    the test's directory is on (inotify sees this process's and its
    children's writes on any of them)."""
    monkeypatch.setattr(watch, "fs_supported", lambda path: True)


def _in_child(fn, *args) -> None:
    """Run ``fn(*args)`` in a forked child process and wait for it."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn(*args)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.fixture
def cached_engine(demo_index):
    cache = ResultCache()
    eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
    yield eng, cache
    eng.close()


class TestCacheBasics:
    def test_second_run_is_a_hit_with_identical_rows(self, cached_engine):
        eng, cache = cached_engine
        r1 = eng.run(E_ALL)
        r2 = eng.run(E_ALL)
        assert not r1.cached and r2.cached
        assert sorted(r1.rows) == sorted(r2.rows)
        assert cache.hits == 1 and cache.misses == 1

    def test_replay_preserves_counters(self, cached_engine):
        eng, _ = cached_engine
        r1 = eng.run(E_ALL)
        r2 = eng.run(E_ALL)
        for f in ("dirs_visited", "dirs_denied", "dbs_opened",
                  "dirs_errored", "dirs_pruned_by_plan", "attaches_elided"):
            assert getattr(r2, f) == getattr(r1, f), f

    def test_aggregate_spec_replays_g_rows(self, cached_engine):
        eng, _ = cached_engine
        r1 = eng.run(Q3_DU_SUMMARIES)
        r2 = eng.run(Q3_DU_SUMMARIES)
        assert r2.cached
        assert r1.rows == r2.rows
        assert r1.rows  # the G reduction produced something

    def test_spec_whitespace_normalization_shares_entry(self, cached_engine):
        eng, cache = cached_engine
        eng.run(QuerySpec(E="SELECT name FROM pentries"))
        r = eng.run(QuerySpec(E="SELECT   name\n  FROM  pentries"))
        assert r.cached
        assert len(cache) == 1

    def test_whitespace_inside_literals_distinguishes_entries(
        self, cached_engine
    ):
        """Normalization must never collapse whitespace *inside* a SQL
        string literal: ``'a  b'`` and ``'a b'`` are different queries
        and sharing a key would serve one query the other's rows."""
        eng, cache = cached_engine
        a = eng.run(QuerySpec(E="SELECT name || ' one  two' FROM pentries"))
        b = eng.run(QuerySpec(E="SELECT name || ' one two' FROM pentries"))
        assert not b.cached
        assert len(cache) == 2
        assert sorted(a.rows) != sorted(b.rows)

    def test_norm_sql_is_quote_aware(self):
        from repro.core.engine.resultcache import _norm_sql

        assert _norm_sql("SELECT  a\n FROM t") == "SELECT a FROM t"
        assert _norm_sql("WHERE n = 'a  b'") == "WHERE n = 'a  b'"
        assert _norm_sql("WHERE n = 'a\tb'") != _norm_sql("WHERE n = 'a b'")
        assert _norm_sql('SELECT "a  b" FROM t') == 'SELECT "a  b" FROM t'
        # a literal with an alias must not collapse into an escaped
        # quote inside one literal
        assert _norm_sql("SELECT 'a' 'b'") != _norm_sql("SELECT 'a''b'")

    def test_different_start_paths_are_distinct_entries(self, cached_engine):
        eng, cache = cached_engine
        r_home = eng.run(E_ALL, "/home")
        r_proj = eng.run(E_ALL, "/proj")
        assert not r_proj.cached
        assert sorted(r_home.rows) != sorted(r_proj.rows)
        assert len(cache) == 2
        assert eng.run(E_ALL, "/home").cached
        assert eng.run(E_ALL, "/proj").cached

    def test_plan_window_is_part_of_the_key(self, demo_index):
        from repro.core.plan import QueryPlan

        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            shallow = QueryPlan(max_level=1, entries_shaped=False)
            r1 = eng.run(E_ALL, plan=shallow)
            r2 = eng.run(E_ALL)  # unplanned: different key, full tree
            assert not r2.cached
            assert len(r2.rows) > len(r1.rows)
            assert eng.run(E_ALL, plan=shallow).cached
            assert sorted(eng.run(E_ALL, plan=shallow).rows) == sorted(
                cold_rows(demo_index, E_ALL, plan=shallow)
            )
        finally:
            eng.close()

    def test_plan_key_is_the_plans_fields(self):
        """Equal plans share a key; a plan differing from the default in
        any one field — every field QueryPlan has — gets a key of its
        own, distinct from every other one-field change."""
        from repro.core.engine.resultcache import plan_key
        from repro.core.plan import QueryPlan

        base = QueryPlan()
        assert plan_key(base) == plan_key(QueryPlan())
        assert plan_key(QueryPlan(min_size=10, ftype="f")) == plan_key(
            QueryPlan(min_size=10, ftype="f")
        )
        assert plan_key(None) is None
        other = {"ftype": "f", "entries_shaped": False}
        keys = {
            plan_key(dataclasses.replace(base, **{f.name: other.get(f.name, 1)}))
            for f in dataclasses.fields(QueryPlan)
        }
        assert plan_key(base) not in keys
        assert len(keys) == len(dataclasses.fields(QueryPlan))

    def test_shared_cache_across_engines(self, demo_index):
        cache = ResultCache()
        e1 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        e2 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            r1 = e1.run(E_ALL)
            r2 = e2.run(E_ALL)
            assert r2.cached
            assert sorted(r1.rows) == sorted(r2.rows)
        finally:
            e1.close()
            e2.close()

    def test_server_shared_cache_scoped_per_principal(self, demo_index):
        from repro.core.server import GUFIServer, IdentityProvider

        idp = IdentityProvider()
        idp.add_user("alice", uid=1001, gid=1001)
        idp.add_user("bob", uid=1002, gid=1002)
        with GUFIServer(
            demo_index, idp, nthreads=NTHREADS, result_cache_mb=8
        ) as server:
            cache = server.result_cache
            assert cache is not None and cache.max_scope_bytes is not None
            server.invoke("alice", "du", "/")
            server.invoke("alice", "du", "/")
            assert cache.hits == 1  # warm session replayed
            server.invoke("bob", "du", "/")  # own scope: a miss
            assert cache.hits == 1 and len(cache) == 2

    def test_cache_shared_across_handles(self, demo_index):
        cache = ResultCache()
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as q:
            q.run(E_ALL)
            assert q.run(E_ALL).cached
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as q2:
            assert q2.run(E_ALL).cached


LS = QuerySpec(
    E="SELECT name, type, mode, uid, gid, size, mtime FROM entries "
    "ORDER BY name"
)
STAT_DIR = QuerySpec(
    S="SELECT name, mode, uid, gid, size, mtime, totfiles, totsubdirs "
    "FROM summary WHERE isroot = 1 AND rectype = 0"
)
#: credentials -> directories they may read, flat and rolled up
_SINGLE_DIRS = {
    "root": (ROOT, ["/", "/home/alice", "/home/bob/secret", "/public"]),
    "alice": (ALICE, ["/home/alice", "/home/alice/sub", "/proj/shared"]),
}


class TestRunSingle:
    """``run_single`` goes through ``run``'s front end: a repeated
    call replays an entry of its own, validated by the directory's
    ``db.db`` stamp and its ancestors', and is byte-identical to the
    uncached call; a denied directory is never stored."""

    @pytest.mark.parametrize("spec", [LS, STAT_DIR, Q3_DU_SUMMARIES],
                             ids=["ls", "stat", "aggregate"])
    @pytest.mark.parametrize("rolled", [False, True], ids=["flat", "rolled"])
    @pytest.mark.parametrize("who", sorted(_SINGLE_DIRS))
    def test_second_call_is_a_byte_identical_hit(
        self, demo_index, who, rolled, spec
    ):
        creds, paths = _SINGLE_DIRS[who]
        if rolled:
            rollup(demo_index, nthreads=NTHREADS)
            assert demo_index.dir_meta("/home/alice").rolledup
        cache = ResultCache()
        with QueryEngine(
            demo_index, creds=creds, nthreads=NTHREADS, result_cache=cache
        ) as eng, QueryEngine(
            demo_index, creds=creds, nthreads=NTHREADS
        ) as cold:
            for path in paths:
                first = eng.run_single(spec, path)
                second = eng.run_single(spec, path)
                assert not first.cached and second.cached
                uncached = cold.run_single(spec, path)
                assert repr(first.rows) == repr(uncached.rows)
                assert repr(second.rows) == repr(uncached.rows)
                for f in ("dirs_visited", "dirs_denied", "dbs_opened",
                          "dirs_errored", "dirs_pruned_by_plan",
                          "attaches_elided"):
                    assert getattr(second, f) == getattr(uncached, f), f
            assert cache.hits == len(paths) == len(cache)
            # the token: the directory's db.db stamp and its ancestors'
            entry = cache._entries[
                make_key(creds, spec, None, paths[-1], descend=False)
            ]
            depth = path_depth(paths[-1])
            assert len(entry.stamps) == depth + 1
            assert all(ls is None for _, ls in entry.stamps.values())

    def test_never_shares_an_entry_with_run(self, cached_engine):
        eng, cache = cached_engine
        single = eng.run_single(E_ALL, "/home/bob")
        walk = eng.run(E_ALL, "/home/bob")
        assert not walk.cached and len(cache) == 2
        assert len(walk.rows) > len(single.rows)
        again = eng.run_single(E_ALL, "/home/bob")
        assert again.cached and sorted(again.rows) == sorted(single.rows)
        assert eng.run(E_ALL, "/home/bob").cached
        # the walk's key is the four-part key it always was
        key = make_key(ROOT, E_ALL, None, "/home/bob")
        assert len(key) == 4 and key in cache._entries
        assert make_key(ROOT, E_ALL, None, "/home/bob", descend=False) == (
            *key, False
        )

    @pytest.mark.parametrize(
        "creds,path",
        [(BOB, "/home/alice"), (BOB, "/home/alice/sub"),
         (BOB, "/public/ronly"), (ALICE, "/home/bob/secret")],
    )
    def test_denied_raises_every_call_and_stores_nothing(
        self, demo_index, creds, path
    ):
        from repro.core.engine import QueryPermissionError

        cache = ResultCache()
        with QueryEngine(
            demo_index, creds=creds, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            for _ in range(3):
                with pytest.raises(QueryPermissionError):
                    eng.run_single(LS, path)
            assert cache.stats()["entries"] == cache.stats()["stale"] == 0
            assert cache.hits == 0 and cache.misses == 3

    @pytest.mark.parametrize("push", [True, False], ids=["hooks", "stamps"])
    def test_apply_rewriting_the_directory_makes_ls_miss(
        self, demo_tree, tmp_path, push
    ):
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        if push:
            cache.attach_journal(journal, exclusive=True)
        with GUFITools(index, nthreads=NTHREADS, result_cache=cache) as tools:
            before = tools.ls("/public", long_format=True)
            assert tools.ls("/public", long_format=True) == before
            assert cache.hits == 1
            if not push:
                cache.close()  # only the stamps can tell
            demo_tree.create_file("/public/applied.txt", size=77,
                                  uid=0, gid=0)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            hits = cache.hits
            after = tools.ls("/public", long_format=True)
            assert cache.hits == hits
            assert any(line.endswith(" applied.txt") for line in after)
            with GUFITools(index, nthreads=NTHREADS) as cold:
                assert after == cold.ls("/public", long_format=True)
            assert tools.ls("/public", long_format=True) == after
            assert cache.hits == hits + 1

    def test_chmod_of_an_ancestor_makes_ls_miss(self, demo_tree, tmp_path):
        """An ancestor's bits gate reachability: a chmod that keeps
        the directory reachable is a miss with the cold rows, one that
        revokes it raises on the next call."""
        from repro.core.engine import QueryPermissionError

        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        with QueryEngine(
            index, creds=ALICE, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            rows = eng.run_single(LS, "/home/alice/sub").rows
            assert eng.run_single(LS, "/home/alice/sub").cached
            demo_tree.chmod("/home/alice", 0o500, ALICE)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            again = eng.run_single(LS, "/home/alice/sub")
            assert not again.cached and repr(again.rows) == repr(rows)
            assert eng.run_single(LS, "/home/alice/sub").cached
            demo_tree.chmod("/home/alice", 0o000, ALICE)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            for _ in range(2):
                with pytest.raises(QueryPermissionError):
                    eng.run_single(LS, "/home/alice/sub")

    def test_stays_on_the_calling_thread_under_processes(self, demo_index):
        import threading

        from repro.core.engine import MemorySink

        threads: list[int] = []

        class Recording(MemorySink):
            def emit(self, path, rows):
                threads.append(threading.get_ident())
                super().emit(path, rows)

        with QueryEngine(demo_index, nthreads=NTHREADS, processes=2) as eng:
            r = eng.run_single(LS, "/public", sink=Recording())
            assert r.rows and threads == [threading.get_ident()]
            assert eng._scatter_engine is None


class TestSinkReplay:
    """Replay goes through the caller's sink, so every sink shape
    behaves exactly as it would on a real run."""

    def test_bounded_sink_cap_applies_on_replay(self, cached_engine):
        eng, _ = cached_engine
        full = eng.run(E_ALL)
        capped = eng.run(E_ALL, sink=BoundedSink(3))
        assert capped.cached and capped.truncated
        assert len(capped.rows) == 3
        assert set(capped.rows) <= set(full.rows)

    def test_paginated_sink_on_replay(self, cached_engine):
        eng, _ = cached_engine
        full = eng.run(E_ALL)
        sink = PaginatedSink(page_size=2)
        res = eng.run(E_ALL, sink=sink)
        assert res.cached
        paged = [r for n in range(sink.num_pages) for r in sink.page(n)]
        assert sorted(paged) == sorted(full.rows)

    def test_thread_file_sink_written_on_replay(self, cached_engine, tmp_path):
        eng, _ = cached_engine
        full = eng.run(E_ALL)
        res = eng.run(E_ALL, sink=ThreadFileSink(str(tmp_path / "out")))
        assert res.cached and res.output_files
        lines = []
        for path in res.output_files:
            with open(path) as fh:
                lines += [ln.rstrip("\n") for ln in fh]
        want = sorted(
            "\t".join("" if v is None else str(v) for v in row)
            for row in full.rows
        )
        assert sorted(lines) == want

    def test_capture_does_not_inherit_callers_row_cap(self, cached_engine):
        """A bounded first caller must not poison the entry: the tee
        records the pre-cap stream, so a later unbounded caller gets
        the full rows."""
        eng, _ = cached_engine
        capped = eng.run(E_ALL, sink=BoundedSink(2))
        assert capped.truncated and not capped.cached
        full = eng.run(E_ALL)
        assert full.cached and not full.truncated
        assert sorted(full.rows) == cold_rows(eng.index, E_ALL)


class TestEntryMemo:
    """A result a cache entry holds carries the entry's memo, and its
    rows are the entry's row sequence, so a value derived from them
    (a cursor's digest) holds for every replay."""

    def test_run_and_replays_deliver_the_entrys_sequence(self, demo_index):
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=4, result_cache=cache) as eng:
            miss = eng.run(E_ALL)
            (entry,) = cache._entries.values()
            assert miss.memo is entry.memo
            assert miss.rows == entry.rows + entry.final_rows
            for _ in range(2):
                hit = eng.run(E_ALL, sink=PaginatedSink(page_size=3))
                assert hit.cached and hit.memo is entry.memo
                assert hit.rows == miss.rows

    def test_no_entry_no_memo(self, demo_index):
        cache = ResultCache(max_bytes=1024, max_entry_bytes=1)
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache) as eng:
            assert eng.run(E_ALL).memo is None
            assert len(cache) == 0
        with QueryEngine(demo_index, nthreads=NTHREADS) as eng:
            assert eng.run(E_ALL).memo is None

    def test_a_replaced_entry_starts_a_new_memo(self, demo_index):
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache) as eng:
            eng.run(E_ALL).memo["k"] = "v"
            demo_index.invalidate_cache("/public")
            again = eng.run(E_ALL)
            assert not again.cached and again.memo == {}


class TestInvalidation:
    def test_explicit_invalidate_drops_only_touched_entries(
        self, cached_engine
    ):
        eng, cache = cached_engine
        eng.run(E_ALL, "/home/bob")
        eng.run(E_ALL, "/proj")
        assert len(cache) == 2
        eng.index.invalidate_cache("/home/bob")
        assert len(cache) == 1
        assert not eng.run(E_ALL, "/home/bob").cached
        assert eng.run(E_ALL, "/proj").cached

    def test_churn_two_levels_below_a_sibling_keeps_the_entry(
        self, demo_tree, tmp_path
    ):
        """The module docstring's claim, with no tree summary: an apply
        that creates a file two levels below ``/proj`` (and commits the
        cursor) leaves a ``/home/alice`` entry a hit; one directly in
        ``/proj`` retires it, since its parent ``/`` is an ancestor."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as eng:
            rows = eng.run(E_ALL, "/home/alice").rows
            demo_tree.create_file("/proj/shared/data/n.h5", size=5,
                                  uid=1003, gid=100)
            assert changefeed2index(index, demo_tree, journal,
                                    opts=OPTS).dirs_rebuilt == 1
            again = eng.run(E_ALL, "/home/alice")
            assert again.cached and again.rows == rows
            demo_tree.create_file("/proj/n.txt", size=5, uid=0, gid=0)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            assert not eng.run(E_ALL, "/home/alice").cached

    def test_subtree_invalidation_matches_descendants(self, cached_engine):
        eng, cache = cached_engine
        eng.run(E_ALL, "/proj")  # visits /proj/shared/data
        eng.run(E_ALL, "/public")
        eng.index.cache.invalidate_subtree("/proj/shared")
        assert not eng.run(E_ALL, "/proj").cached
        assert eng.run(E_ALL, "/public").cached

    def test_ancestor_entry_invalidated_by_child_write(self, cached_engine):
        """An entry whose walk visited /home must die when /home/alice
        (a visited dir) — or even a *parent* of a visited dir — is
        invalidated."""
        eng, _ = cached_engine
        eng.run(E_ALL, "/home")
        eng.index.invalidate_cache("/home/alice")
        assert not eng.run(E_ALL, "/home").cached

    def test_stamp_pass_catches_out_of_band_write(
        self, demo_tree, tmp_path
    ):
        """No journal, no hooks: a foreign process writes a directory
        database behind the cache's back; the per-directory stamp
        validation must refuse the entry."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        cache = ResultCache()
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        try:
            eng.run(E_ALL)
            assert eng.run(E_ALL).cached
            _write_in_place(index.db_path("/public"))
            hits_before = cache.hits
            r = eng.run(E_ALL)
            assert not r.cached and cache.hits == hits_before
            assert any("oob.txt" in str(row[0]) for row in r.rows)
            assert sorted(r.rows) == cold_rows(index, E_ALL)
        finally:
            eng.close()

    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    def test_a_rewrite_no_stamp_sees_is_caught_by_the_hook(
        self, demo_tree, tmp_path, monkeypatch, armed
    ):
        """What only the push hooks cover: an in-process writer rewrites
        a visited database in place, at the same size, with its mtime
        put back — inode, mtime and size unchanged, the directory's
        listing too — and announces it. The watch sees the write, but
        the stamp pass it triggers passes; the announcement alone sends
        the entry away."""
        (_arm if armed else _unarm)(monkeypatch)
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        cache = ResultCache()
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as eng:
            eng.run(E_ALL)
            assert eng.run(E_ALL).cached
            assert (eng.index.watch is not None) == armed
            db = str(index.db_path("/public"))
            before = os.stat(db)
            stamp = file_stamp(db)
            _sql_in_place(
                db, "UPDATE entries SET size = size + 1", journal_mode="MEMORY"
            )
            os.utime(db, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert file_stamp(db) == stamp
            index.invalidate_cache("/public")
            r = eng.run(E_ALL)
            assert not r.cached
            assert sorted(r.rows) == cold_rows(index, E_ALL)

    def test_journal_needs_a_sole_writer(self, demo_tree, tmp_path):
        """A writer in *another process* journals nothing and fires no
        hooks, so the stat-free changefeed fast path cannot see it: a
        journal is attached only as the declaration of a sole writer,
        and without one a foreign rewrite is seen on the very next
        lookup."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        with pytest.raises(ValueError):
            cache.attach_journal(journal)
        with pytest.raises(ValueError):
            cache.attach_journal(journal, exclusive=False)
        assert cache.journal is None
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        try:
            eng.run(E_ALL)
            assert eng.run(E_ALL).cached
            _write_in_place(index.db_path("/public"), "foreign.txt")
            r = eng.run(E_ALL)
            assert not r.cached
            assert any("foreign.txt" in str(row[0]) for row in r.rows)
            assert sorted(r.rows) == cold_rows(index, E_ALL)
        finally:
            eng.close()

    def test_permission_change_on_ancestor_invalidates(self, demo_tree,
                                                       tmp_path):
        """chmod on an *ancestor* of the query start changes
        reachability; the ancestor stamps in the validity token must
        catch it even though the walk never processed that dir."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        eng = QueryEngine(
            index, creds=ALICE, nthreads=NTHREADS, result_cache=cache
        )
        try:
            eng.run(E_ALL, "/home/alice/sub")
            assert eng.run(E_ALL, "/home/alice/sub").cached
            demo_tree.chmod("/home/alice", 0o000, ALICE)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            from repro.core.engine import QueryPermissionError

            with pytest.raises(QueryPermissionError):
                eng.run(E_ALL, "/home/alice/sub")
        finally:
            eng.close()

    def test_unapplied_tree_events_do_not_invalidate(self, demo_tree,
                                                     tmp_path):
        """Mutating the *tree* without applying to the *index* leaves
        the index — and therefore the cached result — unchanged: the
        entry must keep serving (and keep matching a cold run)."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        try:
            eng.run(E_ALL)
            demo_tree.create_file("/public/pending.txt", size=1,
                                  uid=0, gid=0)
            r = eng.run(E_ALL)
            assert r.cached
            assert sorted(r.rows) == cold_rows(index, E_ALL)
        finally:
            eng.close()

    def test_changefeed_apply_invalidates_then_recaches(self, demo_tree,
                                                        tmp_path):
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        try:
            eng.run(E_ALL)
            demo_tree.create_file("/public/applied.txt", size=77,
                                  uid=0, gid=0)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            r = eng.run(E_ALL)
            assert not r.cached
            assert sorted(r.rows) == cold_rows(index, E_ALL)
            assert any("applied.txt" in str(row[0]) for row in r.rows)
            assert eng.run(E_ALL).cached
        finally:
            eng.close()

    @pytest.mark.parametrize("hooks", [True, False])
    def test_journal_attached_after_capture(self, demo_tree, tmp_path, hooks):
        """Without a journal a lookup does not read the applied cursor,
        so entries captured journal-less carry a cursor that lags. A
        journal attached later finds it moved and sends those entries
        to the stamp pass, and every answer still equals a cold run,
        with or without the push hooks."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()  # no journal yet
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)

        def check(start, hit):
            r = eng.run(E_ALL, start)
            assert r.cached is hit, start
            assert sorted(r.rows) == cold_rows(index, E_ALL, start=start)

        # starts two levels down: a write to a directory also drops
        # the entries that hold its *parent*, and ``/`` is everyone's
        starts = ("/home/bob", "/public/xonly", "/proj/shared")
        try:
            for start in starts:
                check(start, False)
            if not hooks:
                cache.close()  # the journal and the stamps are all it has
            # applied while journal-less: stamps catch it, cursors lag
            demo_tree.create_file("/proj/shared/early", size=5, uid=0, gid=0)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            check("/home/bob", True)
            check("/public/xonly", True)
            check("/proj/shared", False)
            cache.attach_journal(journal, exclusive=True)
            demo_tree.create_file("/public/xonly/late", size=6, uid=0, gid=0)
            changefeed2index(index, demo_tree, journal, opts=OPTS)
            check("/home/bob", True)  # the window touches nothing of its
            check("/public/xonly", False)
            check("/proj/shared", True)
            for start in starts:
                check(start, True)
        finally:
            eng.close()

    def test_mid_run_invalidation_aborts_the_store(self, cached_engine):
        eng, cache = cached_engine
        before = cache.capture_aborts
        real_store = cache.store

        def racing_store(key, capture, result, cursor, inv_seq):
            # a writer lands between run start and store
            eng.index.invalidate_cache("/public")
            return real_store(key, capture, result, cursor, inv_seq)

        cache.store = racing_store
        try:
            r = eng.run(E_ALL)
        finally:
            cache.store = real_store
        assert not r.cached
        assert len(cache) == 0
        assert cache.capture_aborts == before + 1

    @staticmethod
    def _racing(cache, write):
        """``cache.store`` with ``write()`` landing after the walk read
        everything and before the entry is stored, announcing nothing."""
        real_store = cache.store

        def racing_store(*args):
            write()
            return real_store(*args)

        cache.store = racing_store
        return real_store

    def test_a_stamp_republished_mid_capture_vouches_for_nothing(
        self, demo_index
    ):
        """No journal: every hit pays the stamp pass. A foreign row lands
        in ``/public`` after the walk read it (the directory's mtime
        stays), and a reader on the same handle republishes its record
        under the new stamp before the store: the entry is still valid
        only by the stamp the walk read under."""
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)

        def write():
            _write_in_place(
                demo_index.db_path("/public"), "racing.txt", "MEMORY"
            )
            demo_index.cached_dir_meta("/public")

        real_store = self._racing(cache, write)
        try:
            eng.run(E_ALL)
            cache.store = real_store
            r = eng.run(E_ALL)
            assert not r.cached
            assert any("racing.txt" in str(row[0]) for row in r.rows)
            assert sorted(r.rows) == cold_rows(demo_index, E_ALL)
        finally:
            eng.close()

    def test_an_apply_committed_mid_capture_is_seen(self, demo_tree, tmp_path):
        """Sole writer declared: a changefeed applied through another
        handle (no hook on this cache) lands after the walk read
        ``/public`` and before the store. The entry's cursor is the one
        read before the run, so the next hit takes the stamp pass and
        misses."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)

        def write():
            demo_tree.create_file("/public/racing.txt", size=3, uid=0, gid=0)
            changefeed2index(
                GUFIIndex.open(index.root), demo_tree, journal, opts=OPTS
            )

        real_store = self._racing(cache, write)
        try:
            eng.run(E_ALL)
            cache.store = real_store
            r = eng.run(E_ALL)
            assert not r.cached
            assert any("racing.txt" in str(row[0]) for row in r.rows)
            assert sorted(r.rows) == cold_rows(index, E_ALL)
        finally:
            eng.close()

    def test_an_ancestor_revoked_mid_capture_is_seen(self, demo_index):
        """No journal: ``/home/alice`` stops granting search after the
        run checked it and before the entry is stored. The ancestor's
        stamp is the one its bits were read under, so the next run
        misses and is denied, as a cold one is."""
        from repro.core.engine import QueryPermissionError

        cache = ResultCache()
        eng = QueryEngine(
            demo_index, creds=ALICE, nthreads=NTHREADS, result_cache=cache
        )

        def write():
            _sql_in_place(
                demo_index.db_path("/home/alice"),
                "UPDATE summary SET mode = 0 WHERE isroot = 1",
                journal_mode="MEMORY",
            )

        real_store = self._racing(cache, write)
        try:
            assert len(eng.run(E_ALL, "/home/alice/sub").rows) == 1
            cache.store = real_store
            with pytest.raises(QueryPermissionError):
                eng.run(E_ALL, "/home/alice/sub")
            with QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS) as cold:
                with pytest.raises(QueryPermissionError):
                    cold.run(E_ALL, "/home/alice/sub")
        finally:
            eng.close()


class TestHitBudget:
    """A hit costs what its contract requires and nothing else: with
    the write clock's watch armed, one stat of the index root; unarmed,
    two stats per recorded directory — its database, then its listing
    — one per ancestor of the start, on plain path strings."""

    @staticmethod
    def _hit_stats(index, monkeypatch, start, armed):
        """Capture ``E_ALL`` from ``start``, then look it up once with
        every path-object constructor forbidden: the hit's ``os.stat``
        paths, the directories the capture visited, and its entry."""
        from repro.core.checkpoint import ChangefeedCheckpoint

        (_arm if armed else _unarm)(monkeypatch)
        cache = ResultCache()
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            n = eng.run(E_ALL, start).dirs_visited
        depth = path_depth(start)
        key = make_key(ROOT, E_ALL, None, start)
        entry = cache._entries[key]
        assert len(entry.stamps) == n + depth
        # every recorded directory present; ancestors: database only
        assert all(db is not None for db, _ in entry.stamps.values())
        assert sum(d is None for _, d in entry.stamps.values()) == depth

        def forbidden(*args, **kwargs):
            raise AssertionError("object built on the result-cache hit path")

        stats: list[str] = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            assert type(path) is str
            stats.append(path)
            return real_stat(path, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(DirStore, "__init__", forbidden)
            m.setattr(GUFIIndex, "index_dir", forbidden)
            m.setattr(ChangefeedCheckpoint, "__init__", forbidden)
            m.setattr(os, "stat", counting_stat)
            assert cache.lookup(key, index) is entry
        return stats, n, entry

    @pytest.mark.parametrize("start", ["/", "/home/alice", "/proj/shared/data"])
    def test_hit_is_2n_plus_d_stats_and_no_path_objects(
        self, demo_index, monkeypatch, start
    ):
        """Unarmed, a hit is the stamp pass."""
        stats, n, entry = self._hit_stats(demo_index, monkeypatch, start, False)
        assert len(stats) == 2 * n + path_depth(start)
        # and in the token's order: the database, then the listing
        expected = []
        for path, (_, listing) in entry.stamps.items():
            base = demo_index.index_path(path)
            expected += [base + "/db.db"] + [base] * (listing is not None)
        assert stats == expected

    @pytest.mark.parametrize("start", ["/", "/home/alice", "/proj/shared/data"])
    def test_armed_hit_is_one_root_stat_and_no_path_objects(
        self, demo_index, monkeypatch, start
    ):
        """Armed, a hit is the root's identity, then an empty event
        queue."""
        stats, _, _ = self._hit_stats(demo_index, monkeypatch, start, True)
        assert stats == [str(demo_index.root)]

    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    @pytest.mark.parametrize("mover", ["commit", "foreign-apply"])
    def test_exclusive_journal_stats_only_when_the_cursor_moved(
        self, demo_tree, tmp_path, monkeypatch, mover, armed
    ):
        """With an exclusive journal and no watch the applied cursor is
        the clock: a hit on an unchanged index makes no stat, and a
        cursor that moved with no hook firing — a commit, or a
        changefeed applied through another handle — sends the next hit
        to the stamp pass, which finds it valid. Armed, the watch is
        the clock: one stat of the root per hit, and the cursor file's
        write moves it the same way."""
        from repro.core.checkpoint import ChangefeedCheckpoint

        (_arm if armed else _unarm)(monkeypatch)
        root_stat = int(armed)
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        start = "/home/bob"
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            n = eng.run(E_ALL, start).dirs_visited
        key = make_key(ROOT, E_ALL, None, start)
        entry = cache._entries[key]

        stats: list[str] = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return real_stat(path, *args, **kwargs)

        def hit_stats() -> int:
            stats.clear()
            with monkeypatch.context() as m:
                m.setattr(os, "stat", counting_stat)
                assert cache.lookup(key, index) is entry
            return len(stats)

        assert hit_stats() == root_stat
        checkpoint = ChangefeedCheckpoint(index.root)
        before = checkpoint.load()
        if mover == "commit":
            checkpoint.commit(before + 1)
        else:  # a write outside the entry, applied on a foreign handle
            demo_tree.create_file("/public/elsewhere", size=1, uid=0, gid=0)
            changefeed2index(
                GUFIIndex.open(index.root), demo_tree, journal, opts=OPTS
            )
        assert checkpoint.load() != before
        assert hit_stats() == root_stat + 2 * n + path_depth(start)
        assert hit_stats() == root_stat  # checked at the new clock

    def test_store_makes_no_stat(self, demo_index, monkeypatch):
        """A capture's token is what its walk read under: storing it
        re-stamps nothing."""
        cache = ResultCache()
        real_store = cache.store
        stats: list[str] = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return real_stat(path, *args, **kwargs)

        def counted_store(*args):
            with monkeypatch.context() as m:
                m.setattr(os, "stat", counting_stat)
                return real_store(*args)

        cache.store = counted_store
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            assert not eng.run(E_ALL).cached
            assert len(cache) == 1
        assert stats == []


class _StatCounter:
    """Every ``os.stat`` path under an index root while counting, and
    every database a walk attaches."""

    def __init__(self, monkeypatch, root) -> None:
        from repro.core.engine.stages import StageRunner

        self.monkeypatch = monkeypatch
        self.stats: list[str] = []
        self.attached: list[str] = []
        real_stat, real_attach = os.stat, StageRunner.attach
        root = str(root)

        def counting_stat(path, *args, **kwargs):
            path = os.fspath(path)
            if path.startswith(root):  # the walker's threads stat /proc
                self.stats.append(path)
            return real_stat(path, *args, **kwargs)

        def attach(runner, st, db_path):
            self.attached.append(db_path)
            return real_attach(runner, st, db_path)

        self._patches = ((os, "stat", counting_stat),
                         (StageRunner, "attach", attach))

    @contextlib.contextmanager
    def counting(self):
        self.stats.clear()
        self.attached.clear()
        with self.monkeypatch.context() as m:
            for target, name, fn in self._patches:
                m.setattr(target, name, fn)
            yield self


def _armed_handle(index, monkeypatch):
    """``index`` with its watch armed, as a result-cache bind would."""
    _arm(monkeypatch)
    index.arm_watch()
    assert index.watched
    return index


class TestWatchedWalkBudget:
    """What a warm walk stats. On an armed handle over an unchanged
    tree: the root's identity (the drain), then one ``os.stat`` per
    directory it attaches — none for a listing, or for a denied,
    plan-elided or donor-reused directory — and a warm tree-summary
    build stats no clean directory. Unarmed, the stamps as before."""

    @pytest.mark.parametrize("who", ["root", "bob", "planned"])
    def test_warm_walk_stats_only_what_it_attaches(
        self, demo_index, monkeypatch, who
    ):
        from repro.core.plan import QueryPlan

        index = _armed_handle(demo_index, monkeypatch)
        creds = BOB if who == "bob" else ROOT
        plan = QueryPlan(min_size=800) if who == "planned" else None
        counter = _StatCounter(monkeypatch, demo_index.root)
        with QueryEngine(index, creds=creds, nthreads=NTHREADS) as eng:
            for _ in range(2):  # cold, then checked clean
                want = sorted(eng.run(E_ALL, plan=plan).rows)
            before = index.cache.stats()
            with counter.counting():
                r = eng.run(E_ALL, plan=plan)
        after = index.cache.stats()
        assert sorted(r.rows) == want == cold_rows(index, E_ALL, creds, plan)
        if who == "bob":
            assert r.dirs_denied > 0
        if who == "planned":
            assert r.attaches_elided > 0
        root = str(index.root)
        assert counter.stats.count(root) == 1  # the drain's identity check
        rest = [p for p in counter.stats if p != root]
        assert sorted(rest) == sorted(counter.attached)
        assert len(counter.attached) == r.dbs_opened
        assert after["validations_stat"] == before["validations_stat"]
        assert after["validations_watch"] > before["validations_watch"]

    def test_unarmed_warm_walk_stats_every_record_and_listing(
        self, demo_index, monkeypatch
    ):
        """Unarmed: a database and a listing per directory, and the
        start's check — the stamps, unchanged."""
        _unarm(monkeypatch)
        demo_index.arm_watch()
        assert demo_index.watch is None
        counter = _StatCounter(monkeypatch, demo_index.root)
        with QueryEngine(demo_index, nthreads=NTHREADS) as eng:
            for _ in range(2):
                eng.run(E_ALL)
            with counter.counting():
                r = eng.run(E_ALL)
        assert len(counter.stats) == 2 * r.dirs_visited + 1
        assert demo_index.cache.validations_watch == 0

    def test_donor_reused_directories_make_no_stat(
        self, demo_tree, demo_index, monkeypatch
    ):
        _arm(monkeypatch)
        cache = ResultCache()
        counter = _StatCounter(monkeypatch, demo_index.root)
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as eng, QueryEngine(demo_index, nthreads=NTHREADS) as warm:
            eng.run(E_ALL)
            warm.run(E_ALL)  # checks every record clean
            demo_tree.create_file("/public/xonly/fresh.txt", size=1)
            update_directory(demo_index, demo_tree, "/public/xonly")
            with counter.counting():
                r = eng.run(E_ALL)
        assert not r.cached and cache.dirs_reused > 0
        assert sorted(r.rows) == cold_rows(demo_index, E_ALL)
        xonly = demo_index.index_path("/public/xonly")
        assert counter.attached == [xonly + "/db.db"]
        # the rebuilt directory is checked; nothing reused is
        assert set(counter.stats) <= {
            str(demo_index.root), xonly, xonly + "/db.db"
        }

    def test_warm_tree_summary_build_stats_no_clean_directory(
        self, demo_index, monkeypatch
    ):
        from repro.core.tsummary import build_tsummary

        index = _armed_handle(demo_index, monkeypatch)
        counter = _StatCounter(monkeypatch, demo_index.root)
        for _ in range(2):  # cold, then checked clean
            build_tsummary(index, "/home")
        with counter.counting():
            r = build_tsummary(index, "/home")
        # the start's own database is the one the build rewrote
        assert r.dbs_opened == 1 and r.dirs_scanned == 5
        home = index.index_path("/home")
        assert [
            p for p in counter.stats
            if p not in (str(index.root), home)
            and not p.startswith(home + "/db.db")
        ] == []

    def test_a_write_drained_mid_check_leaves_the_path_dirty(
        self, demo_index, monkeypatch
    ):
        """A write whose event is drained while a lookup of its path is
        being checked: the check passed on the older stamp, so the path
        stays dirty and the next watched lookup checks it again."""
        from repro.store import layout

        index = _armed_handle(demo_index, monkeypatch)
        with QueryEngine(index, nthreads=NTHREADS) as eng:
            eng.run(E_ALL)
        db_path = index.index_path("/public") + "/db.db"
        real = layout.file_stamp
        checked: list[str] = []

        def racing_stamp(path):
            stamp = real(path)
            if path == db_path and not checked:
                checked.append(path)
                _write_in_place(db_path, journal_mode="MEMORY")
                assert index.sync()  # the write's event, mid-check
            return stamp

        monkeypatch.setattr(layout, "file_stamp", racing_stamp)
        assert index.cache.get_meta("/public", db_path, True, True)
        assert checked == [db_path]
        assert "/public" not in index.cache._db.clean
        monkeypatch.setattr(layout, "file_stamp", real)
        assert index.cache.get_meta("/public", db_path, True, True) is None

    def test_republished_tighter_after_the_drain_leaks_nothing(
        self, demo_index, monkeypatch
    ):
        """After a run's drain and before its walk attaches
        ``/home/bob``, the directory is republished owner-only for root
        with a new file: the clean record still grants bob, but the
        check before the attach reads the new database cold, and its
        mode denies him the file."""
        index = _armed_handle(demo_index, monkeypatch)
        db_path = index.index_path("/home/bob") + "/db.db"
        with QueryEngine(index, creds=BOB, nthreads=NTHREADS) as eng:
            for _ in range(2):
                eng.run(E_ALL)
            assert "/home/bob" in index.cache._db.clean
            real_sync = index.sync

            def sync_then_republish():
                watched = real_sync()
                staged = db_path + ".oob"
                shutil.copyfile(db_path, staged)
                _sql_in_place(
                    staged,
                    "UPDATE summary SET uid = 0, gid = 0, mode = 16832 "
                    "WHERE isroot = 1",
                )
                _write_in_place(staged, "leak.txt")
                os.replace(staged, db_path)
                return watched

            monkeypatch.setattr(index, "sync", sync_then_republish)
            r = eng.run(E_ALL)
        assert not any("leak.txt" in str(row[0]) for row in r.rows)
        assert not any("/home/bob/" in str(row[0]) for row in r.rows)
        monkeypatch.undo()
        assert sorted(r.rows) == cold_rows(index, E_ALL, BOB)

    def test_processes_and_forked_children_never_skip_a_stat(
        self, demo_index, monkeypatch
    ):
        index = _armed_handle(demo_index, monkeypatch)
        leaf = "/home/bob/secret"
        with QueryEngine(index, nthreads=NTHREADS) as eng:
            for _ in range(2):
                want = sorted(eng.run(E_ALL).rows)
                want_leaf = sorted(eng.run(E_ALL, leaf).rows)
        cache = index.cache
        trusted = cache.validations_watch
        with QueryEngine(index, nthreads=NTHREADS, processes=2) as eng:
            assert sorted(eng.run(E_ALL).rows) == want
            # too narrow to shard: the fallback walks in this process
            assert sorted(eng.run(E_ALL, leaf).rows) == want_leaf
        assert cache.validations_watch == trusted

        def child():
            assert not index.sync()
            with QueryEngine(index, nthreads=NTHREADS) as eng:
                assert sorted(eng.run(E_ALL).rows) == want
            assert cache.validations_watch == trusted

        _in_child(child)
        assert index.sync()

    def test_armed_stamp_pass_stats_only_what_is_not_clean(
        self, demo_index, monkeypatch
    ):
        """The clock moved — a cursor commit wrote into the index root,
        an ancestor of the start — so a hit takes the stamp pass: one
        stat for each recorded stamp whose entry is not clean (the
        root's database), and none for the rest."""
        from repro.core.checkpoint import ChangefeedCheckpoint

        index = _armed_handle(demo_index, monkeypatch)
        cache = ResultCache()
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng, QueryEngine(index, nthreads=NTHREADS) as plain:
            eng.run(E_ALL, "/home")
            plain.run(E_ALL, "/home")  # checks every record clean
        key = make_key(ROOT, E_ALL, None, "/home")
        entry = cache._entries[key]
        ChangefeedCheckpoint(index.root).commit(1)
        assert index.sync()  # the commit's event: the root is dirty
        assert entry.clock != index.cache.epoch
        expected = []
        for path, (_, listing) in entry.stamps.items():
            base = index.index_path(path)
            if path not in index.cache._db.clean:
                expected.append(base + "/db.db")
            if listing is not None and path not in index.cache._listings.clean:
                expected.append(base)
        assert expected == [str(index.root) + "/db.db"]
        assert len(entry.stamps) > 5
        counter = _StatCounter(monkeypatch, index.root)
        with counter.counting():
            assert cache.lookup(key, index, watched=True) is entry
        assert counter.stats == expected

    def test_a_contribution_shares_the_records_stamp_and_clean_mark(
        self, demo_index, monkeypatch
    ):
        """The record and the contribution of one ``db.db`` are one
        entry: a contribution put under the record's stamp keeps the
        entry clean, one put under another stamp replaces both."""
        index = _armed_handle(demo_index, monkeypatch)
        cache = index.cache
        path = "/home/bob"
        db = index.index_path(path) + "/db.db"
        meta = index.dir_meta(path)
        assert cache.get_meta(path, db, watched=True) is meta
        assert path in cache._db.clean  # checked by a stamp, under the watch
        cache.put_contribution(path, meta.stamp, db, "contribution")
        assert path in cache._db.clean
        stats = cache.validations_stat
        assert cache.get_contribution(path, True) == "contribution"
        assert cache.get_meta(path, db, watched=True) is meta
        assert cache.validations_stat == stats  # both clean: no stat
        cache.put_contribution(path, (0, 0, 0), db, "another file's")
        assert path not in cache._db.clean
        assert cache.get_meta(path, db, watched=True) is None
        assert cache.get_contribution(path, True) is None  # and dropped
        assert path not in cache._db.entries

    def test_lookups_are_counted_by_rule(self, demo_index, monkeypatch):
        """Plain-int counts on the cache, folded once per run into one
        labelled counter; the armed state is a gauge."""
        with obs.enabled(metrics=True):
            index = _armed_handle(demo_index, monkeypatch)
            with QueryEngine(index, nthreads=NTHREADS) as eng:
                for _ in range(3):
                    eng.run(E_ALL)
            snap = obs.snapshot()
        stats = index.cache.stats()
        assert stats["validations_watch"] > 0 and stats["validations_stat"] > 0
        for rule in ("watch", "stat"):
            assert snap.counter(
                "gufi_session_cache_validations_total", rule=rule
            ) == stats[f"validations_{rule}"]
        assert snap.gauge("gufi_index_watch_armed") == 1


def _move_then_write(doomed: str, above: str) -> None:
    """Move a subtree within the index tree, then write a database
    inside it at its new place."""
    moved = above + "/oob_moved"
    os.rename(doomed, moved)
    _write_in_place(moved + "/db.db")


def _create_and_write(leaf: str) -> None:
    """Create a directory and write its database before anyone looks."""
    os.mkdir(leaf + "/oob_new")
    shutil.copyfile(leaf + "/db.db", leaf + "/oob_new/db.db")


#: out-of-band change -> what it does, given the index directories of
#: (a visited directory with no visited child, a sub-directory to
#: remove, the start's parent). Each runs with no journal and no hook:
#: only the write clock and the stamp pass can see it.
_OOB_CHANGES = {
    "write-in-place": lambda leaf, doomed, above: _write_in_place(
        leaf + "/db.db"
    ),
    "new-inode-same-bytes": lambda leaf, doomed, above: _replace_same_bytes(
        leaf + "/db.db"
    ),
    "subdir-added": lambda leaf, doomed, above: os.mkdir(leaf + "/oob_dir"),
    "subdir-removed": lambda leaf, doomed, above: shutil.rmtree(doomed),
    "ancestor-db-replaced": lambda leaf, doomed, above: _replace_same_bytes(
        above + "/db.db"
    ),
    "db-deleted": lambda leaf, doomed, above: os.unlink(leaf + "/db.db"),
    "subtree-moved-then-written": lambda leaf, doomed, above: (
        _move_then_write(doomed, above)
    ),
    "dir-created-and-written": lambda leaf, doomed, above: (
        _create_and_write(leaf)
    ),
}

#: start -> (the visited leaf a change lands on, the sub-directory to
#: remove). ``/`` is ``index_path``'s special case; ``/home/alice`` is
#: rolled up, so the walk visits it alone and ``sub`` stays on disk
#: unvisited.
_STARTS = {
    "/": ("/home/bob/secret", "/home/bob/secret"),
    "/home/bob": ("/home/bob/secret", "/home/bob/secret"),
    "/home/alice": ("/home/alice", "/home/alice/sub"),
}

#: (start, change) pairs no walk from that start can see: the walk never
#: reads the rolled-up ``/home/alice``'s listing, so a sub-directory
#: added, removed or moved away there changes no answer and the entry
#: keeps serving
_UNSEEN = {
    ("/home/alice", change)
    for change in ("subdir-added", "subdir-removed",
                   "subtree-moved-then-written", "dir-created-and-written")
}


class TestFreshnessMatrix:
    """Every kind of start x every kind of out-of-band change x every
    way of keeping the clock — the watch armed, unarmed (its file
    system check says no), or armed with the change made by another
    process or through another handle on the same tree: the next
    lookup misses — unless no walk can see the change — and the answer
    equals a cold engine's. So does the next warm walk on the handle,
    which takes its clean records without a stat where it is armed."""

    @staticmethod
    def _outcome(engine, start):
        try:
            result = engine.run(E_ALL, start)
        except FileNotFoundError as exc:
            return False, str(exc)
        return result.cached, sorted(result.rows)

    @pytest.mark.parametrize("change", sorted(_OOB_CHANGES))
    @pytest.mark.parametrize("start", sorted(_STARTS))
    def test_change_misses_and_rerun_equals_cold(
        self, demo_index, monkeypatch, start, change
    ):
        """The watch armed, the change made by this process."""
        self._check(demo_index, monkeypatch, start, change, "armed")

    @pytest.mark.parametrize("writer", ["unarmed", "child", "handle"])
    @pytest.mark.parametrize("change", sorted(_OOB_CHANGES))
    @pytest.mark.parametrize("start", sorted(_STARTS))
    def test_unarmed_or_child_change_misses_and_rerun_equals_cold(
        self, demo_index, monkeypatch, start, change, writer
    ):
        """The watch unarmed, or armed with the change made by a forked
        child, or through another armed handle that walks the tree
        before this one does (each handle drains its own events)."""
        self._check(demo_index, monkeypatch, start, change, writer)

    def _check(self, demo_index, monkeypatch, start, change, writer):
        if change == "ancestor-db-replaced" and start == "/":
            pytest.skip("the root has no ancestor")
        (_unarm if writer == "unarmed" else _arm)(monkeypatch)
        rollup(demo_index, nthreads=NTHREADS)
        assert demo_index.dir_meta("/home/alice").rolledup
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        # the same handle with no result cache: every run walks
        warm = QueryEngine(demo_index, nthreads=NTHREADS)
        index = demo_index
        if writer == "handle":
            index = GUFIIndex.open(demo_index.root)
            index.arm_watch()
        other = QueryEngine(index, nthreads=NTHREADS)
        try:
            assert (demo_index.watch is not None) is (writer != "unarmed")
            assert not eng.run(E_ALL, start).cached
            # unchanged index -> hit, and the same rows as a cold run
            cached, rows = self._outcome(eng, start)
            assert cached and rows == cold_rows(demo_index, E_ALL, start=start)
            # twice: the first run checks the stamps, the second trusts
            # the watch where it is armed
            for _ in range(2):
                assert self._outcome(warm, start) == (False, rows)
                assert self._outcome(other, start) == (False, rows)
            cache.close()  # no push hook either: the clock and stamps alone
            args = (
                *map(index.index_path, _STARTS[start]),
                index.index_path(start.rsplit("/", 1)[0]),
            )
            if writer == "child":
                _in_child(_OOB_CHANGES[change], *args)
            else:
                _OOB_CHANGES[change](*args)
            with QueryEngine(demo_index, nthreads=NTHREADS) as cold:
                want = self._outcome(cold, start)
            assert self._outcome(other, start) == want
            assert self._outcome(warm, start) == want
            unseen = (start, change) in _UNSEEN
            hits = cache.hits
            cached, got = self._outcome(eng, start)
            assert cached is unseen and cache.hits == hits + unseen
            assert (False, got) == want
        finally:
            eng.close()
            warm.close()
            other.close()


class TestWriteClock:
    """The inotify watch behind the write clock: it follows the tree's
    shape, gives up where it cannot vouch, and every lookup is a miss
    or a hit equal to a cold run."""

    @pytest.fixture
    def armed(self, demo_index, monkeypatch):
        _arm(monkeypatch)
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        assert eng.index.watch is not None
        yield eng, cache
        eng.close()

    @staticmethod
    def _cached(eng, start="/") -> bool:
        """Run ``E_ALL``: its rows must equal a cold run's; was it a hit?"""
        r = eng.run(E_ALL, start)
        assert sorted(r.rows) == cold_rows(eng.index, E_ALL, start=start)
        return r.cached

    def test_new_directory_inside_a_moved_subtree(self, armed):
        """A directory moved within the tree keeps its descriptor; its
        path is rewritten, so a directory created under it later is
        watched at the right place, and a write there — invisible to
        a clock that missed it — makes the next lookup miss."""
        eng, cache = armed
        index = eng.index
        w = eng.index.watch
        cache.close()  # no push hook: the clock and the stamps alone
        assert not self._cached(eng) and self._cached(eng)
        src = index.index_path("/home/bob/secret")
        dst = index.index_path("/public") + "/moved"
        os.rename(src, dst)
        assert not self._cached(eng) and self._cached(eng)
        assert dst in w.paths.values() and src not in w.paths.values()
        _create_and_write(dst)
        assert not self._cached(eng) and self._cached(eng)
        assert dst + "/oob_new" in w.paths.values()
        _write_in_place(dst + "/oob_new/db.db", journal_mode="MEMORY")
        assert not self._cached(eng)

    def test_directory_created_before_its_parent_moved(self, armed):
        """A directory created, then its parent moved, before either
        event is read: the move's walk picks the new directory up at
        its final place."""
        eng, cache = armed
        index = eng.index
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        parent = index.index_path("/home/bob/secret")
        _create_and_write(parent)
        moved = index.index_path("/public") + "/moved"
        os.rename(parent, moved)
        assert not self._cached(eng) and self._cached(eng)
        assert moved + "/oob_new" in eng.index.watch.paths.values()
        _write_in_place(moved + "/oob_new/db.db", journal_mode="MEMORY")
        assert not self._cached(eng)

    def test_root_repointed_by_a_symlink_swap(self, demo_tree, tmp_path,
                                              monkeypatch):
        """A publisher swaps ``current`` to a new version: the root
        resolves to another directory, the watch gives up and the
        stamps (on the new files) decide."""
        _arm(monkeypatch)
        v0 = dir2index(demo_tree, tmp_path / "v0", opts=OPTS).index
        shutil.copytree(v0.root, tmp_path / "v1")
        _write_in_place(str(tmp_path / "v1" / "public" / "db.db"), "swapped")
        os.symlink("v0", tmp_path / "current")
        index = GUFIIndex.open(tmp_path / "current")
        cache = ResultCache()
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as eng:
            assert not self._cached(eng) and self._cached(eng)
            os.symlink("v1", tmp_path / "next")
            os.replace(tmp_path / "next", tmp_path / "current")
            r = eng.run(E_ALL)
            assert not r.cached
            assert any("swapped" in str(row[0]) for row in r.rows)
            assert sorted(r.rows) == cold_rows(index, E_ALL)
            assert not eng.index.watch.sync()
            assert cache.clock(index) is None
            assert self._cached(eng)  # by its stamps

    def test_a_forked_child_never_drains(self, armed):
        """The instance belongs to the parent: a child reads no clock
        and takes none of the parent's events, even its own write's;
        releasing the child's copy leaves the parent's watches."""
        eng, cache = armed
        index = eng.index
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = eng.index.watch

        def child():
            assert not w.sync() and cache.clock(index) is None
            _write_in_place(str(index.db_path("/public")), "forked.txt",
                            "MEMORY")
            assert not w.sync()
            w.release()

        _in_child(child)
        r = eng.run(E_ALL)
        assert not r.cached
        assert any("forked.txt" in str(row[0]) for row in r.rows)
        assert w.sync()

    def test_overflow_moves_the_clock_and_rearms(self, armed):
        eng, cache = armed
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = eng.index.watch
        assert w.sync()
        before, paths = eng.index.cache.epoch, dict(w.paths)
        with w.lock:
            w.dispatch(watch.EVENT.pack(-1, watch.IN_Q_OVERFLOW, 0, 0))
        assert w.armed and w.paths == paths
        assert w.sync() and eng.index.cache.epoch != before
        assert self._cached(eng)  # by its stamps, at the new clock
        _write_in_place(str(eng.index.db_path("/public")), journal_mode="MEMORY")
        assert not self._cached(eng)

    def test_overflow_that_cannot_rearm_falls_back(self, armed, monkeypatch):
        eng, cache = armed
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = eng.index.watch

        def no_watches_left(path):
            raise OSError(errno.ENOSPC, "inotify watch limit reached", path)

        monkeypatch.setattr(w, "add", no_watches_left)
        with w.lock:
            w.dispatch(watch.EVENT.pack(-1, watch.IN_Q_OVERFLOW, 0, 0))
        assert not w.armed and w.paths == {}
        assert cache.clock(eng.index) is None
        assert self._cached(eng)  # by its stamps
        _write_in_place(str(eng.index.db_path("/public")), journal_mode="MEMORY")
        assert not self._cached(eng)

    def test_deleted_directory_is_ignored(self, armed):
        """A deleted directory's descriptor goes with the kernel's
        ``IN_IGNORED``, and the deletion moves the clock."""
        eng, cache = armed
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = eng.index.watch
        doomed = eng.index.index_path("/home/bob/secret")
        (wd,) = [wd for wd, p in w.paths.items() if p == doomed]
        shutil.rmtree(doomed)
        assert not self._cached(eng)
        assert wd not in w.paths

    def test_root_gone_disarms(self, armed):
        """The root's own watch saying it was deleted or moved: nothing
        watches what may be put back at the path, even a directory that
        reuses the inode number the identity check compares."""
        eng, cache = armed
        w = eng.index.watch
        (wd,) = [wd for wd, p in w.paths.items() if p == w.real]
        with w.lock:
            w.dispatch(watch.EVENT.pack(wd, watch.IN_DELETE_SELF, 0, 0))
        assert not w.armed and cache.clock(eng.index) is None
        assert not self._cached(eng) and self._cached(eng)  # by its stamps

    def test_parse(self):
        """Names are NUL-padded to the event's length; an overflow
        carries no descriptor and no name."""
        buf = (
            watch.EVENT.pack(3, watch.IN_CREATE | watch.IN_ISDIR, 0, 8)
            + b"new\0\0\0\0\0"
            + watch.EVENT.pack(-1, watch.IN_Q_OVERFLOW, 0, 0)
            + watch.EVENT.pack(3, watch.IN_IGNORED, 0, 0)
        )
        assert list(watch.parse(buf)) == [
            (3, watch.IN_CREATE | watch.IN_ISDIR, 0, "new"),
            (-1, watch.IN_Q_OVERFLOW, 0, ""),
            (3, watch.IN_IGNORED, 0, ""),
        ]

    def test_only_allowlisted_file_systems_arm(self, demo_index, monkeypatch):
        assert not watch.fs_supported("/proc")
        _unarm(monkeypatch)
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache):
            assert demo_index.watch is None and cache.clock(demo_index) is None

    def test_released_with_its_index(self, demo_index, monkeypatch):
        """One watch per index handle: two caches bound to one handle
        share it, and another handle on the same tree has an instance
        of its own. Dropping a handle unwatches its tree and leaves the
        other's armed."""
        import gc

        _arm(monkeypatch)
        other = GUFIIndex.open(demo_index.root)
        for index, cache in (
            (demo_index, ResultCache()),
            (demo_index, ResultCache()),
            (other, ResultCache()),
        ):
            QueryEngine(index, nthreads=NTHREADS, result_cache=cache).close()
        kept, dropped = demo_index.watch, other.watch
        assert kept.fd != dropped.fd
        assert sorted(kept.paths.values()) == sorted(dropped.paths.values())
        del index, other
        gc.collect()
        assert not dropped.armed and not dropped.sync()
        assert kept.armed and kept.sync()

    def test_arming_holds_no_cache_lock(self, demo_index, monkeypatch):
        """The walk over the tree runs under the handle's own one-shot
        lock: while it is slow the binding cache stays usable, and a
        second bind of the handle waits for it instead of arming
        again."""
        _arm(monkeypatch)
        started, release = threading.Event(), threading.Event()
        walks: list[str] = []
        real_walk = watch.Watch.walk

        def slow_walk(w, top):
            walks.append(top)
            started.set()
            assert release.wait(10)
            return real_walk(w, top)

        monkeypatch.setattr(watch.Watch, "walk", slow_walk)
        cache, other = ResultCache(), ResultCache()
        binds = [
            threading.Thread(target=c.bind_index, args=(demo_index,))
            for c in (cache, other)
        ]
        binds[0].start()
        assert started.wait(10)
        binds[1].start()
        for c in (cache, other):
            assert c._lock.acquire(timeout=1)
            c._lock.release()
            assert c.stats()["entries"] == 0
        release.set()
        for t in binds:
            t.join(10)
        assert demo_index.watched and len(walks) == 1

    def test_serve_arms_before_the_first_request(
        self, demo_index, monkeypatch
    ):
        """A server with a result cache arms its handle when it is
        built, so no request pays the walk over the tree."""
        from repro.core.server import GUFIServer, IdentityProvider

        _arm(monkeypatch)
        walks: list[str] = []
        real_walk = watch.Watch.walk

        def counted_walk(w, top):
            walks.append(top)
            return real_walk(w, top)

        monkeypatch.setattr(watch.Watch, "walk", counted_walk)
        identity = IdentityProvider()
        identity.add_user("root", uid=0, gid=0)
        with GUFIServer(
            demo_index, identity, nthreads=NTHREADS, result_cache_mb=8.0
        ) as srv:
            assert demo_index.watched and len(walks) == 1
            srv.invoke("root", "du", start="/")
            srv.invoke("root", "du", start="/")
        assert len(walks) == 1

    def test_open_and_a_cli_query_arm_nothing(
        self, demo_index, monkeypatch, capsys
    ):
        from repro.cli import main

        def no_arming(*args, **kwargs):
            raise AssertionError("a one-shot handle armed a watch")

        _arm(monkeypatch)
        monkeypatch.setattr(watch, "arm", no_arming)
        assert GUFIIndex.open(demo_index.root).watch is None
        assert main([
            "query", str(demo_index.root), "-E", "SELECT name FROM entries"
        ]) == 0
        assert "b.txt" in capsys.readouterr().out

    def test_tree_over_its_budget_never_arms(self, demo_index, monkeypatch):
        """A tree takes at most its share of the user's watch budget:
        one with more directories falls back at arming, and one that
        grows past it disarms."""
        _arm(monkeypatch)
        n = len(os.listdir(demo_index.root))  # well below the tree's size
        monkeypatch.setattr(watch, "watch_budget", lambda: n)
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache):
            assert demo_index.watch is None and cache.clock(demo_index) is None
        w = watch.arm(str(demo_index.root), demo_index.cache.mark_dirty)
        assert w is None
        monkeypatch.setattr(watch, "watch_budget", lambda: 10**6)
        w = watch.arm(str(demo_index.root), demo_index.cache.mark_dirty)
        try:
            assert w.sync()
            w.budget = len(w.paths)
            os.mkdir(demo_index.index_path("/public") + "/oob_dir")
            assert not w.sync() and not w.armed
        finally:
            w.release()

    def test_budget_is_a_share_of_the_user_limit(self):
        with open("/proc/sys/fs/inotify/max_user_watches") as f:
            limit = int(f.read())
        assert watch.watch_budget() == int(limit * watch.BUDGET_SHARE)

    def test_validations_are_counted_by_rule(self, demo_index, monkeypatch):
        with obs.enabled(metrics=True):
            for arm, rule in ((_arm, "clock"), (_unarm, "stamps")):
                arm(monkeypatch)
                cache = ResultCache()
                # a handle arms once: each rule gets a handle of its own
                index = GUFIIndex.open(demo_index.root)
                with QueryEngine(
                    index, nthreads=NTHREADS, result_cache=cache
                ) as eng:
                    eng.run(E_ALL)
                    assert eng.run(E_ALL).cached
                    assert obs.snapshot().counter(
                        "gufi_result_cache_validations_total", rule=rule
                    ) == 1


def _overflow(index) -> None:
    with index.watch.lock:
        index.watch.dispatch(watch.EVENT.pack(-1, watch.IN_Q_OVERFLOW, 0, 0))


def _disarm(index) -> None:
    with index.watch.lock:
        index.watch.disarm()


def _drained_batch(index) -> None:
    _write_in_place(str(index.db_path("/proj/shared")), journal_mode="MEMORY")
    assert index.sync()


#: each way a handle hears of a write; none of them touches ``/home``
_SIGNALS = {
    "invalidate": lambda index: index.cache.invalidate("/proj/shared"),
    "invalidate_subtree": (
        lambda index: index.cache.invalidate_subtree("/proj/shared")
    ),
    "clear": lambda index: index.cache.clear(),
    "drained_batch": _drained_batch,
    "overflow": _overflow,
    "disarm": _disarm,
}


class TestOneChangeSignal:
    """The handle's epoch is its one change counter and the result
    cache's write clock: every way the handle hears of a write advances
    it, and a capture during which it moved stores nothing."""

    @pytest.mark.parametrize("signal", sorted(_SIGNALS))
    def test_each_signal_moves_the_epoch(self, demo_index, monkeypatch,
                                         signal):
        _arm(monkeypatch)
        cache = ResultCache()
        key = make_key(ROOT, E_ALL, None, "/home")

        def by_clock():
            return cache.lookup(key, demo_index, admits=lambda entry: True)

        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            eng.run(E_ALL, "/home")
            assert by_clock() is not None
            before = demo_index.cache.epoch
            _SIGNALS[signal](demo_index)
            assert demo_index.cache.epoch != before
            assert by_clock() is None
            # what declined it was the clock: the stamps still pass,
            # unless the entry went with everything else
            assert (cache.lookup(key, demo_index) is None) == (
                signal == "clear"
            )

    def test_a_batch_drained_mid_capture_aborts_the_store(
        self, demo_tree, demo_index, monkeypatch
    ):
        """A write through another handle, drained by a concurrent
        lookup while a capture is in flight: the capture may have taken
        a record the batch marks dirty, so it stores nothing."""
        _arm(monkeypatch)
        cache = ResultCache()
        other = GUFIIndex.open(demo_index.root)
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            eng.run(E_ALL, "/proj")
            elsewhere = make_key(ROOT, E_ALL, None, "/proj")
            sink, fired = MemorySink(), []
            emit = sink.emit

            def write_and_drain(path, rows):
                if not fired:
                    fired.append(path)
                    update_directory(other, demo_tree, "/public")
                    t = threading.Thread(
                        target=cache.lookup, args=(elsewhere, demo_index)
                    )
                    t.start()
                    t.join(10)
                emit(path, rows)

            sink.emit = write_and_drain  # type: ignore[method-assign]
            aborts = cache.capture_aborts
            eng.run(E_ALL, "/home", sink=sink)
            assert fired and cache.capture_aborts == aborts + 1
            assert not self._cached(eng, "/home") and self._cached(eng, "/home")

    @staticmethod
    def _cached(eng, start) -> bool:
        r = eng.run(E_ALL, start)
        assert sorted(r.rows) == cold_rows(eng.index, E_ALL, start=start)
        return r.cached


class TestCredentialScoping:
    def test_no_replay_across_principals(self, cached_engine):
        eng, cache = cached_engine
        index = eng.index
        root_rows = sorted(eng.run(E_ALL).rows)
        alice = QueryEngine(
            index, creds=ALICE, nthreads=NTHREADS,
            result_cache=cache,
        )
        bob = QueryEngine(
            index, creds=BOB, nthreads=NTHREADS, result_cache=cache
        )
        try:
            ra = alice.run(E_ALL)
            assert not ra.cached  # root's entry must not serve alice
            assert sorted(ra.rows) == cold_rows(index, E_ALL, ALICE)
            rb = bob.run(E_ALL)
            assert not rb.cached
            assert sorted(rb.rows) == cold_rows(index, E_ALL, BOB)
            # alice's private rows never reachable through bob's key
            assert not any("/home/alice/" in str(r[0]) for r in rb.rows)
            assert sorted(ra.rows) != sorted(rb.rows) != root_rows
            # every principal hits its own entry on re-run
            assert alice.run(E_ALL).cached
            assert bob.run(E_ALL).cached
        finally:
            alice.close()
            bob.close()

    def test_scope_budget_confines_one_tenants_evictions(self, demo_index):
        cache = ResultCache()
        alice = QueryEngine(
            demo_index, creds=ALICE, nthreads=NTHREADS, result_cache=cache
        )
        root = QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        )
        try:
            root.run(E_ALL, "/home")  # measure one entry
            per_entry = cache.total_bytes
            cache.clear()
            # one /home-sized entry fits per scope; a second does not
            cache.max_scope_bytes = per_entry
            root.run(E_ALL, "/home")
            alice.run(E_ALL, "/home")  # separate scope, separate budget
            root.run(E_ALL, "/proj")  # busts *root's* budget only
            assert cache.evictions >= 1
            assert alice.run(E_ALL, "/home").cached  # alice untouched
            assert not root.run(E_ALL, "/home").cached  # root's LRU gone
        finally:
            alice.close()
            root.close()


def _nbytes_by_the_original_loop(rows) -> int:
    """The byte estimate as first written: 64 a row, a value's length
    where it is ``str`` or ``bytes``, 16 for any other value."""
    n = 0
    for row in rows:
        n += 64
        for v in row:
            if isinstance(v, (str, bytes)):
                n += len(v)
            else:
                n += 16
    return n


class _Name(str):
    pass


_VALUES = st.one_of(
    st.text(max_size=8), st.binary(max_size=8), st.integers(),
    st.floats(allow_nan=False), st.none(), st.builds(_Name, st.text(max_size=8)),
)


class TestBounds:
    @given(rows=st.lists(st.lists(_VALUES, max_size=5).map(tuple), max_size=20))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_row_sizing_keeps_its_sum(self, rows):
        """Every entry's byte budget is this sum: a faster computation
        must give the same one — for ``str``, ``bytes``, ``int``,
        ``float``, ``None`` and ``str`` subclasses, in rows of mixed
        widths (empty ones too) in one batch."""
        from repro.core.engine.resultcache import _rows_nbytes

        fixed = [("é" * 3, b"\x00\x01", 7, 2.5, None, _Name("sub")), (), (1,)]
        for batch in (rows, fixed, fixed + rows):
            assert _rows_nbytes(batch) == _nbytes_by_the_original_loop(batch)

    def test_lru_eviction_by_entry_count(self, cached_engine):
        eng, cache = cached_engine
        cache.max_entries = 2
        eng.run(E_ALL, "/home")
        eng.run(E_ALL, "/proj")
        eng.run(E_ALL, "/public")  # evicts /home (LRU)
        assert len(cache) == 2
        assert not eng.run(E_ALL, "/home").cached
        assert cache.evictions >= 1

    def test_oversized_entry_is_not_stored(self, demo_index):
        cache = ResultCache(max_entry_bytes=64)
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            r1 = eng.run(E_ALL)
            r2 = eng.run(E_ALL)
            assert not r2.cached  # overflowed the tee, nothing stored
            assert len(cache) == 0
            assert sorted(r1.rows) == sorted(r2.rows)
        finally:
            eng.close()

    def test_byte_budget_evicts_lru_first(self, cached_engine):
        eng, cache = cached_engine
        eng.run(E_ALL, "/home")
        eng.run(E_ALL, "/proj")
        entry_bytes = cache.total_bytes
        cache.max_bytes = max(1, entry_bytes - 1)  # force one eviction
        eng.run(E_ALL, "/public")
        assert cache.total_bytes <= cache.max_bytes
        assert cache.evictions >= 1


class TestBinding:
    """Cache keys do not name the index, so a cache serves one index
    handle, hooked once; a dropped cache unhooks itself."""

    def test_second_index_is_refused(self, demo_index, tmp_path):
        """Regression: two indexes of different trees behind one cache
        with an exclusive journal — the second was served the first's
        rows as hits, and no stamp pass ran to catch it."""
        tree = build_demo_tree()
        tree.create_file("/public/only_in_b", size=3, uid=0, gid=0)
        other = dir2index(tree, tmp_path / "b", opts=OPTS).index
        cache = ResultCache()
        cache.attach_journal(ChangeJournal(), exclusive=True)
        spec = QuerySpec(E="SELECT name FROM entries")
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as q:
            q.run(spec)
        for _ in range(2):  # closed, it still holds the first's entries
            with pytest.raises(ValueError, match="one index handle"):
                QueryEngine(other, nthreads=NTHREADS, result_cache=cache)
            cache.close()
        assert other.cache._listeners == []

    def test_bind_is_idempotent_per_index(self, demo_index):
        cache = ResultCache()
        listeners = demo_index.cache._listeners
        e1 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        e2 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            assert len(listeners) == 1
        finally:
            e1.close()
            e2.close()
        cache.close()
        assert listeners == []
        # the same handle again after close: hooked once more
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as q:
            assert len(listeners) == 1
            q.run(E_ALL)
            demo_index.invalidate_cache("/public")  # the push arrives
            assert cache.invalidations == 1 and len(cache) == 0

    def test_close_unhooks_listeners(self, demo_index):
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            n = len(demo_index.cache._listeners)
            assert n >= 1
            cache.close()
            assert len(demo_index.cache._listeners) == n - 1
            cache.close()  # idempotent
        finally:
            eng.close()

    def test_dead_cache_listener_self_removes(self, demo_index):
        import gc

        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        eng.close()
        del eng, cache
        gc.collect()
        # the orphaned hook drops itself on the next notification
        demo_index.cache.invalidate("/public")
        assert len(demo_index.cache._listeners) == 0


class TestWhereACacheAttaches:
    """A replay reads nothing, so a traced engine would record a false
    trace, and scatter workers validate their reads in other
    processes: a cache attaches only to a single-process, untraced
    engine."""

    @pytest.mark.parametrize("make", [QueryEngine, GUFITools])
    @pytest.mark.parametrize(
        "kwargs",
        [{"processes": 2}, {"tracer": IOTracer()}],
        ids=["processes", "tracer"],
    )
    def test_refused(self, demo_index, make, kwargs):
        with pytest.raises(ValueError, match="single-process, untraced"):
            make(demo_index, nthreads=NTHREADS, result_cache=ResultCache(),
                 **kwargs)


class TestMetricNames:
    def test_every_result_cache_metric_is_exported(self, demo_tree, tmp_path):
        """The seven ``gufi_result_cache_*`` names are a contract with
        dashboards: a miss, a hit, an invalidation, a donor re-run and
        an eviction export every one of them."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        with obs.enabled(metrics=True):
            cache = ResultCache(max_entries=1)
            with QueryEngine(
                index, nthreads=NTHREADS, result_cache=cache
            ) as eng:
                assert not eng.run(Q1_LIST_PATHS, "/public").cached
                assert eng.run(Q1_LIST_PATHS, "/public").cached
                demo_tree.create_file("/public/xonly/fresh.txt", size=1)
                update_directory(index, demo_tree, "/public/xonly", opts=OPTS)
                assert not eng.run(Q1_LIST_PATHS, "/public").cached
                assert cache.stats()["dirs_reused"] > 0
                eng.run(Q1_LIST_PATHS, "/home")
                assert cache.evictions == 1
            text = to_prometheus(obs.snapshot())
        for name in (
            "gufi_result_cache_hits_total",
            "gufi_result_cache_misses_total",
            "gufi_result_cache_invalidations_total",
            "gufi_result_cache_evictions_total",
            "gufi_result_cache_dirs_reused_total",
            "gufi_result_cache_validate_seconds",
            "gufi_result_cache_validations_total",
        ):
            assert name in text, name


COUNTERS = (
    "dirs_visited", "dirs_denied", "dbs_opened", "dirs_errored",
    "dirs_pruned_by_plan", "attaches_elided",
)
#: stream-shaped (S and E rows, no scratch table), with a plan whose
#: stats gate drops E almost everywhere while S keeps the attach: the
#: reuse step's ``dirs_pruned_by_plan`` tally
S_AND_BIG_E = QuerySpec(
    S="SELECT spath(name, isroot) FROM summary",
    E="SELECT rpath(dname, d_isroot, name) FROM vrpentries "
      "WHERE size >= 4194304",
)


def outcome(result):
    """What a re-run must share with a cold run: rows and counters."""
    return sorted(result.rows), {f: getattr(result, f) for f in COUNTERS}


def cold_outcome(index, spec, creds=ROOT, plan=None, start="/"):
    with QueryEngine(index, creds=creds, nthreads=NTHREADS) as cold:
        return outcome(cold.run(spec, start, plan=plan))


@contextlib.contextmanager
def attached_dirs(index):
    """Source paths of the directory databases attached for a walk
    inside the block (side databases attach under other aliases)."""
    seen: list[str] = []
    real = connect.attach_ro

    def counting(conn, path, alias, tracer=None):
        if alias == "gufi":
            seen.append(index.source_path(Path(path).parent))
        return real(conn, path, alias, tracer)

    connect.attach_ro = counting
    try:
        yield seen
    finally:
        connect.attach_ro = real


def db_stamps(index):
    return {
        index.source_path(d): file_stamp(d / "db.db")
        for d in index.iter_index_dirs()
    }


def posix_file_paths(tree, creds, top="/"):
    """What ``find <top> ! -type d`` prints for ``creds`` on the source
    tree — the paper's definition of what a user may see."""
    from repro.baselines import posix_tools
    from repro.fs.mounts import MountedFS
    from repro.sim.netfs import TMPFS_LOCAL

    listed, _ = posix_tools._walk(MountedFS(tree, TMPFS_LOCAL), top, creds)
    return sorted(
        p for p, st in listed if (st.st_mode & 0o170000) != 0o040000
    )


class TestReuseBudget:
    """The re-read after a write costs its changes: a stale entry's
    re-run attaches the directories whose ``db.db`` changed and no
    other, and is otherwise a cold run."""

    @staticmethod
    def _write(ns, index, journal, writer, k=4):
        """File creates in ``k`` spread-out directories, a chmod and a
        mkdir — applied by the changefeed on the engine's own handle,
        or by ``update_directory`` on a foreign one (no hook fires, no
        journal is read: only stamps can tell)."""
        tree = ns.tree
        dirs = sorted(db_stamps(index))
        targets = dirs[1 :: max(1, len(dirs) // k)][:k]
        for i, d in enumerate(targets):
            tree.create_file(f"{d}/reuse{i}.dat", size=1 << (20 + i))
        tree.chmod(targets[0], 0o755)
        new = f"{targets[-1]}/reuse_dir"
        tree.mkdir(new, mode=0o755)
        tree.create_file(f"{new}/inside.dat", size=7)
        if writer == "changefeed":
            changefeed2index(index, tree, journal, opts=OPTS)
        else:
            foreign = GUFIIndex.open(index.root)
            for d in targets + [new]:
                update_directory(foreign, tree, d, opts=OPTS)

    @pytest.mark.parametrize("writer", ["changefeed", "foreign"])
    @pytest.mark.parametrize("creds", [ROOT, ALICE], ids=["root", "user"])
    @pytest.mark.parametrize("rolled", [False, True], ids=["flat", "rolled"])
    def test_rerun_attaches_only_what_changed(
        self, tmp_path, rolled, creds, writer
    ):
        ns = dataset2(scale=0.00005, seed=22)
        index = dir2index(ns.tree, tmp_path / "idx", opts=OPTS).index
        if rolled:
            rollup(index, nthreads=NTHREADS)
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        if writer == "changefeed":
            cache = ResultCache()
            cache.attach_journal(journal, exclusive=True)
        else:
            cache = ResultCache()
        eng = QueryEngine(
            index, creds=creds, nthreads=NTHREADS, result_cache=cache
        )
        specs = (Q1_LIST_PATHS, Q2_DIR_SIZES)  # find /, dir_sizes /
        try:
            captured = {}
            for spec in specs:
                with attached_dirs(index) as seen:
                    assert not eng.run(spec).cached
                captured[spec.E or spec.S] = set(seen)
            before = db_stamps(index)
            self._write(ns, index, journal, writer)
            changed = {
                p for p, s in db_stamps(index).items() if before.get(p) != s
            }
            assert changed and any(p not in before for p in changed)
            for spec in specs:
                reused = cache.stats()["dirs_reused"]
                with attached_dirs(index) as seen:
                    rerun = eng.run(spec)
                assert not rerun.cached
                with attached_dirs(index) as opened:
                    want = cold_outcome(index, spec, creds)
                assert outcome(rerun) == want
                # every attach is of a changed database — or of one the
                # captured walk never opened: it lay under a rollup the
                # write undid — each once, and nothing that changed was
                # taken from the donor (a changed directory the user is
                # denied may be attached for its permission read and
                # never opened)
                fresh = set(opened) - captured[spec.E or spec.S]
                assert len(seen) == len(set(seen))
                assert changed & set(opened) <= set(seen) <= changed | fresh
                assert fresh <= set(seen) and (rolled or fresh <= changed)
                assert len(seen) < len(opened)
                assert cache.stats()["dirs_reused"] - reused == len(
                    set(opened) - set(seen)
                )
                with attached_dirs(index) as seen:
                    assert outcome(eng.run(spec)) == want
                assert seen == []
            assert cache.stats()["stale"] == 0 and len(cache) == 2
            if creds is ROOT:
                assert set(opened) >= changed  # root's walk met them all
        finally:
            eng.close()

    def test_plan_pruned_directories_are_tallied_on_reuse(self, tmp_path):
        """S keeps the attach where the stats gate drops E: a reused
        directory still counts as pruned by the plan, as a cold run on
        the same warm handle counts it."""
        from repro.core.plan import plan_for
        from repro.core.tools import FindFilters

        ns = dataset2(scale=0.00005, seed=22)
        index = dir2index(ns.tree, tmp_path / "idx", opts=OPTS).index
        plan = plan_for(FindFilters(min_size=1 << 22))
        cache = ResultCache()
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            first = eng.run(S_AND_BIG_E, plan=plan)
            assert 0 < first.dirs_pruned_by_plan < first.dirs_visited
            victim = sorted(db_stamps(index))[3]
            ns.tree.create_file(f"{victim}/big.dat", size=1 << 23)
            update_directory(index, ns.tree, victim, opts=OPTS)
            # every DirMeta warm again, so both runs below gate alike
            cold_outcome(index, Q1_LIST_PATHS)
            with attached_dirs(index) as seen:
                rerun = eng.run(S_AND_BIG_E, plan=plan)
            assert seen == [victim] and not rerun.cached
            assert rerun.dirs_pruned_by_plan > 0
            assert outcome(rerun) == cold_outcome(
                index, S_AND_BIG_E, plan=plan
            )
            assert any(r[0].endswith("/big.dat") for r in rerun.rows)

    @pytest.mark.parametrize("shape", ["du", "largest_files", "xattrs"])
    def test_other_entries_drop_and_attach_everything(self, tmp_path, shape):
        """Aggregates carry state between directories and xattr views
        read side databases: invalidation drops those entries as it
        always did and the re-run reads every database."""
        ns = dataset2(scale=0.00005, seed=22)
        index = dir2index(ns.tree, tmp_path / "idx", opts=OPTS).index
        spec = {
            "du": Q3_DU_SUMMARIES,
            "largest_files": QuerySpec(
                I="CREATE TABLE top (p TEXT, size INTEGER)",
                E="INSERT INTO top SELECT name, size FROM pentries "
                  "ORDER BY size DESC LIMIT 3",
                J="INSERT INTO aggregate.top SELECT p, size FROM top",
                G="SELECT p, size FROM top ORDER BY size DESC LIMIT 3",
            ),
            "xattrs": QuerySpec(
                E="SELECT name, exattrs FROM xpentries", xattrs=True
            ),
        }[shape]
        cache = ResultCache()
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        try:
            first = eng.run(spec)
            assert len(cache) == 1
            victim = sorted(db_stamps(index))[3]
            ns.tree.create_file(f"{victim}/more.dat", size=99)
            update_directory(index, ns.tree, victim, opts=OPTS)
            assert len(cache) == 0 and cache.stats()["stale"] == 0
            assert cache._entries == {} and cache.total_bytes == 0
            with attached_dirs(index) as seen:
                rerun = eng.run(spec)
            assert not rerun.cached and cache.stats()["dirs_reused"] == 0
            assert sorted(rerun.rows) == cold_rows(index, spec)
            assert len(seen) == rerun.dbs_opened == first.dbs_opened
            assert eng.run(spec).cached
        finally:
            eng.close()


class TestReuseSecurity:
    """Reuse cannot widen visibility: permission is decided afresh for
    every directory whose database or listing changed, and a directory
    is reached only through its parent's descent, so rows the donor
    holds for a directory the user may no longer reach are simply
    never asked for."""

    @staticmethod
    def _tree():
        t = build_demo_tree()
        # a readable subtree to lose, and a hidden one to gain
        t.mkdir("/public/open", mode=0o755)
        t.mkdir("/public/open/deep", mode=0o755)
        t.create_file("/public/open/deep/o.dat", size=5)
        t.mkdir("/public/shut", mode=0o700)
        t.mkdir("/public/shut/deep", mode=0o755)
        t.create_file("/public/shut/deep/s.dat", size=6)
        return t

    @pytest.mark.parametrize("rolled", [False, True], ids=["flat", "rolled"])
    def test_chmod_between_reads(self, tmp_path, rolled):
        tree = self._tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        if rolled:
            rollup(index, nthreads=NTHREADS)
        cache = ResultCache()
        with QueryEngine(
            index, creds=BOB, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            first = sorted(r[0] for r in eng.run(Q1_LIST_PATHS).rows)
            assert first == posix_file_paths(tree, BOB)
            assert "/public/open/deep/o.dat" in first
            assert "/public/shut/deep/s.dat" not in first
            tree.chmod("/public/open", 0o700)
            update_directory(index, tree, "/public/open", opts=OPTS)
            tree.chmod("/public/shut", 0o755)
            update_directory(index, tree, "/public/shut", opts=OPTS)
            rerun = eng.run(Q1_LIST_PATHS)
            got = sorted(r[0] for r in rerun.rows)
            assert not rerun.cached and cache.stats()["dirs_reused"] > 0
            # the donor still holds /public/open/deep's rows, under an
            # unchanged stamp — behind a directory Bob cannot enter
            assert "/public/open/deep/o.dat" not in got
            assert "/public/shut/deep/s.dat" in got
            assert got == posix_file_paths(tree, BOB)
            assert outcome(rerun) == cold_outcome(index, Q1_LIST_PATHS, BOB)

    def test_chmod_of_an_ancestor_of_the_start(self, tmp_path):
        tree = self._tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        start = "/public/open/deep"
        cache = ResultCache()
        with QueryEngine(
            index, creds=BOB, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            assert eng.run(Q1_LIST_PATHS, start).rows
            tree.chmod("/public/open", 0o700)
            update_directory(index, tree, "/public/open", opts=OPTS)
            assert posix_file_paths(tree, BOB, start) == []
            from repro.core.engine import QueryPermissionError

            with pytest.raises(QueryPermissionError):
                eng.run(Q1_LIST_PATHS, start)
            tree.chmod("/public/open", 0o711)  # search only: enough
            update_directory(index, tree, "/public/open", opts=OPTS)
            rerun = eng.run(Q1_LIST_PATHS, start)
            assert not rerun.cached
            assert sorted(r[0] for r in rerun.rows) == posix_file_paths(
                tree, BOB, start
            )

    def test_errored_directory_is_no_donor(self, tmp_path):
        """A directory whose database could not be read at capture has
        no rows to donate; once repaired it is read, and while broken
        it is counted as a cold run counts it."""
        tree = self._tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        broken = index.db_path("/public/open")
        good = broken.read_bytes()
        broken.write_bytes(good[:100])  # truncated: not a database
        cache = ResultCache()
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            first = eng.run(Q1_LIST_PATHS)
            assert first.dirs_errored == 1
            key = make_key(ROOT, Q1_LIST_PATHS, None, "/")
            assert "/public/open" not in cache._entries[key].outcomes
            assert "/public/open" in cache._entries[key].stamps
            # something else changes: the broken directory is met again
            tree.create_file("/home/bob/new.txt", size=1)
            update_directory(index, tree, "/home/bob", opts=OPTS)
            with attached_dirs(index) as seen:
                rerun = eng.run(Q1_LIST_PATHS)
            assert sorted(seen) == ["/home/bob", "/public/open"]
            assert rerun.dirs_errored == 1
            assert outcome(rerun) == cold_outcome(index, Q1_LIST_PATHS)
            broken.write_bytes(good)  # repaired out of band
            rerun = eng.run(Q1_LIST_PATHS)
            assert not rerun.cached and rerun.dirs_errored == 0
            assert outcome(rerun) == cold_outcome(index, Q1_LIST_PATHS)

    def test_invalidation_during_the_rerun_leaves_the_donor_stale(
        self, cached_engine
    ):
        eng, cache = cached_engine
        eng.run(E_ALL)
        eng.index.invalidate_cache("/public")
        assert cache.stats()["stale"] == 1
        real_store = cache.store

        def racing_store(key, capture, result, index, inv_seq):
            eng.index.invalidate_cache("/proj")  # a writer, mid-run
            return real_store(key, capture, result, index, inv_seq)

        cache.store = racing_store
        try:
            r = eng.run(E_ALL)
        finally:
            cache.store = real_store
        assert not r.cached and cache.capture_aborts == 1
        assert sorted(r.rows) == cold_rows(eng.index, E_ALL)
        assert len(cache) == 0 and cache.stats()["stale"] == 1
        r = eng.run(E_ALL)  # the same donor serves the next attempt
        assert not r.cached and sorted(r.rows) == cold_rows(eng.index, E_ALL)
        assert len(cache) == 1 and cache.stats()["stale"] == 0
        assert eng.run(E_ALL).cached


#: stream-shaped and planned: the stats gate drops E nearly everywhere,
#: so most directories have no surviving stage
BIG_E = QuerySpec(E=S_AND_BIG_E.E)


def _stamps_of_tree(index):
    """Every index directory's ``db.db`` and listing stamps."""
    from repro.store.layout import dir_stamp

    return {
        index.source_path(d): (file_stamp(d / "db.db"), dir_stamp(str(d)))
        for d in index.iter_index_dirs()
    }


def _mid_replay(index, monkeypatch, at, action):
    """Run ``action()`` once, when a re-run's record lookup (a donor
    check among them) is asked for the ``at``-th time; returns the list
    of lookups asked after it."""
    real = index.cache.get_meta
    calls: list[str] = []
    after: list[str] = []

    def checking(path, *args):
        calls.append(path)
        if len(calls) == at:
            action()
        elif len(calls) > at:
            after.append(path)
        return real(path, *args)

    monkeypatch.setattr(index.cache, "get_meta", checking)
    return after


class TestReplayedDecisions:
    """A stale entry donates each directory's decision: where a
    directory's ``db.db`` and listing are the ones the donor decided it
    under, the re-run replays it — no permission check, no gates, no
    hand-off — and still returns exactly what a run without a donor
    returns, rows and all six counters."""

    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    def test_permission_is_decided_only_where_a_stamp_changed(
        self, tmp_path, monkeypatch, armed
    ):
        from repro.core.engine.traversal import Traversal

        (_arm if armed else _unarm)(monkeypatch)
        ns = dataset2(scale=0.00005, seed=22)
        index = dir2index(ns.tree, tmp_path / "idx", opts=OPTS).index
        cache = ResultCache()
        with QueryEngine(
            index, creds=ALICE, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            eng.run(Q1_LIST_PATHS)
            before = _stamps_of_tree(index)
            victim = sorted(before)[3]
            ns.tree.create_file(f"{victim}/one_more.dat", size=3)
            update_directory(index, ns.tree, victim, opts=OPTS)
            after = _stamps_of_tree(index)
            changed = {p for p in after if after[p] != before.get(p)}
            assert victim in changed and len(changed) < len(after) // 4
            by_stamp = {s[0]: p for p, s in after.items()}
            decided: list[str] = []
            real = Traversal.permitted

            def permitted(trav, meta):
                decided.append(by_stamp[meta.stamp])
                return real(trav, meta)

            monkeypatch.setattr(Traversal, "permitted", permitted)
            rerun = eng.run(Q1_LIST_PATHS)
            monkeypatch.undo()
            assert not rerun.cached and cache.stats()["dirs_reused"] > 0
            assert decided and set(decided) <= changed
            assert len(decided) == len(set(decided))
            assert outcome(rerun) == cold_outcome(index, Q1_LIST_PATHS, ALICE)

    def test_no_stage_survives_is_recorded_and_replayed_elided(
        self, tmp_path
    ):
        """A cold capture attaches a directory its plan prunes whole (no
        record to elide it with yet); the entry records "no stage
        survives", and the re-run tallies it as a warm walk does."""
        from repro.core.engine.types import KIND, NO_STAGE, PLAN_PRUNED
        from repro.core.plan import plan_for
        from repro.core.tools import FindFilters

        ns = dataset2(scale=0.00005, seed=22)
        dir2index(ns.tree, tmp_path / "idx", opts=OPTS)
        index = GUFIIndex.open(tmp_path / "idx")  # no record cached
        plan = plan_for(FindFilters(min_size=1 << 22))
        cache = ResultCache()
        with QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            first = eng.run(BIG_E, plan=plan)
            assert first.attaches_elided == 0 and first.dirs_pruned_by_plan
            key = make_key(ROOT, BIG_E, plan, "/")
            outcomes = cache._entries[key].outcomes
            none_survive = [
                p for p, code in outcomes.items() if code & KIND == NO_STAGE
            ]
            assert len(none_survive) == first.dirs_pruned_by_plan
            assert all(outcomes[p] & PLAN_PRUNED for p in none_survive)
            # one of them gains a file the plan cannot prune
            victim = sorted(none_survive)[1]
            ns.tree.create_file(f"{victim}/big.dat", size=1 << 23)
            update_directory(index, ns.tree, victim, opts=OPTS)
            assert cache.stats()["stale"] == 1
            with attached_dirs(index) as seen:
                rerun = eng.run(BIG_E, plan=plan)
            assert seen == [victim] and not rerun.cached
            assert rerun.attaches_elided == len(none_survive) - 1
            assert outcome(rerun) == cold_outcome(index, BIG_E, plan=plan)
            assert any(r[0].endswith("/big.dat") for r in rerun.rows)
            assert eng.run(BIG_E, plan=plan).cached

    @pytest.mark.parametrize("creds", [ROOT, BOB], ids=["root", "bob"])
    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    @pytest.mark.parametrize("change", sorted(_OOB_CHANGES))
    @pytest.mark.parametrize("start", sorted(_STARTS))
    def test_every_change_rerun_equals_a_run_without_donor(
        self, demo_index, monkeypatch, start, change, armed, creds
    ):
        if change == "ancestor-db-replaced" and start == "/":
            pytest.skip("the root has no ancestor")
        (_arm if armed else _unarm)(monkeypatch)
        rollup(demo_index, nthreads=NTHREADS)
        index = demo_index
        cache = ResultCache()
        with QueryEngine(
            index, creds=creds, nthreads=NTHREADS, result_cache=cache
        ) as eng, QueryEngine(index, creds=creds, nthreads=NTHREADS) as plain:

            def run(engine):
                try:
                    return outcome(engine.run(E_ALL, start))
                except (FileNotFoundError, PermissionError) as exc:
                    return type(exc).__name__

            assert (index.watch is not None) is armed
            first = run(eng)
            plain.run(E_ALL)  # every record checked (clean, when armed)
            _OOB_CHANGES[change](
                *map(index.index_path, _STARTS[start]),
                index.index_path(start.rsplit("/", 1)[0]),
            )
            key = make_key(creds, E_ALL, None, start)
            if isinstance(first, str) or cache.lookup(key, index):
                return  # stored nothing, or no walk can see the change
            assert cache.stats()["stale"] == 1
            rerun = run(eng)
            assert rerun == run(plain)
            assert cache.stats()["stale"] == 0 or isinstance(rerun, str)

    @pytest.mark.parametrize("writer", ["own", "foreign"])
    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    def test_ancestor_tightened_after_capture_hides_its_subtree(
        self, tmp_path, monkeypatch, armed, writer
    ):
        """``/public/open`` is republished owner-only after Bob's
        capture; every directory below it is unchanged and would pass
        its own check, but none is reached."""
        (_arm if armed else _unarm)(monkeypatch)
        tree = TestReuseSecurity._tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        cache = ResultCache()
        with QueryEngine(
            index, creds=BOB, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            first = [r[0] for r in eng.run(Q1_LIST_PATHS).rows]
            assert "/public/open/deep/o.dat" in first
            tree.chmod("/public/open", 0o700)
            target = index if writer == "own" else GUFIIndex.open(index.root)
            update_directory(target, tree, "/public/open", opts=OPTS)
            rerun = eng.run(Q1_LIST_PATHS)
            got = sorted(r[0] for r in rerun.rows)
            assert not rerun.cached and cache.stats()["dirs_reused"] > 0
            assert not any(p.startswith("/public/open/") for p in got)
            assert got == posix_file_paths(tree, BOB)
            assert outcome(rerun) == cold_outcome(index, Q1_LIST_PATHS, BOB)

    @pytest.mark.parametrize("how", ["hook", "drained_batch"])
    def test_an_invalidation_mid_replay_aborts_the_store(
        self, demo_tree, demo_index, monkeypatch, how
    ):
        """A subtree hook, or a batch another handle wrote and a
        concurrent lookup drained, lands while the re-run replays: the
        run answers as a run without a donor would, stores nothing, and
        the next run captures."""
        _arm(monkeypatch)
        index = demo_index
        cache = ResultCache()
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as eng:
            eng.run(E_ALL)
            other = make_key(ROOT, E_ALL, None, "/home")
            if how == "drained_batch":
                eng.run(E_ALL, "/home")  # the entry the lookup checks
            index.invalidate_cache("/public/xonly")
            assert cache.stats()["stale"] == 1

            def land():
                if how == "hook":
                    index.cache.invalidate_subtree("/home")
                else:
                    # the same rows in a new file, through another handle
                    update_directory(
                        GUFIIndex.open(index.root), demo_tree, "/proj",
                        opts=OPTS,
                    )
                    assert cache.lookup(other, index) is not None

            epoch = index.cache.epoch
            _mid_replay(index, monkeypatch, 3, land)
            aborts = cache.capture_aborts
            r = eng.run(E_ALL)
            monkeypatch.undo()
            assert index.cache.epoch != epoch
            assert not r.cached and cache.capture_aborts == aborts + 1
            kept = len(cache)  # the /home entry, if there is one
            assert kept == (how != "hook") and cache.stats()["stale"] == 1
            assert sorted(r.rows) == cold_rows(index, E_ALL)
            r = eng.run(E_ALL)
            assert not r.cached and len(cache) == kept + 1
            assert sorted(r.rows) == cold_rows(index, E_ALL)
            assert eng.run(E_ALL).cached

    def test_cancel_mid_replay_stops_within_a_directory(
        self, demo_index, monkeypatch
    ):
        from repro.core.engine import CancelToken, QueryCancelled

        index = demo_index
        cache = ResultCache()
        with QueryEngine(index, nthreads=1, result_cache=cache) as eng:
            eng.run(E_ALL)
            index.invalidate_cache("/public/xonly")
            token = CancelToken()
            after = _mid_replay(index, monkeypatch, 3, token.cancel)
            with pytest.raises(QueryCancelled):
                eng.run(E_ALL, cancel=token)
            monkeypatch.undo()
            assert after == []
            assert len(cache) == 0 and cache.stats()["stale"] == 1
            assert not eng.run(E_ALL).cached and len(cache) == 1


    @pytest.mark.parametrize("armed", [True, False], ids=["armed", "unarmed"])
    @pytest.mark.parametrize("kind", ["denied", "no_stage", "ran"])
    def test_a_directory_whose_listing_alone_changed_is_replayed(
        self, demo_index, monkeypatch, kind, armed
    ):
        """A directory whose ``db.db`` is unchanged keeps its decision —
        denied, no stage survives, or stages ran — while a directory
        copied in out of band changes its listing: the re-run replays it
        without deciding it again, reads the new listing, and stores
        the rows, the six counters, the token and the decisions a fresh
        handle's warm run has; every ran directory's rows come from the
        donor."""
        from repro.core.engine.traversal import Traversal
        from repro.core.engine.types import (
            DENIED, KIND, NO_STAGE, PLAN_PRUNED, RAN,
        )
        from repro.core.plan import QueryPlan

        (_arm if armed else _unarm)(monkeypatch)
        creds, plan, target, want_code = {
            "denied": (ALICE, None, "/home/bob/secret", DENIED),
            "no_stage": (ROOT, QueryPlan(min_size=800), "/home/bob",
                         NO_STAGE | PLAN_PRUNED),
            "ran": (ROOT, None, "/public", RAN),
        }[kind]
        index = demo_index
        key = make_key(creds, E_ALL, plan, "/")
        cache = ResultCache()
        with QueryEngine(
            index, creds=creds, nthreads=NTHREADS, result_cache=cache
        ) as eng, QueryEngine(index, creds=creds, nthreads=NTHREADS) as plain:
            eng.run(E_ALL, plan=plan)
            plain.run(E_ALL, plan=plan)  # every record full and checked
            donor = dict(cache._entries[key].outcomes)
            assert donor[target] & (KIND | PLAN_PRUNED) == want_code
            # a leaf's index directory copied in: the target's listing
            # changes, its database does not (a denied target's listing
            # is in no token, so a copy into /public, which Alice lists,
            # is what makes her entry stale)
            copies = [target + "/copied"]
            if kind == "denied":
                copies.append("/public/copied")
            for copied in copies:
                shutil.copytree(
                    index.index_path("/proj/shared/data"),
                    index.index_path(copied),
                )
            by_stamp = {s[0]: p for p, s in _stamps_of_tree(index).items()}
            decided: list[str] = []
            real = Traversal.permitted

            def permitted(trav, meta):
                decided.append(by_stamp[meta.stamp])
                return real(trav, meta)

            reused = cache.stats()["dirs_reused"]
            monkeypatch.setattr(Traversal, "permitted", permitted)
            rerun = eng.run(E_ALL, plan=plan)
            monkeypatch.undo()
        assert not rerun.cached
        assert set(decided) <= set(copies) and target not in decided
        assert cache.stats()["dirs_reused"] - reused == sum(
            code & KIND == RAN for code in donor.values()
        )
        entry = cache._entries[key]
        fresh = GUFIIndex.open(index.root)
        fresh_cache = ResultCache()
        with QueryEngine(
            fresh, creds=creds, nthreads=NTHREADS, result_cache=fresh_cache
        ) as eng, QueryEngine(fresh, creds=creds, nthreads=NTHREADS) as plain:
            plain.run(E_ALL, plan=plan)  # warm, as the re-run's handle is
            want = eng.run(E_ALL, plan=plan)
        assert not want.cached
        assert outcome(rerun) == outcome(want)
        assert (copies[-1] + "/d.h5", 900) in rerun.rows
        theirs = fresh_cache._entries[key]
        assert entry.stamps == theirs.stamps
        assert entry.outcomes == theirs.outcomes


class TestStaleEntries:
    def test_stale_is_never_served_and_counts_as_a_drop_did(
        self, cached_engine
    ):
        eng, cache = cached_engine
        eng.run(E_ALL)
        key = make_key(ROOT, E_ALL, None, "/")
        entry = cache._entries[key]
        eng.index.invalidate_cache("/public")
        assert entry.stale and cache.donor(key) is entry
        assert len(cache) == 0 and cache.stats()["entries"] == 0
        assert cache.invalidations == 1
        eng.index.invalidate_cache("/public")  # later scans skip it
        assert cache.invalidations == 1
        misses = cache.misses
        assert cache.lookup(key, eng.index) is None
        assert cache.misses == misses + 1 and cache.invalidations == 1
        assert not eng.run(E_ALL).cached
        assert cache._entries[key] is not entry and cache.donor(key) is None

    def test_failed_stamp_pass_marks_stale(self, demo_tree, tmp_path):
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        cache = ResultCache()
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as eng:
            eng.run(E_ALL)
            cache.close()  # no hook: only the lookup's stamp pass
            _write_in_place(index.db_path("/public"))
            key = make_key(ROOT, E_ALL, None, "/")
            assert cache.lookup(key, index) is None
            assert cache.stats()["stale"] == 1 and cache.invalidations == 1
            with attached_dirs(index) as seen:
                r = eng.run(E_ALL)
            assert seen == ["/public"]
            assert sorted(r.rows) == cold_rows(index, E_ALL)

    def test_stale_is_evicted_before_servable_and_bytes_add_up(
        self, cached_engine
    ):
        eng, cache = cached_engine

        def check_bytes():
            assert cache.total_bytes == sum(
                e.nbytes for e in cache._entries.values()
            )
            assert cache._scope_bytes.get(make_key(
                ROOT, E_ALL, None, "/")[0], 0) == cache.total_bytes

        eng.run(E_ALL, "/home")
        eng.run(E_ALL, "/proj")
        eng.run(E_ALL, "/public")
        eng.index.invalidate_cache("/proj/shared")  # newer than /home's
        assert len(cache) == 2 and cache.stats()["stale"] == 1
        check_bytes()
        # no room for a fourth: the stale entry goes, though /home's
        # is older, and it is no eviction (it was an invalidation)
        cache.max_entries = 3
        eng.run(E_ALL, "/home/bob")
        assert cache.stats()["stale"] == 0 and len(cache) == 3
        assert cache.evictions == 0
        assert eng.run(E_ALL, "/home").cached  # now the most recent
        eng.run(E_ALL, "/home/alice")
        assert len(cache) == 3 and cache.evictions == 1  # /public's
        check_bytes()
        assert not eng.run(E_ALL, "/public").cached  # evicts /home/bob's
        # stale -> replace keeps the books too
        eng.index.invalidate_cache("/public/xonly")
        assert cache.stats()["stale"] == 1 and len(cache) == 2
        check_bytes()
        assert not eng.run(E_ALL, "/public").cached
        assert eng.run(E_ALL, "/public").cached
        check_bytes()
        cache.clear()
        assert cache.total_bytes == 0 and cache.stats()["stale"] == 0


class TestNoStaleReadsProperty:
    """The acceptance property (ISSUE 8): arbitrary interleavings of
    mutations, changefeed applies, and cached queries — the cached
    engine answers every query identically to a cold engine, for root
    and unprivileged creds."""

    SPECS = (E_ALL, Q1_LIST_PATHS, Q2_DIR_SIZES)

    def _check_round(self, engines, index):
        for creds, eng in engines:
            for spec in self.SPECS:
                got = sorted(eng.run(spec).rows)
                assert got == cold_rows(index, spec, creds), (
                    f"stale read under {creds} for {spec}"
                )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        steps=st.lists(
            st.sampled_from(["mutate", "apply", "query"]),
            min_size=3,
            max_size=8,
        ),
    )
    def test_interleaved_mutate_apply_query(
        self, tmp_path_factory, seed, steps
    ):
        ns = dataset2(scale=0.00005, seed=seed)
        root = tmp_path_factory.mktemp("rcprop")
        index = dir2index(ns.tree, root / "idx", opts=OPTS).index
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        engines = [
            (ROOT, QueryEngine(index, nthreads=NTHREADS,
                               result_cache=cache)),
            (ALICE, QueryEngine(index, creds=ALICE, nthreads=NTHREADS,
                                result_cache=cache)),
        ]
        mut = NamespaceMutator(ns, seed=seed ^ 0xBEEF)
        try:
            self._check_round(engines, index)  # populate
            for step in steps:
                if step == "mutate":
                    mut.mutate(4)
                elif step == "apply":
                    changefeed2index(index, ns.tree, journal, opts=OPTS)
                else:
                    self._check_round(engines, index)
            mut.mutate(4)  # whatever the steps drew, one last write
            changefeed2index(index, ns.tree, journal, opts=OPTS)
            self._check_round(engines, index)
            self._check_round(engines, index)  # hit path, post-converge
            # the re-runs above were repairs, not cold walks: the reuse
            # path cannot silently switch off
            assert cache.stats()["dirs_reused"] > 0
        finally:
            for _, eng in engines:
                eng.close()

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_rolled_namespace_property(self, tmp_path_factory, seed):
        ns = dataset2(scale=0.00005, seed=seed)
        root = tmp_path_factory.mktemp("rcroll")
        index = dir2index(ns.tree, root / "idx", opts=OPTS).index
        rollup(index, nthreads=NTHREADS)
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        cache = ResultCache()
        cache.attach_journal(journal, exclusive=True)
        engines = [
            (ROOT, QueryEngine(index, nthreads=NTHREADS,
                               result_cache=cache)),
            (ALICE, QueryEngine(index, creds=ALICE, nthreads=NTHREADS,
                                result_cache=cache)),
        ]
        mut = NamespaceMutator(ns, seed=seed)
        try:
            self._check_round(engines, index)
            mut.mutate(10)
            self._check_round(engines, index)  # unapplied: still equal
            changefeed2index(index, ns.tree, journal, opts=OPTS)
            self._check_round(engines, index)
            self._check_round(engines, index)
            assert cache.stats()["dirs_reused"] > 0
            # and back: rollup rewrites in place, unrollup on the path
            rollup(index, nthreads=NTHREADS)
            self._check_round(engines, index)
            reused = cache.stats()["dirs_reused"]
            mut.mutate(4)
            changefeed2index(index, ns.tree, journal, opts=OPTS)
            self._check_round(engines, index)
            assert cache.stats()["dirs_reused"] > reused
        finally:
            for _, eng in engines:
                eng.close()
