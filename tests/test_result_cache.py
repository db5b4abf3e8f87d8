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
* ``TestReuseBudget`` / ``TestReuseSecurity`` / ``TestStaleEntries`` —
  an invalidated stream-shaped entry is the donor of its own re-run:
  that run attaches only what changed, equals a cold run in rows and
  counters, can never show a user more than POSIX would, and a stale
  entry is never served and first to be evicted.
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
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import (
    BoundedSink,
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
    process: the next lookup misses — unless no walk can see the
    change — and the answer equals a cold engine's."""

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

    @pytest.mark.parametrize("writer", ["unarmed", "child"])
    @pytest.mark.parametrize("change", sorted(_OOB_CHANGES))
    @pytest.mark.parametrize("start", sorted(_STARTS))
    def test_unarmed_or_child_change_misses_and_rerun_equals_cold(
        self, demo_index, monkeypatch, start, change, writer
    ):
        """The watch unarmed, or armed with the change made by a forked
        child."""
        self._check(demo_index, monkeypatch, start, change, writer)

    def _check(self, demo_index, monkeypatch, start, change, writer):
        if change == "ancestor-db-replaced" and start == "/":
            pytest.skip("the root has no ancestor")
        (_unarm if writer == "unarmed" else _arm)(monkeypatch)
        rollup(demo_index, nthreads=NTHREADS)
        assert demo_index.dir_meta("/home/alice").rolledup
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            assert (cache._watch is not None) is (writer != "unarmed")
            assert not eng.run(E_ALL, start).cached
            # unchanged index -> hit, and the same rows as a cold run
            cached, rows = self._outcome(eng, start)
            assert cached and rows == cold_rows(demo_index, E_ALL, start=start)
            cache.close()  # no push hook either: the clock and stamps alone
            args = (
                *map(demo_index.index_path, _STARTS[start]),
                demo_index.index_path(start.rsplit("/", 1)[0]),
            )
            if writer == "child":
                _in_child(_OOB_CHANGES[change], *args)
            else:
                _OOB_CHANGES[change](*args)
            unseen = (start, change) in _UNSEEN
            hits = cache.hits
            cached, got = self._outcome(eng, start)
            assert cached is unseen and cache.hits == hits + unseen
            with QueryEngine(demo_index, nthreads=NTHREADS) as cold:
                assert (False, got) == self._outcome(cold, start)
        finally:
            eng.close()


class TestWriteClock:
    """The inotify watch behind the write clock: it follows the tree's
    shape, gives up where it cannot vouch, and every lookup is a miss
    or a hit equal to a cold run."""

    @pytest.fixture
    def armed(self, demo_index, monkeypatch):
        _arm(monkeypatch)
        cache = ResultCache()
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        assert cache._watch is not None
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
        w = cache._watch
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
        assert moved + "/oob_new" in cache._watch.paths.values()
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
            assert cache._watch.clock() is None
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
        w = cache._watch

        def child():
            assert w.clock() is None and cache.clock(index) is None
            _write_in_place(str(index.db_path("/public")), "forked.txt",
                            "MEMORY")
            assert w.clock() is None
            w.release()

        _in_child(child)
        r = eng.run(E_ALL)
        assert not r.cached
        assert any("forked.txt" in str(row[0]) for row in r.rows)
        assert w.clock() is not None

    def test_overflow_moves_the_clock_and_rearms(self, armed):
        eng, cache = armed
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = cache._watch
        before, paths = w.clock(), dict(w.paths)
        with w.lock:
            w.dispatch(watch.EVENT.pack(-1, watch.IN_Q_OVERFLOW, 0, 0))
        assert w.armed and w.paths == paths
        assert w.clock() not in (None, before)
        assert self._cached(eng)  # by its stamps, at the new clock
        _write_in_place(str(eng.index.db_path("/public")), journal_mode="MEMORY")
        assert not self._cached(eng)

    def test_overflow_that_cannot_rearm_falls_back(self, armed, monkeypatch):
        eng, cache = armed
        cache.close()
        assert not self._cached(eng) and self._cached(eng)
        w = cache._watch

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
        w = cache._watch
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
        w = cache._watch
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
            assert cache._watch is None and cache.clock(demo_index) is None

    def test_released_with_its_cache(self, demo_index, monkeypatch):
        """Each cache's watch has an instance of its own: dropping one
        cache unwatches its tree and leaves the other's armed."""
        import gc

        _arm(monkeypatch)
        caches = [ResultCache(), ResultCache()]
        for cache in caches:
            QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache).close()
        kept, dropped = (c._watch for c in caches)
        assert kept.fd != dropped.fd
        assert sorted(kept.paths.values()) == sorted(dropped.paths.values())
        del cache
        caches.pop()
        gc.collect()
        assert not dropped.armed and dropped.clock() is None
        assert kept.armed and kept.clock() is not None

    def test_tree_over_its_budget_never_arms(self, demo_index, monkeypatch):
        """A tree takes at most its share of the user's watch budget:
        one with more directories falls back at arming, and one that
        grows past it disarms."""
        _arm(monkeypatch)
        n = len(os.listdir(demo_index.root))  # well below the tree's size
        monkeypatch.setattr(watch, "watch_budget", lambda: n)
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache):
            assert cache._watch is None and cache.clock(demo_index) is None
        w = watch.arm(str(demo_index.root))
        assert w is None
        monkeypatch.setattr(watch, "watch_budget", lambda: 10**6)
        w = watch.arm(str(demo_index.root))
        try:
            assert w.clock() is not None
            w.budget = len(w.paths)
            os.mkdir(demo_index.index_path("/public") + "/oob_dir")
            assert w.clock() is None and not w.armed
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
                with QueryEngine(
                    demo_index, nthreads=NTHREADS, result_cache=cache
                ) as eng:
                    eng.run(E_ALL)
                    assert eng.run(E_ALL).cached
                    assert obs.snapshot().counter(
                        "gufi_result_cache_validations_total", rule=rule
                    ) == 1


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


class TestBounds:
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
    """Reuse cannot widen visibility: permission is re-decided for
    every directory on every run, so rows the donor holds for a
    directory the user may no longer reach are simply never asked
    for."""

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
            assert "/public/open" not in cache._entries[key].ran
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
