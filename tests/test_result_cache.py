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
* ``TestInvalidation`` — push invalidation precision, stamp-pass
  validation, changefeed semantics (unapplied events must *not*
  invalidate: the index is unchanged).
* ``TestHitBudget`` / ``TestFreshnessMatrix`` — a hit costs exactly
  the stats its token needs, and those stats still catch every kind of
  out-of-band change from every kind of start.
* ``TestCredentialScoping`` — no replay across principals, per-scope
  budgets.
* ``TestBounds`` — LRU byte/entry budgets, oversized-entry refusal.
* ``TestScatterGather`` — the ``processes>1`` parent caches the
  gathered result; workers bypass.
* ``TestReuseBudget`` / ``TestReuseSecurity`` / ``TestStaleEntries`` —
  an invalidated stream-shaped entry is the donor of its own re-run:
  that run attaches only what changed, equals a cold run in rows and
  counters, can never show a user more than POSIX would, and a stale
  entry is never served and first to be evicted.
* ``TestNoStaleReadsProperty`` — the acceptance property, PR 7 style:
  hypothesis-driven mutate/apply/query interleavings under root and
  unprivileged creds, with and without rollups and ``processes>1``.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import shutil
import sqlite3
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.core.update import update_directory
from repro.fs.changelog import ChangeJournal
from repro.fs.permissions import ROOT
from repro.gen.datasets import dataset2
from repro.gen.namespace import NamespaceMutator
from repro.store import connect
from repro.store.layout import DirStore, file_stamp
from tests.conftest import ALICE, BOB, NTHREADS, build_demo_tree

OPTS = BuildOptions(nthreads=NTHREADS)
FORK = mp.get_context().get_start_method() == "fork"

E_ALL = QuerySpec(E="SELECT path() || '/' || name, size FROM pentries")


def cold_rows(index, spec, creds=ROOT, plan=None, start="/"):
    """Oracle: a fresh, cache-less engine's sorted rows."""
    eng = QueryEngine(index, creds=creds, nthreads=NTHREADS)
    try:
        return sorted(eng.run(spec, start, plan=plan).rows)
    finally:
        eng.close()


def _write_in_place(db_path, name="oob.txt"):
    """A foreign process adds an entry behind every cache's back."""
    con = sqlite3.connect(db_path)
    con.execute(
        "INSERT INTO entries (name, type, mode, uid, gid, size) "
        "VALUES (?, 'f', 420, 0, 0, 11)",
        (name,),
    )
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

    def test_run_single_bypasses_the_cache(self, cached_engine):
        eng, cache = cached_engine
        eng.run_single(QuerySpec(E="SELECT name FROM pentries"), "/public")
        assert len(cache) == 0

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

    def test_journal_fast_path_bounded_by_stamp_ttl(self, demo_tree,
                                                    tmp_path):
        """A writer in *another process* journals nothing and fires no
        hooks, so the stat-free changefeed fast path cannot see it.
        Unless the journal is declared exclusive, the fast path must
        fall back to the stamp pass within ``stamp_ttl`` — a foreign
        rewrite is detected, not masked forever."""
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        demo_tree.set_changelog(journal)
        # ttl 0: every lookup re-stamps, so detection is immediate
        cache = ResultCache(journal=journal, stamp_ttl=0.0)
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
        cache = ResultCache(journal=journal)
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
        cache = ResultCache(journal=journal)
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
        cache = ResultCache(journal=journal)
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
        journal attached later then sees a *wider* event window — a
        superset can only invalidate more — and every answer still
        equals a cold run, with or without the push hooks."""
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
            cache.attach_journal(journal)
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

        def racing_store(key, capture, result, index, inv_seq):
            # a writer lands between run start and store
            eng.index.invalidate_cache("/public")
            return real_store(key, capture, result, index, inv_seq)

        cache.store = racing_store
        try:
            r = eng.run(E_ALL)
        finally:
            cache.store = real_store
        assert not r.cached
        assert len(cache) == 0
        assert cache.capture_aborts == before + 1


class TestHitBudget:
    """A hit costs what its contract requires and nothing else: two
    stats per recorded directory — its database, then its listing —
    one per ancestor of the start, on plain path strings."""

    @pytest.mark.parametrize("start", ["/", "/home/alice", "/proj/shared/data"])
    def test_hit_is_2n_plus_d_stats_and_no_path_objects(
        self, demo_index, monkeypatch, start
    ):
        from repro.core.checkpoint import ChangefeedCheckpoint

        cache = ResultCache(stamp_ttl=0.0)
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
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
            assert cache.lookup(key, demo_index) is entry
        assert len(stats) == 2 * n + depth
        # and in the token's order: the database, then the listing
        expected = []
        for path, (_, listing) in entry.stamps.items():
            base = demo_index.index_path(path)
            expected += [base + "/db.db"] + [base] * (listing is not None)
        assert stats == expected


#: out-of-band change -> what it does, given the index directories of
#: (a visited directory with no visited child, a sub-directory to
#: remove, the start's parent). Each runs with no journal, no hook and
#: ``stamp_ttl = 0``: only the stamp pass can see it.
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


class TestFreshnessMatrix:
    """Every kind of start x every kind of out-of-band change: the
    next lookup misses and the re-run equals a cold engine's answer."""

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
        self, demo_index, start, change
    ):
        if change == "ancestor-db-replaced" and start == "/":
            pytest.skip("the root has no ancestor")
        rollup(demo_index, nthreads=NTHREADS)
        assert demo_index.dir_meta("/home/alice").rolledup
        cache = ResultCache(stamp_ttl=0.0)
        eng = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            assert not eng.run(E_ALL, start).cached
            # unchanged index -> hit, and the same rows as a cold run
            cached, rows = self._outcome(eng, start)
            assert cached and rows == cold_rows(demo_index, E_ALL, start=start)
            cache.close()  # no push hook either: stamps alone
            _OOB_CHANGES[change](
                *map(demo_index.index_path, _STARTS[start]),
                demo_index.index_path(start.rsplit("/", 1)[0]),
            )
            hits = cache.hits
            cached, got = self._outcome(eng, start)
            assert not cached and cache.hits == hits
            with QueryEngine(demo_index, nthreads=NTHREADS) as cold:
                assert (False, got) == self._outcome(cold, start)
        finally:
            eng.close()


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
    """A long-lived shared cache bound to many short-lived indexes
    must not pin their DirMeta caches (or listener cycles) in
    memory."""

    def test_bound_index_cache_is_not_pinned(self, demo_tree, tmp_path):
        import gc
        import weakref

        cache = ResultCache()
        index = dir2index(demo_tree, tmp_path / "idx", opts=OPTS).index
        eng = QueryEngine(index, nthreads=NTHREADS, result_cache=cache)
        eng.run(E_ALL)
        eng.close()
        ref = weakref.ref(index.cache)
        del eng, index
        gc.collect()
        assert ref() is None  # the shared cache held no strong ref

    def test_bind_is_idempotent_per_index(self, demo_index):
        cache = ResultCache()
        e1 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        e2 = QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache)
        try:
            assert len(demo_index.cache._listeners) == 1
        finally:
            e1.close()
            e2.close()

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


@pytest.mark.skipif(not FORK, reason="scatter cache tests rely on fork")
class TestScatterGather:
    def test_parent_caches_the_gathered_result(self, dataset2_index):
        index = dataset2_index.index
        cache = ResultCache()
        eng = QueryEngine(
            index, nthreads=NTHREADS, processes=2, result_cache=cache
        )
        try:
            r1 = eng.run(E_ALL)
            r2 = eng.run(E_ALL)
            assert not r1.cached and r2.cached
            assert sorted(r1.rows) == sorted(r2.rows)
            assert sorted(r2.rows) == cold_rows(index, E_ALL)
        finally:
            eng.close()

    def test_workers_ship_walk_validated_stamps(self, dataset2_index):
        """The parent's DirMeta cache never saw the workers' reads, so
        the store-time race cross-check must run against the stamps
        the workers validated and shipped back — one per touched
        path."""
        index = dataset2_index.index
        cache = ResultCache()
        eng = QueryEngine(
            index, nthreads=NTHREADS, processes=2, result_cache=cache
        )
        try:
            r = eng.run(E_ALL)
            assert not r.cached
            assert r.visited_stamps is not None
            assert set(r.visited_stamps) == set(r.visited_paths)
            # at least the visited (db-opened) paths carry a db stamp
            assert any(
                db is not None for db, _ in r.visited_stamps.values()
            )
            assert eng.run(E_ALL).cached  # matching stamps stored fine
        finally:
            eng.close()

    def test_mismatched_worker_stamps_abort_the_store(self, dataset2_index):
        """A shipped walk stamp that disagrees with the store-time
        stamp means a write landed between a worker's read and the
        parent's store: nothing may be cached."""
        index = dataset2_index.index
        cache = ResultCache()
        eng = QueryEngine(
            index, nthreads=NTHREADS, processes=2, result_cache=cache
        )
        real_store = cache.store

        def tampered_store(key, capture, result, index_, inv_seq):
            result.visited_stamps = {
                p: ((0, 0, 0), None) for p in result.visited_paths
            }
            return real_store(key, capture, result, index_, inv_seq)

        cache.store = tampered_store
        before = cache.capture_aborts
        try:
            r = eng.run(E_ALL)
        finally:
            cache.store = real_store
            eng.close()
        assert not r.cached
        assert len(cache) == 0
        assert cache.capture_aborts == before + 1

    def test_worker_crash_withholds_the_store(self, dataset2_index):
        from repro.core.engine.scatter import ScatterGatherEngine
        from tests.test_scatter_gather import _kill_worker_zero

        index = dataset2_index.index
        cache = ResultCache()
        eng = QueryEngine(
            index, nthreads=NTHREADS, processes=2, result_cache=cache
        )
        try:
            scatter = eng._scatter()
            assert isinstance(scatter, ScatterGatherEngine)
            scatter.worker_init = _kill_worker_zero
            r = eng.run(E_ALL)
            assert r.dirs_errored > 0  # the crashed shard
            # an incomplete result must never be materialized
            assert len(cache) == 0
            scatter.worker_init = None
            assert not eng.run(E_ALL).cached
        finally:
            eng.close()


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
            cache = ResultCache(journal=journal)
        else:
            cache = ResultCache(stamp_ttl=0.0)
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

    @pytest.mark.parametrize(
        "shape", ["du", "largest_files", "xattrs", "iotracer", "processes"]
    )
    def test_other_entries_drop_and_attach_everything(self, tmp_path, shape):
        """Aggregates carry state between directories, xattr views read
        side databases, a traced run must charge every read, scatter
        workers have no donor: invalidation drops those entries as it
        always did and the re-run reads every database."""
        from repro.sim.blktrace import IOTracer

        if shape == "processes" and not FORK:
            pytest.skip("needs fork for cheap workers")
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
        }.get(shape, Q1_LIST_PATHS)
        tracer = IOTracer() if shape == "iotracer" else None
        cache = ResultCache()
        eng = QueryEngine(
            index, nthreads=NTHREADS, result_cache=cache, tracer=tracer,
            processes=2 if shape == "processes" else 1,
        )
        try:
            first = eng.run(spec)
            assert len(cache) == 1
            victim = sorted(db_stamps(index))[3]
            ns.tree.create_file(f"{victim}/more.dat", size=99)
            update_directory(index, ns.tree, victim, opts=OPTS)
            assert len(cache) == 0 and cache.stats()["stale"] == 0
            assert cache._entries == {} and cache.total_bytes == 0
            if tracer is not None:
                tracer.reset()
            with attached_dirs(index) as seen:
                rerun = eng.run(spec)
            assert not rerun.cached and cache.stats()["dirs_reused"] == 0
            assert sorted(rerun.rows) == cold_rows(index, spec)
            if shape != "processes":  # workers attach in their own process
                assert len(seen) == rerun.dbs_opened == first.dbs_opened
            if tracer is not None:
                assert len(tracer.events) == rerun.dbs_opened
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
        cache = ResultCache(journal=journal)
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
        cache = ResultCache(journal=journal)
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

    @pytest.mark.skipif(not FORK, reason="needs fork for cheap workers")
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_multiprocess_property(self, tmp_path_factory, seed):
        ns = dataset2(scale=0.00005, seed=seed)
        root = tmp_path_factory.mktemp("rcmp")
        index = dir2index(ns.tree, root / "idx", opts=OPTS).index
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        cache = ResultCache(journal=journal)
        engines = [
            (ROOT, QueryEngine(index, nthreads=NTHREADS, processes=2,
                               result_cache=cache)),
            (ALICE, QueryEngine(index, creds=ALICE, nthreads=NTHREADS,
                                processes=2, result_cache=cache)),
        ]
        mut = NamespaceMutator(ns, seed=seed ^ 0xF00D)
        try:
            self._check_round(engines, index)
            mut.mutate(8)
            changefeed2index(index, ns.tree, journal, opts=OPTS)
            self._check_round(engines, index)
            self._check_round(engines, index)
            # scatter workers always read the databases
            assert cache.stats()["dirs_reused"] == 0
        finally:
            for _, eng in engines:
                eng.close()
