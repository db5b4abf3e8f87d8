"""Cache-invalidation suite for the DirMeta/subdir-name cache.

The cache holds security metadata (mode/uid/gid/rolledup), so every
path that rewrites an index directory — incremental update, refresh
swap, rollup/unrollup — must leave warm query sessions unable to
observe pre-mutation permissions. These tests drive *warm* sessions
(caches populated by a prior query) through each mutation and assert
the very next query honours the new state."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.index import DirMetaCache, GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, Q3_DU_SUMMARIES
from repro.core.refresh import IndexRefresher
from repro.core.rollup import rollup, unrollup_dir
from repro.core.tsummary import build_tsummary
from repro.core.update import update_directory
from repro.fs.changelog import ChangeJournal
from repro.fs.permissions import Credentials
from repro.store import layout
from tests.conftest import ALICE, BOB, NTHREADS, build_demo_tree


def paths(result):
    return sorted(r[0] for r in result.rows)


def flipping_stamp(real, db_path):
    """A file_stamp that reports a different post-read stamp for
    ``db_path`` — exactly what a racing writer produces."""
    calls = {"n": 0}

    def fake(path):
        stamp = real(path)
        if str(path) == str(db_path):
            calls["n"] += 1
            if calls["n"] >= 2 and stamp is not None:
                return (stamp[0], stamp[1] + 1, stamp[2])
        return stamp

    return fake


class TestDirMetaCacheUnit:
    def test_stamp_mismatch_evicts(self, demo_index):
        meta = demo_index.cached_dir_meta("/home/bob")
        assert meta is not None
        assert demo_index.cache.meta_misses == 1
        assert demo_index.cached_dir_meta("/home/bob") is not None
        assert demo_index.cache.meta_hits == 1
        # rewrite db.db (unlink+recreate changes st_ino): must re-read
        db = demo_index.db_path("/home/bob")
        payload = db.read_bytes()
        db.unlink()
        db.write_bytes(payload)
        demo_index.cached_dir_meta("/home/bob")
        assert demo_index.cache.meta_misses == 2

    def test_invalidate_subtree_drops_descendants_only(self, demo_index):
        for p in ("/home/bob", "/home/bob/secret", "/public"):
            demo_index.cached_dir_meta(p)
        demo_index.cache.invalidate_subtree("/home/bob")
        assert demo_index.cache.invalidations > 0
        before = demo_index.cache.meta_hits
        demo_index.cached_dir_meta("/public")  # untouched: still cached
        assert demo_index.cache.meta_hits == before + 1
        demo_index.cached_dir_meta("/home/bob/secret")  # dropped: miss
        assert demo_index.cache.meta_hits == before + 1

    def test_root_subtree_clears_everything(self, demo_index):
        demo_index.cached_dir_meta("/home/bob")
        demo_index.cache.invalidate_subtree("/")
        assert demo_index.cache.stats()["meta_entries"] == 0

    def test_missing_db_not_cached(self, tmp_path):
        cache = DirMetaCache()
        assert cache.get_meta("/x", tmp_path / "nope.db") is None
        assert cache.meta_misses == 1


class TestContributionTable:
    """The cache's third table — tree-summary contributions — obeys
    the same stamp and the same hooks as the other two."""

    def warm(self, index):
        build_tsummary(index, "/")
        return index.cache

    def test_stamp_mismatch_evicts(self, demo_index):
        cache = self.warm(demo_index)
        assert cache.get_contribution("/home/bob") is not None
        db = demo_index.db_path("/home/bob")
        payload = db.read_bytes()
        db.unlink()
        db.write_bytes(payload)
        misses = cache.contribution_misses
        assert cache.get_contribution("/home/bob") is None
        assert cache.contribution_misses == misses + 1
        assert "/home/bob" not in cache._contribs

    def test_removed_database_evicts(self, demo_index):
        cache = self.warm(demo_index)
        demo_index.db_path("/home/bob/secret").unlink()
        assert cache.get_contribution("/home/bob/secret") is None

    def test_invalidate_drops_one(self, demo_index):
        cache = self.warm(demo_index)
        demo_index.invalidate_cache("/home/bob")
        assert cache.get_contribution("/home/bob") is None
        assert cache.get_contribution("/home/bob/secret") is not None

    def test_invalidate_subtree_drops_descendants_only(self, demo_index):
        cache = self.warm(demo_index)
        cache.invalidate_subtree("/home/bob")
        assert cache.get_contribution("/home/bob") is None
        assert cache.get_contribution("/home/bob/secret") is None
        assert cache.get_contribution("/home/alice") is not None

    def test_clear_drops_everything(self, demo_index):
        cache = self.warm(demo_index)
        assert cache.stats()["contribution_entries"] > 0
        demo_index.invalidate_cache()
        assert cache.stats()["contribution_entries"] == 0

    def test_racing_write_is_not_published(self, demo_index, monkeypatch):
        """The read answers, but a database that changed across it
        must not be memoised (same rule as ``cached_dir_meta``)."""
        db_path = demo_index.db_path("/home/bob")
        monkeypatch.setattr(
            layout,
            "file_stamp",
            flipping_stamp(layout.file_stamp, db_path),
        )
        r = build_tsummary(demo_index, "/home/bob")
        assert r.dirs_scanned == 2
        assert "/home/bob" not in demo_index.cache._contribs
        assert "/home/bob/secret" in demo_index.cache._contribs


class TestUpdateInvalidation:
    def test_chmod_then_update_hides_immediately(self, demo_tree, demo_index):
        """The §III-A3 scenario against a *warm* session: bob's home is
        world-readable, alice has cached its DirMeta, bob chmods it and
        requests an update — alice's very next warm query must not see
        inside."""
        alice = QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS)
        assert "/home/bob/b.txt" in paths(alice.run(Q1_LIST_PATHS))
        demo_tree.chmod("/home/bob", 0o700, BOB)
        update_directory(demo_index, demo_tree, "/home/bob")
        assert not any(
            p.startswith("/home/bob/")
            for p in paths(alice.run(Q1_LIST_PATHS))
        )
        alice.close()

    def test_chmod_open_then_update_reveals_immediately(
        self, demo_tree, demo_index
    ):
        alice = QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS)
        assert "/home/bob/secret/s.key" not in paths(alice.run(Q1_LIST_PATHS))
        demo_tree.chmod("/home/bob/secret", 0o755, BOB)
        demo_tree.chmod("/home/bob/secret/s.key", 0o644, BOB)
        update_directory(demo_index, demo_tree, "/home/bob/secret")
        assert "/home/bob/secret/s.key" in paths(alice.run(Q1_LIST_PATHS))
        alice.close()

    def test_chown_then_update_honoured(self, demo_tree, demo_index):
        bob = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        assert not any(
            p.startswith("/home/alice/") for p in paths(bob.run(Q1_LIST_PATHS))
        )
        demo_tree.chown("/home/alice", uid=BOB.uid, gid=BOB.gid)
        demo_tree.chown("/home/alice/a.txt", uid=BOB.uid, gid=BOB.gid)
        update_directory(demo_index, demo_tree, "/home/alice")
        assert "/home/alice/a.txt" in paths(bob.run(Q1_LIST_PATHS))
        bob.close()

    def test_recursive_update_new_subdir_visible_warm(
        self, demo_tree, demo_index
    ):
        """A warm session has cached /home/bob's subdir listing; a
        recursive update that creates a brand-new child directory must
        invalidate that listing so descent finds the newcomer."""
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        q.run(Q1_LIST_PATHS)
        demo_tree.mkdir("/home/bob/fresh", mode=0o755, uid=1002, gid=1002)
        demo_tree.create_file("/home/bob/fresh/f.txt", size=5,
                              mode=0o644, uid=1002, gid=1002)
        update_directory(demo_index, demo_tree, "/home/bob", recursive=True)
        assert "/home/bob/fresh/f.txt" in paths(q.run(Q1_LIST_PATHS))
        q.close()

    def test_recursive_update_removed_subdir_gone_warm(
        self, demo_tree, demo_index
    ):
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        assert "/home/bob/secret/s.key" in paths(q.run(Q1_LIST_PATHS))
        demo_tree.unlink("/home/bob/secret/s.key")
        demo_tree.rmdir("/home/bob/secret", BOB)
        update_directory(demo_index, demo_tree, "/home/bob", recursive=True)
        assert not any(
            "secret" in p for p in paths(q.run(Q1_LIST_PATHS))
        )
        q.close()


class TestRefreshInvalidation:
    def test_swap_serves_new_data_to_new_sessions(self, tmp_path):
        tree = build_demo_tree()
        r = IndexRefresher(
            tree, tmp_path / "pub",
            opts=BuildOptions(nthreads=NTHREADS), keep_versions=2,
        )
        r.refresh()
        idx_v0 = r.current()
        q0 = QueryEngine(idx_v0, nthreads=NTHREADS)
        before = paths(q0.run(Q1_LIST_PATHS))
        tree.create_file("/home/bob/fresh.dat", size=7, uid=1002, gid=1002)
        r.refresh()
        # a new session resolves the swapped link: sees the new build
        q1 = QueryEngine(r.current(), nthreads=NTHREADS)
        after = paths(q1.run(Q1_LIST_PATHS))
        assert "/home/bob/fresh.dat" in after
        assert "/home/bob/fresh.dat" not in before
        # the in-flight session keeps answering from the old version
        # (two coexisting snapshots, §III-A4) — its cache was cleared
        # at swap time so it revalidates, but the old files still exist
        assert paths(q0.run(Q1_LIST_PATHS)) == before
        q0.close()
        q1.close()

    def test_current_handle_shared_within_a_version(self, tmp_path):
        tree = build_demo_tree()
        r = IndexRefresher(
            tree, tmp_path / "pub", opts=BuildOptions(nthreads=NTHREADS),
        )
        r.refresh()
        assert r.current() is r.current()  # one DirMeta cache per version
        r.refresh()
        assert r.current() is not None


class TestRollupInvalidation:
    @pytest.fixture
    def idx(self, tmp_path):
        tree = build_demo_tree()
        return tree, dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index

    def test_rollup_with_warm_session_no_double_count(self, idx):
        tree, index = idx
        q = QueryEngine(index, nthreads=NTHREADS)
        cold_paths = paths(q.run(Q1_LIST_PATHS))
        cold_total = q.run(Q3_DU_SUMMARIES).rows[-1][0]
        rollup(index, nthreads=NTHREADS)
        # warm session, post-rollup: same answer, nothing duplicated
        assert paths(q.run(Q1_LIST_PATHS)) == cold_paths
        assert q.run(Q3_DU_SUMMARIES).rows[-1][0] == cold_total
        q.close()

    def test_rolledup_flag_visible_to_warm_session(self, idx):
        tree, index = idx
        q = QueryEngine(index, creds=ALICE, nthreads=NTHREADS)
        before = paths(q.run(Q1_LIST_PATHS))
        rollup(index, nthreads=NTHREADS)
        # the cached rolledup=0 must not survive: descent pruning now
        # depends on the new flag, and results must stay identical
        assert index.cached_dir_meta("/home/alice").rolledup > 0
        assert paths(q.run(Q1_LIST_PATHS)) == before
        q.close()

    def test_unrollup_with_warm_session(self, idx):
        tree, index = idx
        rollup(index, nthreads=NTHREADS)
        q = QueryEngine(index, creds=ALICE, nthreads=NTHREADS)
        rolled = paths(q.run(Q1_LIST_PATHS))
        assert index.cached_dir_meta("/home/alice").rolledup > 0
        unrollup_dir(index, "/home/alice")
        assert index.cached_dir_meta("/home/alice").rolledup == 0
        assert paths(q.run(Q1_LIST_PATHS)) == rolled
        q.close()

    def test_update_after_rollup_with_warm_session(self, idx):
        """update unrolls the target's path; a warm session must see
        both the new file and the flag flip."""
        tree, index = idx
        rollup(index, nthreads=NTHREADS)
        q = QueryEngine(index, creds=ALICE, nthreads=NTHREADS)
        q.run(Q1_LIST_PATHS)
        tree.create_file("/home/alice/sub/late.dat", size=4,
                         mode=0o600, uid=1001, gid=1001)
        update_directory(index, tree, "/home/alice/sub")
        assert "/home/alice/sub/late.dat" in paths(q.run(Q1_LIST_PATHS))
        q.close()


UIDS = [0, 1001, 1002, 1003]
DIR_MODES = [0o700, 0o750, 0o755, 0o711, 0o770]


class TestWarmEqualsColdProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        uid=st.sampled_from(UIDS),
        gid=st.sampled_from([0, 100, 1001, 1002, 1003]),
        in_proj=st.booleans(),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(
                    ["/home/alice", "/home/bob", "/home/bob/secret",
                     "/proj/shared", "/public/xonly"]
                ),
                st.sampled_from(DIR_MODES),
            ),
            min_size=0,
            max_size=4,
        ),
    )
    def test_warm_result_equals_cold_result(
        self, tmp_path_factory, uid, gid, in_proj, mutations
    ):
        """For random credentials and a random sequence of
        chmod+update mutations, a warm session's answer after each
        mutation equals a cold query against a brand-new index handle
        (empty caches). Any stale mode/uid/gid surviving in the cache
        breaks this equality."""
        creds = Credentials(
            uid=uid, gid=gid,
            groups=frozenset({100}) if in_proj else frozenset(),
        )
        tree = build_demo_tree()
        root = tmp_path_factory.mktemp("wc")
        index = dir2index(
            tree, root / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        warm = QueryEngine(index, creds=creds, nthreads=NTHREADS)
        warm.run(Q1_LIST_PATHS)  # populate caches
        for target, mode in mutations:
            tree.chmod(target, mode)
            update_directory(index, tree, target)
            got = paths(warm.run(Q1_LIST_PATHS))
            cold_index = GUFIIndex.open(index.root)
            cold = QueryEngine(cold_index, creds=creds, nthreads=NTHREADS)
            assert got == paths(cold.run(Q1_LIST_PATHS))
            cold.close()
        warm.close()


class TestChangefeedInvalidation:
    """Satellite: the changefeed consumer must leave no warm cache
    entry alive for any directory an event touched — the very next
    lookup has to re-read the rewritten database."""

    @pytest.fixture
    def wired(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        return tree, index, journal

    def _assert_next_lookup_fresh(self, index, path):
        """The warm handle's next lookup must serve exactly what a
        cold handle (empty cache) reads — any surviving pre-mutation
        entry breaks this. (The apply may legitimately *re*-populate
        the cache with post-rewrite metadata, so asserting a literal
        miss would overconstrain the mechanism.)"""
        got = index.cached_dir_meta(path)
        cold = GUFIIndex.open(index.root).cached_dir_meta(path)
        assert got is not None
        assert got == cold, f"stale DirMeta served for {path}"

    @pytest.mark.parametrize(
        "mutate, touched",
        [
            (lambda t: t.create_file(
                "/home/bob/cf.dat", size=1, uid=1002, gid=1002
            ), "/home/bob"),
            (lambda t: t.unlink("/home/bob/b.txt"), "/home/bob"),
            (lambda t: t.mkdir(
                "/home/bob/cfd", mode=0o755, uid=1002, gid=1002
            ), "/home/bob"),
            (lambda t: t.chmod("/home/bob", 0o700, BOB), "/home/bob"),
            (lambda t: t.chown("/home/bob/b.txt", uid=0, gid=0),
             "/home/bob"),
            (lambda t: t.utime("/home/bob/b.txt", atime=1, mtime=2),
             "/home/bob"),
            (lambda t: t.setxattr("/home/bob/b.txt", "user.k", b"v"),
             "/home/bob"),
            (lambda t: t.rename("/home/bob/b.txt", "/home/bob/c.txt"),
             "/home/bob"),
        ],
        ids=["create", "unlink", "mkdir", "chmod", "chown", "utime",
             "setxattr", "rename-in-place"],
    )
    def test_touched_dir_lookup_misses_after_event(
        self, wired, mutate, touched
    ):
        tree, index, journal = wired
        index.cached_dir_meta(touched)  # warm
        mutate(tree)
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        self._assert_next_lookup_fresh(index, touched)

    def test_rename_across_dirs_invalidates_both_parents(self, wired):
        """Regression: a cross-directory rename rewrites *two* parent
        databases; a warm session holding either side's DirMeta must
        miss on both."""
        tree, index, journal = wired
        index.cached_dir_meta("/home/bob")
        index.cached_dir_meta("/public")
        tree.rename("/home/bob/b.txt", "/public/b.txt")
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        self._assert_next_lookup_fresh(index, "/home/bob")
        self._assert_next_lookup_fresh(index, "/public")

    def test_warm_query_sees_chmod_immediately(self, wired):
        """The §III-A3 staleness scenario through the changefeed: bob
        closes his home, the consumer applies the event, and a warm
        unprivileged session must not see inside anymore."""
        tree, index, journal = wired
        alice = QueryEngine(index, creds=ALICE, nthreads=NTHREADS)
        assert "/home/bob/b.txt" in paths(alice.run(Q1_LIST_PATHS))
        tree.chmod("/home/bob", 0o700, BOB)
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        assert not any(
            p.startswith("/home/bob/")
            for p in paths(alice.run(Q1_LIST_PATHS))
        )
        alice.close()

    def test_warm_query_tracks_cross_dir_rename(self, wired):
        tree, index, journal = wired
        q = QueryEngine(index, nthreads=NTHREADS)
        before = paths(q.run(Q1_LIST_PATHS))
        assert "/home/bob/b.txt" in before
        tree.rename("/home/bob/b.txt", "/public/b.txt")
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        after = paths(q.run(Q1_LIST_PATHS))
        assert "/home/bob/b.txt" not in after
        assert "/public/b.txt" in after
        q.close()

    def test_subtree_move_invalidates_old_prefix(self, wired):
        """A directory rename leaves nothing cached under the old
        prefix and answers from the new one."""
        tree, index, journal = wired
        q = QueryEngine(index, creds=BOB, nthreads=NTHREADS)
        assert "/home/bob/secret/s.key" in paths(q.run(Q1_LIST_PATHS))
        tree.rename("/home/bob/secret", "/home/bob/vault")
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        got = paths(q.run(Q1_LIST_PATHS))
        assert "/home/bob/vault/s.key" in got
        assert not any(p.startswith("/home/bob/secret") for p in got)
        q.close()


# ----------------------------------------------------------------------
# Invalidation listeners + read-stability (ISSUE 8 satellites)
# ----------------------------------------------------------------------


class TestInvalidationListeners:
    """The ``DirMetaCache.add_listener`` hook is the push channel the
    materialized result cache hangs off — every explicit invalidation
    must announce itself exactly once, after the drop."""

    def test_invalidate_notifies_path(self, demo_index):
        seen = []
        demo_index.cache.add_listener(lambda p, s: seen.append((p, s)))
        demo_index.invalidate_cache("/home/bob")
        assert ("/home/bob", False) in seen

    def test_subtree_and_clear_notify(self, demo_index):
        seen = []
        demo_index.cache.add_listener(lambda p, s: seen.append((p, s)))
        demo_index.cache.invalidate_subtree("/proj")
        assert ("/proj", True) in seen
        demo_index.cache.clear()
        assert (None, True) in seen

    def test_result_cache_rides_the_hooks(self, demo_index):
        from repro.core.engine import QueryEngine, QuerySpec, ResultCache

        cache = ResultCache()
        spec = QuerySpec(E="SELECT name FROM pentries")
        with QueryEngine(
            demo_index, nthreads=NTHREADS, result_cache=cache
        ) as eng:
            eng.run(spec, "/public")
            assert len(cache) == 1
            demo_index.invalidate_cache("/public")
            assert len(cache) == 0
            assert cache.invalidations >= 1


class TestReadStablePublish:
    """``dir_meta``/``cached_dir_meta`` take the stamp *before* the
    read and re-check it after: a write racing the read must never pin
    its predecessor's DirMeta (the stamp-before-read race fix)."""

    def test_cached_dir_meta_discards_on_mismatch(
        self, demo_index, monkeypatch
    ):
        # StampBracket re-stats through the store layer, so the race is
        # simulated where the stamp authority now lives.
        db_path = demo_index.db_path("/home/bob")
        monkeypatch.setattr(
            layout,
            "file_stamp",
            flipping_stamp(layout.file_stamp, db_path),
        )
        meta = demo_index.cached_dir_meta("/home/bob")
        assert meta is not None  # the read itself still answers
        # ...but nothing was published: the cache must not hold it
        assert demo_index.cache.peek_stamp("/home/bob") is None

    def test_dir_meta_discards_on_mismatch(self, demo_index, monkeypatch):
        db_path = demo_index.db_path("/public")
        monkeypatch.setattr(
            layout,
            "file_stamp",
            flipping_stamp(layout.file_stamp, db_path),
        )
        assert demo_index.dir_meta("/public") is not None
        assert demo_index.cache.peek_stamp("/public") is None

    def test_stable_read_still_publishes(self, demo_index):
        assert demo_index.cached_dir_meta("/home/bob") is not None
        assert demo_index.cache.peek_stamp("/home/bob") is not None


@pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="fork inheritance under test",
)
class TestForkStalenessAfterRefresh:
    """A ``processes>1`` run forks workers that inherit the parent's
    warm index; after an incremental refresh they must answer from the
    rebuilt databases, never the inherited pre-refresh cache."""

    def test_multiprocess_query_after_incremental_refresh(self, tmp_path):
        from repro.core.engine import QueryEngine

        tree = build_demo_tree()
        index = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        # warm the parent cache the way a long-lived session would
        with QueryEngine(index, nthreads=NTHREADS) as warm:
            warm.run(Q1_LIST_PATHS)
        tree.create_file("/public/post.txt", size=3, uid=0, gid=0)
        tree.unlink("/public/readme")
        changefeed2index(
            index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
        )
        with QueryEngine(index, nthreads=NTHREADS, processes=2) as multi, \
                QueryEngine(index, nthreads=NTHREADS) as single:
            got = sorted(multi.run(Q1_LIST_PATHS).rows)
            assert got == sorted(single.run(Q1_LIST_PATHS).rows)
        flat = [str(r[0]) for r in got]
        assert any(p.endswith("/post.txt") for p in flat)
        assert not any(p.endswith("/readme") for p in flat)
