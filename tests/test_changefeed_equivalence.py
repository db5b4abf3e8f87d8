"""Changefeed equivalence: the acceptance property for incremental
indexing (ISSUE tentpole + satellite 1).

The contract: draining a :class:`~repro.fs.changelog.ChangeJournal`
and applying the delta with :func:`~repro.core.changefeed.
changefeed2index` must leave the index indistinguishable from a
from-scratch ``dir2index`` rebuild of the mutated tree — same entries
rows, same query results for privileged and unprivileged credentials,
same DirStats, same tsummary aggregates — for arbitrary interleavings
of mutation batches and applies, with and without rollups in place.

``atime`` is excluded from the row oracle: ``readdir`` bumps directory
atimes, so two scans of the same tree legitimately disagree on it (and
no gated query exposes it).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index, reduce_events
from repro.core.engine import QueryEngine
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
)
from repro.core.rollup import rollup
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.gen.datasets import dataset2
from repro.gen.namespace import NamespaceMutator
from repro.store import connect
from tests.conftest import (
    ALICE,
    BOB,
    NTHREADS,
    build_demo_tree,
    fresh_tsummary_rows,
    tsummary_rows,
)

OPTS = BuildOptions(nthreads=NTHREADS)

#: entries columns compared by the row oracle — everything but atime
ENTRY_COLS = (
    "name, type, inode, mode, nlink, uid, gid, size, "
    "mtime, ctime, linkname, xattr_names"
)


def entry_rows(index: GUFIIndex) -> dict[str, tuple]:
    """source-path → full entries row (minus atime), admin-side."""
    out: dict[str, tuple] = {}
    for d in index.iter_index_dirs():
        sp = index.source_path(d)
        prefix = "" if sp == "/" else sp
        conn = connect.open_ro(d / "db.db")
        try:
            for row in conn.execute(f"SELECT {ENTRY_COLS} FROM entries"):
                out[f"{prefix}/{row[0]}"] = row
        finally:
            conn.close()
    return out


def query_rows(index: GUFIIndex, spec, creds=None) -> list:
    kwargs = {} if creds is None else {"creds": creds}
    q = QueryEngine(index, nthreads=NTHREADS, **kwargs)
    try:
        return sorted(q.run(spec).rows)
    finally:
        q.close()


def dir_stats(index_root, dirs) -> dict[str, object]:
    """DirStats per live directory, through a cold handle (no cache
    artifacts can mask a stale database)."""
    idx = GUFIIndex.open(index_root)
    out = {}
    for d in sorted(dirs):
        meta = idx.cached_dir_meta(d)
        assert meta is not None, f"no index database for {d}"
        out[d] = (meta.mode, meta.uid, meta.gid, meta.stats)
    return out


def assert_tsummary_fresh(index: GUFIIndex, start: str = "/") -> None:
    """The rows an apply left at ``start`` (refreshed on the applying
    handle, whose memoised contributions it folds) are the rows a
    fresh handle computes from the same index."""
    got = tsummary_rows(index.root, start)
    assert got and got == fresh_tsummary_rows(index.root, start)


def assert_equivalent(inc_index, tree, tmp_path, *, stats_dirs=None,
                      tsummary=False, creds_list=(None, ALICE, BOB)):
    """Incremental index == from-scratch rebuild of the live tree."""
    fresh = dir2index(tree, tmp_path / "fresh", opts=OPTS).index
    assert entry_rows(inc_index) == entry_rows(fresh)
    for creds in creds_list:
        for spec in (Q1_LIST_PATHS, Q2_DIR_SIZES, Q3_DU_SUMMARIES):
            assert query_rows(inc_index, spec, creds) == query_rows(
                fresh, spec, creds
            ), f"divergence under creds={creds} spec={spec}"
    if tsummary:
        # build the oracle's tsummary first: DirStats.maxdepth reads it
        build_tsummary(fresh, "/", per_user_group=True)
        assert query_rows(inc_index, Q4_DU_TSUMMARY) == query_rows(
            fresh, Q4_DU_TSUMMARY
        )
    if stats_dirs is not None:
        assert dir_stats(inc_index.root, stats_dirs) == dir_stats(
            fresh.root, stats_dirs
        )


class TestDeterministicEquivalence:
    """Every op type, hand-scripted on the demo tree."""

    def test_each_op_type_applies_equivalently(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        build_tsummary(index, "/", per_user_group=True)
        journal = ChangeJournal()
        tree.set_changelog(journal)

        tree.create_file("/home/bob/new.dat", size=123, uid=1002, gid=1002)
        tree.mkdir("/home/bob/newdir", mode=0o755, uid=1002, gid=1002)
        tree.create_file("/home/bob/newdir/inner.txt", size=7,
                         uid=1002, gid=1002)
        tree.unlink("/public/readme")
        tree.rename("/home/bob/b.txt", "/public/b.txt")  # cross-dir file
        tree.rename("/home/bob/newdir", "/proj/newdir")  # created this batch
        tree.rename("/public/ronly", "/proj/ronly")  # pre-existing subtree
        tree.chmod("/home/alice", 0o755, ALICE)
        tree.chown("/home/alice/a.txt", uid=1003, gid=100)
        tree.utime("/proj/shared/p.c", atime=5, mtime=9)
        tree.setxattr("/proj/shared/data/d.h5", "user.tag", b"v")
        tree.removexattr("/proj/shared/data/d.h5", "user.tag")
        tree.unlink("/home/bob/secret/s.key")
        tree.rmdir("/home/bob/secret", BOB)

        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert_tsummary_fresh(index)
        assert result.events_applied > 0
        assert result.dirs_moved == 1  # only the pre-existing subtree
        # moves a directory created in the same batch by rebuilding it
        assert result.dirs_removed >= 1  # the rmdir
        live_dirs = [
            "/", "/home", "/home/alice", "/home/alice/sub", "/home/bob",
            "/proj", "/proj/newdir", "/proj/ronly", "/proj/shared",
            "/proj/shared/data", "/public", "/public/xonly",
        ]
        assert_equivalent(index, tree, tmp_path, stats_dirs=live_dirs,
                          tsummary=True)

    def test_moved_subtree_depth_columns_healed(self, tmp_path):
        """A cross-depth directory move must leave every descendant's
        absolute depth column correct (self-healing fixup)."""
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.rename("/home/alice/sub", "/sub")  # depth 3 -> depth 1
        changefeed2index(index, tree, journal, opts=OPTS)
        conn = connect.open_ro(index.db_path("/sub"))
        try:
            (depth,) = conn.execute(
                "SELECT depth FROM summary WHERE isroot = 1 AND rectype = 0"
            ).fetchone()
        finally:
            conn.close()
        assert depth == 1
        assert_equivalent(index, tree, tmp_path)

    def test_cross_depth_move_refreshes_maxdepth(self, tmp_path):
        """Descendants of a moved directory are not rebuilt:
        ``_fix_depths`` shifts their ``summary.depth`` in place. The
        refresh on the applying handle must not fold their pre-move
        contributions."""
        tree = build_demo_tree()
        tree.makedirs("/home/alice/sub/d4/d5", mode=0o700, uid=1001, gid=1001)
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        build_tsummary(index, "/")
        maxdepth = {r[:3]: r[11] for r in tsummary_rows(index.root)}
        assert maxdepth[(0, 0, 0)] == 5
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.rename("/home/alice/sub", "/sub")  # d5: depth 5 -> 3
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.dirs_moved == 1 and result.tsummary_refreshed == 1
        maxdepth = {r[:3]: r[11] for r in tsummary_rows(index.root)}
        assert maxdepth[(0, 0, 0)] == 3
        assert_tsummary_fresh(index)
        assert_equivalent(index, tree, tmp_path, tsummary=True)

    def test_refresh_rereads_only_what_the_apply_rewrote(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        cold = build_tsummary(index, "/")
        assert cold.dbs_opened == cold.dirs_scanned
        journal = ChangeJournal()
        tree.set_changelog(journal)
        for batch in (
            lambda: tree.create_file("/public/x.txt", size=1, uid=0, gid=0),
            lambda: (
                tree.chmod("/home/bob", 0o700, BOB),
                tree.unlink("/proj/shared/data/d.h5"),
                tree.utime("/home/alice/a.txt", atime=1, mtime=2),
            ),
        ):
            batch()
            result = changefeed2index(index, tree, journal, opts=OPTS)
            assert result.tsummary_refreshed == 1
            # the rebuilt directories, plus the root the last build
            # wrote its rows into
            assert result.tsummary_dbs_opened == result.dirs_rebuilt + 1
            assert_tsummary_fresh(index)
        assert_equivalent(index, tree, tmp_path, tsummary=True)

    def test_empty_batch_is_a_noop(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.events_applied == 0
        assert result.dirs_rebuilt == 0

    def test_second_apply_is_a_noop(self, tmp_path):
        """The cursor advances past applied events: re-running the
        consumer immediately drains nothing."""
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.create_file("/public/x.txt", size=1, uid=0, gid=0)
        first = changefeed2index(index, tree, journal, opts=OPTS)
        assert first.events_applied == 1
        again = changefeed2index(index, tree, journal, opts=OPTS)
        assert again.events_applied == 0
        assert len(journal) == 0  # released after commit


class TestRollupEquivalence:
    """Satellite 1, rolled-up variant: applying a changefeed to a
    rolled index still answers queries identically to a fresh rebuild
    (affected rollups are unrolled; untouched ones keep serving)."""

    def test_apply_to_rolled_index(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        rollup(index, nthreads=NTHREADS)
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.create_file("/home/alice/sub/fresh.dat", size=11,
                         mode=0o600, uid=1001, gid=1001)
        tree.chmod("/home/bob", 0o700, BOB)
        tree.rename("/proj/shared/p.c", "/proj/shared/data/p.c")
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.unrolled_dirs  # rollups on touched paths undone
        assert_equivalent(index, tree, tmp_path)

    def test_rmdir_under_rollup(self, tmp_path):
        tree = build_demo_tree()
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        rollup(index, nthreads=NTHREADS)
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.unlink("/home/bob/secret/s.key")
        tree.rmdir("/home/bob/secret", BOB)
        changefeed2index(index, tree, journal, opts=OPTS)
        assert not index.index_dir("/home/bob/secret").exists()
        assert_equivalent(index, tree, tmp_path)


    def test_rolled_directory_moved_onto_a_checked_path(self, tmp_path):
        """Each ancestor's rollup state is checked once per batch —
        but a path the batch vacates and refills names a different
        directory afterwards and must be checked again."""
        tree = build_demo_tree()
        tree.makedirs("/proj/z/alice/child", mode=0o755, uid=0, gid=0)
        index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
        rollup(index, nthreads=NTHREADS)
        assert index.dir_meta("/home/alice").rolledup
        assert not index.dir_meta("/home").rolledup
        journal = ChangeJournal()
        tree.set_changelog(journal)
        tree.rmdir("/proj/z/alice/child")  # /proj/z/alice gets checked
        tree.rename("/proj/z", "/proj/old")
        tree.rename("/home", "/proj/z")  # brings a rolled-up /proj/z/alice
        tree.create_file("/proj/z/alice/sub/late.dat", size=5, mode=0o600,
                         uid=1001, gid=1001)
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert "/proj/z/alice" in result.unrolled_dirs
        assert_equivalent(index, tree, tmp_path)


class TestReduceEventsUnit:
    """The fold from events to (structural ops, dirty dirs)."""

    def _ev(self, seq, op, path, ftype="f", dst=None):
        from repro.fs.changelog import ChangeEvent

        return ChangeEvent(seq=seq, op=op, path=path, ino=seq,
                           ftype=ftype, dst_path=dst)

    def test_rename_remaps_earlier_dirty_paths(self):
        events = [
            self._ev(1, "create", "/a/b/f"),
            self._ev(2, "rename", "/a/b", ftype="d", dst="/c"),
        ]
        structural, dirty = reduce_events(events)
        assert structural == [("move", "/a/b", "/c")]
        assert "/c" in dirty and "/a/b" not in dirty

    def test_rmdir_drops_dirty_descendants(self):
        events = [
            self._ev(1, "create", "/a/b/f"),
            self._ev(2, "rmdir", "/a/b", ftype="d"),
        ]
        structural, dirty = reduce_events(events)
        assert structural == [("remove", "/a/b", None)]
        assert dirty == {"/a"}

    def test_metadata_on_file_dirties_parent_only(self):
        _, dirty = reduce_events([self._ev(1, "chmod", "/a/b/f")])
        assert dirty == {"/a/b"}

    def test_metadata_on_dir_dirties_itself(self):
        _, dirty = reduce_events(
            [self._ev(1, "chmod", "/a/b", ftype="d")]
        )
        assert dirty == {"/a/b"}


class TestRandomInterleavingProperty:
    """Satellite 1 proper: random mutate/apply interleavings on
    generated namespaces converge to the from-scratch rebuild."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        batches=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=4
        ),
    )
    def test_interleaved_applies_equal_full_rebuild(
        self, tmp_path_factory, seed, batches
    ):
        ns = dataset2(scale=0.00005, seed=seed)
        root = tmp_path_factory.mktemp("cfeq")
        index = dir2index(ns.tree, root / "idx", opts=OPTS).index
        build_tsummary(index, "/", per_user_group=True)
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        mut = NamespaceMutator(ns, seed=seed ^ 0xC0FFEE)
        # one long-lived handle across every apply: each refresh folds
        # what earlier builds memoised on it
        for n in batches:
            mut.mutate(n)
            changefeed2index(index, ns.tree, journal, opts=OPTS)
            assert_tsummary_fresh(index)
        assert_equivalent(index, ns.tree, root, stats_dirs=ns.dirs,
                          tsummary=True)

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_rolled_namespace_property(self, tmp_path_factory, seed):
        ns = dataset2(scale=0.00005, seed=seed)
        root = tmp_path_factory.mktemp("cfroll")
        index = dir2index(ns.tree, root / "idx", opts=OPTS).index
        rollup(index, nthreads=NTHREADS)
        build_tsummary(index, "/", per_user_group=True)
        journal = ChangeJournal()
        ns.tree.set_changelog(journal)
        mut = NamespaceMutator(ns, seed=seed)
        mut.mutate(15)
        changefeed2index(index, ns.tree, journal, opts=OPTS)
        assert_tsummary_fresh(index)
        assert_equivalent(index, ns.tree, root, tsummary=True)
