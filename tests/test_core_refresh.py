"""Tests for the versioned index refresh / atomic-swap lifecycle."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS
from repro.core.refresh import IndexRefresher, diff_indexes
from repro.fs.changelog import ChangeJournal
from repro.core.tsummary import build_tsummary
from tests.conftest import (
    NTHREADS,
    build_demo_tree,
    fresh_tsummary_rows,
    tsummary_rows,
)


@pytest.fixture
def refresher(tmp_path):
    tree = build_demo_tree()
    return tree, IndexRefresher(
        tree, tmp_path / "pub",
        opts=BuildOptions(nthreads=NTHREADS), keep_versions=2,
    )


class TestRefresh:
    def test_first_publish(self, refresher):
        tree, r = refresher
        record = r.refresh()
        assert record.version == 0
        assert record.dirs == tree.num_dirs
        idx = r.current()
        rows = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows
        assert len(rows) == tree.num_files + tree.num_symlinks

    def test_no_publish_yet(self, refresher):
        _, r = refresher
        with pytest.raises(FileNotFoundError):
            r.current()

    def test_swap_reflects_mutations(self, refresher):
        tree, r = refresher
        r.refresh()
        tree.create_file("/home/bob/fresh.dat", size=7,
                         uid=1002, gid=1002)
        r.refresh()
        rows = [
            x[0]
            for x in QueryEngine(r.current(), nthreads=NTHREADS)
            .run(Q1_LIST_PATHS).rows
        ]
        assert "/home/bob/fresh.dat" in rows

    def test_old_version_still_queryable(self, refresher):
        """In-flight queries hold the old version open while new ones
        resolve the swapped link — both must work."""
        tree, r = refresher
        r.refresh()
        from repro.core.index import GUFIIndex

        old_idx = GUFIIndex.open(r.versions()[-1])
        tree.create_file("/home/bob/late.dat", size=1, uid=1002, gid=1002)
        r.refresh()
        old_rows = QueryEngine(old_idx, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows
        new_rows = QueryEngine(r.current(), nthreads=NTHREADS).run(Q1_LIST_PATHS).rows
        assert len(new_rows) == len(old_rows) + 1

    def test_retention(self, refresher):
        tree, r = refresher
        for _ in range(4):
            r.refresh()
        versions = r.versions()
        assert len(versions) == 2  # keep_versions
        assert versions[-1].name == "v0003"
        # 'current' always resolves to the newest
        assert r.current_path.resolve().name == "v0003"

    def test_version_numbering_resumes(self, tmp_path):
        tree = build_demo_tree()
        r1 = IndexRefresher(tree, tmp_path / "pub",
                            opts=BuildOptions(nthreads=NTHREADS))
        r1.refresh()
        r2 = IndexRefresher(tree, tmp_path / "pub",
                            opts=BuildOptions(nthreads=NTHREADS))
        record = r2.refresh()
        assert record.version == 1

    def test_invalid_keep(self, tmp_path):
        with pytest.raises(ValueError):
            IndexRefresher(build_demo_tree(), tmp_path / "p", keep_versions=0)

    def test_snapshot_isolation(self, refresher):
        """Mutations racing the build must not tear the index: the
        build scans a snapshot."""
        tree, r = refresher
        r.refresh()
        # mutate between refreshes only; the refresh itself snapshots,
        # so its counts are internally consistent
        record = r.refresh()
        idx = r.current()
        assert idx.total_entries() == record.entries


class TestDiff:
    def test_diff_latest(self, refresher):
        tree, r = refresher
        r.refresh()
        tree.create_file("/home/bob/new1", size=100, uid=1002, gid=1002)
        tree.unlink("/public/readme")
        r.refresh()
        diff = r.diff_latest()
        assert diff.created == ["/home/bob/new1"]
        assert diff.removed == ["/public/readme"]
        assert diff.bytes_delta == 100 - 42

    def test_diff_detects_resize(self, refresher):
        tree, r = refresher
        r.refresh()
        tree.unlink("/home/bob/b.txt")
        tree.create_file("/home/bob/b.txt", size=999, uid=1002, gid=1002)
        r.refresh()
        diff = r.diff_latest()
        assert diff.resized == ["/home/bob/b.txt"]
        assert diff.bytes_delta == 999 - 300

    def test_diff_requires_two_versions(self, refresher):
        _, r = refresher
        r.refresh()
        with pytest.raises(ValueError):
            r.diff_latest()

    def test_diff_indexes_direct(self, refresher, tmp_path):
        tree, r = refresher
        r.refresh()
        tree.create_file("/home/bob/x", size=1, uid=1002, gid=1002)
        r.refresh()
        v_old, v_new = r.versions()
        from repro.core.index import GUFIIndex

        diff = diff_indexes(GUFIIndex.open(v_old), GUFIIndex.open(v_new))
        assert diff.total_mutations == 1


class TestIncrementalRefresh:
    """refresh(mode="incremental"): changefeed apply to the published
    version in place, with overflow falling back to a full rebuild."""

    def _refresher(self, tmp_path, capacity=65536):
        tree = build_demo_tree()
        journal = ChangeJournal(capacity=capacity)
        return tree, journal, IndexRefresher(
            tree, tmp_path / "pub",
            opts=BuildOptions(nthreads=NTHREADS),
            keep_versions=2, journal=journal,
        )

    def test_incremental_applies_in_place(self, tmp_path):
        tree, journal, r = self._refresher(tmp_path)
        first = r.refresh()
        tree.create_file("/home/bob/inc.dat", size=9, uid=1002, gid=1002)
        record = r.refresh(mode="incremental")
        assert record.mode == "incremental"
        assert record.version == first.version  # no new version dir
        assert record.events_applied == 1
        assert record.cursor == journal.head
        assert len(r.versions()) == 1
        rows = [
            x[0]
            for x in QueryEngine(r.current(), nthreads=NTHREADS)
            .run(Q1_LIST_PATHS).rows
        ]
        assert "/home/bob/inc.dat" in rows

    def test_incremental_refreshes_tsummary_on_the_live_handle(self, tmp_path):
        tree, journal, r = self._refresher(tmp_path)
        r.refresh()
        index = r.current()
        build_tsummary(index, "/")
        before = tsummary_rows(index.root)
        for i, d in enumerate(("/home/bob", "/proj/shared", "/public")):
            tree.create_file(f"{d}/inc{i}.dat", size=1000 + i, uid=0, gid=0)
            r.refresh(mode="incremental")
            assert r.current() is index  # same handle, same memo
            rows = tsummary_rows(index.root)
            assert rows != before
            assert rows == fresh_tsummary_rows(index.root)
            before = rows

    def test_incremental_with_no_changes_is_noop(self, tmp_path):
        _, _, r = self._refresher(tmp_path)
        r.refresh()
        record = r.refresh(mode="incremental")
        assert record.mode == "incremental"
        assert record.events_applied == 0

    def test_incremental_without_journal_raises(self, tmp_path):
        r = IndexRefresher(build_demo_tree(), tmp_path / "pub",
                           opts=BuildOptions(nthreads=NTHREADS))
        with pytest.raises(ValueError):
            r.refresh(mode="incremental")

    def test_unknown_mode_raises(self, tmp_path):
        _, _, r = self._refresher(tmp_path)
        with pytest.raises(ValueError):
            r.refresh(mode="differential")

    def test_incremental_before_first_publish_falls_back(self, tmp_path):
        tree, _, r = self._refresher(tmp_path)
        tree.create_file("/public/early.txt", size=1, uid=0, gid=0)
        record = r.refresh(mode="incremental")
        assert record.mode == "full"
        assert record.version == 0

    def test_overflow_falls_back_to_full_rebuild(self, tmp_path):
        tree, journal, r = self._refresher(tmp_path, capacity=3)
        first = r.refresh()
        for i in range(8):  # far past the journal bound
            tree.create_file(f"/public/of{i}.txt", size=1, uid=0, gid=0)
        assert journal.overflowed(first.cursor)
        record = r.refresh(mode="incremental")
        assert record.mode == "full"
        assert record.version == first.version + 1
        rows = [
            x[0]
            for x in QueryEngine(r.current(), nthreads=NTHREADS)
            .run(Q1_LIST_PATHS).rows
        ]
        assert "/public/of7.txt" in rows


class TestDiffMoves:
    """diff_latest with a journal: renames are one move each, not a
    create + remove pair (ISSUE satellite: IndexDiff rename-as-move)."""

    def _refresher(self, tmp_path):
        tree = build_demo_tree()
        journal = ChangeJournal()
        return tree, IndexRefresher(
            tree, tmp_path / "pub",
            opts=BuildOptions(nthreads=NTHREADS),
            keep_versions=2, journal=journal,
        )

    def test_file_rename_is_one_move(self, tmp_path):
        tree, r = self._refresher(tmp_path)
        r.refresh()
        tree.rename("/public/readme", "/home/bob/readme")
        r.refresh()
        diff = r.diff_latest()
        assert diff.moved == [("/public/readme", "/home/bob/readme")]
        assert diff.created == [] and diff.removed == []
        assert diff.bytes_delta == 0
        assert diff.total_mutations == 1

    def test_dir_rename_moves_every_descendant(self, tmp_path):
        tree, r = self._refresher(tmp_path)
        r.refresh()
        tree.rename("/home/bob", "/bobhome")
        r.refresh()
        diff = r.diff_latest()
        assert ("/home/bob/b.txt", "/bobhome/b.txt") in diff.moved
        assert (
            "/home/bob/secret/s.key", "/bobhome/secret/s.key"
        ) in diff.moved
        assert diff.created == [] and diff.removed == []

    def test_chained_renames_compose(self, tmp_path):
        tree, r = self._refresher(tmp_path)
        r.refresh()
        tree.rename("/public/readme", "/public/r1")
        tree.rename("/public/r1", "/public/r2")
        r.refresh()
        diff = r.diff_latest()
        assert diff.moved == [("/public/readme", "/public/r2")]

    def test_rename_plus_resize_still_a_move(self, tmp_path):
        """A move whose target also changed size contributes the size
        delta, once."""
        tree, r = self._refresher(tmp_path)
        r.refresh()
        tree.rename("/public/readme", "/public/r2")
        tree.unlink("/public/r2")
        tree.create_file("/public/r2", size=142, uid=0, gid=0)
        r.refresh()
        diff = r.diff_latest()
        # readme (42B) vanished into an unrelated recreate: path diff
        # rules apply — the recreated file is not the moved inode but
        # the path-keyed diff cannot tell, and the paper's passive
        # query only needs byte-conservation:
        assert diff.bytes_delta == 142 - 42

    def test_without_journal_rename_is_create_plus_remove(self, tmp_path):
        tree = build_demo_tree()
        r = IndexRefresher(tree, tmp_path / "pub",
                           opts=BuildOptions(nthreads=NTHREADS),
                           keep_versions=2)
        r.refresh()
        tree.rename("/public/readme", "/home/bob/readme")
        r.refresh()
        diff = r.diff_latest()
        assert diff.moved == []
        assert diff.created == ["/home/bob/readme"]
        assert diff.removed == ["/public/readme"]

    def test_journal_retained_across_retirement_window(self, tmp_path):
        """Three full refreshes with keep_versions=2: the oldest
        version's events may be trimmed, but the window between the
        two *retained* versions must still diff as moves."""
        tree, r = self._refresher(tmp_path)
        r.refresh()
        tree.create_file("/public/x1", size=1, uid=0, gid=0)
        r.refresh()
        tree.rename("/public/x1", "/public/x2")
        r.refresh()
        diff = r.diff_latest()
        assert diff.moved == [("/public/x1", "/public/x2")]
