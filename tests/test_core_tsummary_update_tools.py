"""Tests for tree summaries (bfti), incremental updates, and the
user-facing tool layer."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.index import GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup
from repro.store import connect
from repro.store.schema import RECTYPE_GROUP, RECTYPE_OVERALL, RECTYPE_USER
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary, drop_tsummary
from repro.core.update import unroll_path_to, update_directory
from tests.conftest import (
    ALICE,
    BOB,
    NTHREADS,
    build_demo_tree,
    fresh_tsummary_rows,
    tsummary_rows,
)


def brute_force(tree, top="/"):
    files = links = dirs = size = 0
    for p, ino in tree.iter_inodes():
        if p != top and not p.startswith(top.rstrip("/") + "/"):
            continue
        if ino.ftype.value == "d":
            if p != top:
                dirs += 1
            size += ino.size
        else:
            files += ino.ftype.value == "f"
            links += ino.ftype.value == "l"
            size += ino.size
    return files, links, dirs, size


class TestTSummary:
    def test_overall_matches_brute_force(self, demo_tree, demo_index):
        build_tsummary(demo_index, "/")
        conn = connect.open_ro(demo_index.db_path("/"))
        row = conn.execute(
            "SELECT totfiles, totlinks, totsubdirs, totsize FROM tsummary "
            "WHERE rectype = ?", (RECTYPE_OVERALL,),
        ).fetchone()
        conn.close()
        files, links, dirs, size = brute_force(demo_tree)
        assert row == (files, links, dirs, size)

    def test_per_user_rows(self, demo_tree, demo_index):
        build_tsummary(demo_index, "/")
        conn = connect.open_ro(demo_index.db_path("/"))
        per_user = dict(
            conn.execute(
                "SELECT uid, totfiles FROM tsummary WHERE rectype = ?",
                (RECTYPE_USER,),
            )
        )
        per_group = dict(
            conn.execute(
                "SELECT gid, totfiles FROM tsummary WHERE rectype = ?",
                (RECTYPE_GROUP,),
            )
        )
        conn.close()
        alice_files = sum(
            1 for _, i in demo_tree.iter_inodes()
            if i.ftype.value == "f" and i.uid == 1001
        )
        assert per_user[1001] == alice_files
        assert 100 in per_group

    def test_subtree_scope(self, demo_tree, demo_index):
        build_tsummary(demo_index, "/home/bob")
        conn = connect.open_ro(demo_index.db_path("/home/bob"))
        (size,) = conn.execute(
            "SELECT totsize FROM tsummary WHERE rectype = 0"
        ).fetchone()
        conn.close()
        assert size == brute_force(demo_tree, "/home/bob")[3]

    def test_same_result_after_rollup_with_fewer_reads(self, demo_index):
        r1 = build_tsummary(demo_index, "/")
        conn = connect.open_ro(demo_index.db_path("/"))
        before = conn.execute(
            "SELECT totfiles, totsize FROM tsummary WHERE rectype=0"
        ).fetchone()
        conn.close()
        rollup(demo_index, nthreads=NTHREADS)
        r2 = build_tsummary(demo_index, "/")
        conn = connect.open_ro(demo_index.db_path("/"))
        after = conn.execute(
            "SELECT totfiles, totsize FROM tsummary WHERE rectype=0"
        ).fetchone()
        conn.close()
        assert before == after
        assert r2.dirs_scanned < r1.dirs_scanned  # the paper's 14.8s->0.37s

    def test_drop(self, demo_index):
        build_tsummary(demo_index, "/")
        assert demo_index.dir_meta("/").tsummary
        drop_tsummary(demo_index, "/")
        assert not demo_index.dir_meta("/").tsummary
        conn = connect.open_ro(demo_index.db_path("/"))
        assert conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE name = 'tsummary'"
        ).fetchone()[0] == 0
        conn.close()

    def test_rebuild_replaces(self, demo_index):
        build_tsummary(demo_index, "/")
        build_tsummary(demo_index, "/")
        conn = connect.open_ro(demo_index.db_path("/"))
        n = conn.execute(
            "SELECT COUNT(*) FROM tsummary WHERE rectype=0"
        ).fetchone()[0]
        conn.close()
        assert n == 1


def reference_tsummary(index, start="/"):
    """The row-at-a-time reference: open every database under
    ``start`` (pruning beneath rolled-up directories), pull every
    ``summary`` and ``pentries`` row into Python, and compute each
    tsummary column from the raw rows."""
    dirs = []  # (size, depth, uid, gid, counts as a sub-directory)
    ents = []  # (type, size, mtime, uid, gid, xattr_names)
    stack = [start]
    while stack:
        sp = stack.pop()
        conn = index.store(sp).open_ro()
        try:
            own_inode, rolledup = conn.execute(
                "SELECT inode, rolledup FROM summary "
                "WHERE isroot = 1 AND rectype = 0"
            ).fetchone()
            for size, depth, uid, gid, inode in conn.execute(
                "SELECT size, depth, uid, gid, inode FROM summary "
                "WHERE rectype = 0"
            ):
                is_start = sp == start and inode == own_inode
                dirs.append((size, depth, uid, gid, not is_start))
            ents += conn.execute(
                "SELECT type, size, mtime, uid, gid, xattr_names FROM pentries"
            ).fetchall()
        finally:
            conn.close()
        if not rolledup:
            prefix = "" if sp == "/" else sp
            stack += [f"{prefix}/{n}" for n in index.subdir_names(sp)]

    def row(rectype, uid, gid, keep):
        d = [x for x in dirs if keep(x[2], x[3])]
        e = [x for x in ents if keep(x[3], x[4])]
        sizes = [x[1] for x in e if x[0] == "f"]
        mtimes = [x[2] for x in e]
        return (
            rectype, uid, gid,
            len(sizes),
            sum(x[0] == "l" for x in e),
            sum(x[4] for x in d),
            sum(x[0] for x in d) + sum(x[1] for x in e),
            min(sizes, default=None), max(sizes, default=None),
            min(mtimes, default=None), max(mtimes, default=None),
            max((x[1] for x in d), default=0),
            sum(bool(x[5]) for x in e),
            len({x[2] for x in d} | {x[3] for x in e}),
            len({x[3] for x in d} | {x[4] for x in e}),
        )

    uids = {x[2] for x in dirs} | {x[3] for x in ents}
    gids = {x[3] for x in dirs} | {x[4] for x in ents}
    return sorted(
        [row(RECTYPE_OVERALL, 0, 0, lambda u, g: True)]
        + [row(RECTYPE_USER, uid, 0, lambda u, g, k=uid: u == k) for uid in uids]
        + [row(RECTYPE_GROUP, 0, gid, lambda u, g, k=gid: g == k) for gid in gids]
    )


class TestTSummaryAgainstReference:
    """The SQL-side grouping and the contribution fold against the
    row-at-a-time reference, every column, on a generated namespace
    with xattrs, symlinks and many owners."""

    def test_every_column_unrolled_and_rolled(self, tmp_path):
        from repro.gen.datasets import dataset2
        from repro.gen.namespace import apply_xattrs

        ns = dataset2(scale=0.0001, seed=5)
        apply_xattrs(ns, 0.3)
        index = dir2index(
            ns.tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        build_tsummary(index, "/")
        unrolled = tsummary_rows(index.root)
        assert unrolled == reference_tsummary(index)
        assert any(r[12] for r in unrolled)  # xattr-bearing entries counted
        assert any(r[4] for r in unrolled)  # symlinks counted
        rollup(index, nthreads=NTHREADS)
        build_tsummary(index, "/")  # warm handle, rolled databases re-read
        assert tsummary_rows(index.root) == unrolled
        assert reference_tsummary(index) == unrolled
        sub = next(d for d in sorted(ns.dirs) if d.count("/") == 2)
        build_tsummary(index, sub)
        assert tsummary_rows(index.root, sub) == reference_tsummary(index, sub)


class TestTSummaryMemo:
    """A tree summary is a fold over per-directory contributions
    memoised on the index handle: a rebuild on a warm handle opens
    only the databases that changed, and writes the rows a fresh
    handle (which reads every database) would."""

    def rebuild(self, index, start="/"):
        """Warm rebuild; its rows must equal a fresh handle's."""
        result = build_tsummary(index, start)
        got = tsummary_rows(index.root, start)
        assert got == fresh_tsummary_rows(index.root, start)
        return result

    def test_cold_build_opens_every_database(self, demo_index):
        r = build_tsummary(demo_index, "/")
        assert r.dbs_opened == r.dirs_scanned == demo_index.count_dbs()

    def test_warm_rebuild_opens_only_the_start(self, demo_index):
        build_tsummary(demo_index, "/")
        # writing the rows changed the start database's stamp: one
        # re-read, everything else folds from the memo
        r = self.rebuild(demo_index)
        assert (r.dbs_opened, r.dirs_scanned) == (1, demo_index.count_dbs())
        stats = demo_index.cache.stats()
        assert stats["contribution_hits"] == r.dirs_scanned - 1
        # the build announces its write to the start's database, which
        # drops the start's own entry (it would fail its stamp anyway)
        assert stats["contribution_entries"] == r.dirs_scanned - 1

    def test_update_directory_rereads_k_plus_start(self, demo_tree, demo_index):
        build_tsummary(demo_index, "/")
        demo_tree.create_file("/home/bob/new.txt", size=999,
                              mode=0o644, uid=1002, gid=1002)
        demo_tree.unlink("/proj/shared/p.c")
        demo_tree.chown("/public/xonly", uid=1002, gid=1002)
        for d in ("/home/bob", "/proj/shared", "/public/xonly"):
            update_directory(demo_index, demo_tree, d)
        r = self.rebuild(demo_index)
        assert r.dbs_opened == 3 + 1

    def test_other_start_shares_the_memo(self, demo_index):
        build_tsummary(demo_index, "/")
        r = self.rebuild(demo_index, "/home")
        assert r.dbs_opened == 0  # every /home database is memoised
        assert r.dirs_scanned == demo_index.count_dbs("/home")
        # /home's own row is its start row here, a sub-directory above
        assert self.rebuild(demo_index).dbs_opened == 2  # "/" and "/home"

    def test_rollup_then_unroll(self, demo_index):
        unrolled = build_tsummary(demo_index, "/")
        before = tsummary_rows(demo_index.root)
        rollup(demo_index, nthreads=NTHREADS)
        rolled = self.rebuild(demo_index)
        # a rolled directory's contribution covers its merged rows
        assert tsummary_rows(demo_index.root) == before
        assert rolled.dirs_scanned < unrolled.dirs_scanned
        assert unroll_path_to(demo_index, "/home/alice/sub")
        again = self.rebuild(demo_index)
        # the unrolled children are walked (and counted) again
        assert tsummary_rows(demo_index.root) == before
        assert again.dirs_scanned > rolled.dirs_scanned

    def test_foreign_handle_rewrite_is_caught_by_the_stamp(
        self, demo_tree, demo_index
    ):
        build_tsummary(demo_index, "/")
        demo_tree.create_file("/home/bob/oob.dat", size=12345,
                              uid=1002, gid=1002)
        # another handle (another process, in effect): no hook of
        # demo_index's cache fires
        foreign = GUFIIndex.open(demo_index.root)
        update_directory(foreign, demo_tree, "/home/bob")
        invalidations = demo_index.cache.invalidations
        r = self.rebuild(demo_index)
        # the one announcement is the rebuild's own, for the start
        assert demo_index.cache.invalidations == invalidations + 1
        assert r.dbs_opened == 2  # the start and /home/bob
        (totsize,) = [row[6] for row in tsummary_rows(demo_index.root)
                      if row[0] == RECTYPE_OVERALL]
        assert totsize == brute_force(demo_tree)[3]

    def test_null_size_and_xattr_names(self, demo_tree, demo_index):
        """NULL ``size`` adds nothing and bounds nothing; NULL (like
        empty) ``xattr_names`` is not xattr-bearing."""
        conn = demo_index.store("/home/bob").open_rw()
        conn.execute(
            "UPDATE entries SET size = NULL, xattr_names = NULL "
            "WHERE name = 'b.txt'"
        )
        conn.commit()
        conn.close()
        build_tsummary(demo_index, "/home/bob")
        rows = {r[:3]: r for r in tsummary_rows(demo_index.root, "/home/bob")}
        overall = rows[(RECTYPE_OVERALL, 0, 0)]
        bob = rows[(RECTYPE_USER, 1002, 0)]
        for row in (overall, bob):
            totfiles, totsize, minsize, maxsize, totxattr = (
                row[3], row[6], row[7], row[8], row[12]
            )
            assert totfiles == 2  # b.txt still counts as a file
            assert (minsize, maxsize) == (50, 50)  # s.key alone bounds
            assert totxattr == 0
        # two directories' sizes plus s.key; b.txt's 300 bytes are gone
        dir_sizes = sum(
            demo_tree.get_inode(d).size
            for d in ("/home/bob", "/home/bob/secret")
        )
        assert overall[6] == dir_sizes + 50


class TestIncrementalUpdate:
    def test_update_reflects_new_files(self, demo_tree, demo_index):
        demo_tree.create_file("/home/bob/new.txt", size=999,
                              mode=0o644, uid=1002, gid=1002)
        update_directory(demo_index, demo_tree, "/home/bob")
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/home/bob/new.txt" in rows

    def test_update_reflects_removed_files(self, demo_tree, demo_index):
        demo_tree.unlink("/home/bob/b.txt")
        update_directory(demo_index, demo_tree, "/home/bob")
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/home/bob/b.txt" not in rows

    def test_security_fix_scenario(self, demo_tree, demo_index):
        """§III-A3: a user exposed a secret in a file name, chmods the
        directory, and requests an immediate index update — the name
        must disappear for other users at once."""
        demo_tree.create_file("/home/bob/SECRET-TOKEN-xyz", size=1,
                              mode=0o600, uid=1002, gid=1002)
        update_directory(demo_index, demo_tree, "/home/bob")
        q_alice = QueryEngine(demo_index, creds=ALICE, nthreads=NTHREADS)
        rows = [r[0] for r in q_alice.run(Q1_LIST_PATHS).rows]
        assert any("SECRET-TOKEN" in r for r in rows)  # name is metadata
        # bob realises and locks his home dir
        demo_tree.chmod("/home/bob", 0o700, BOB)
        update_directory(demo_index, demo_tree, "/home/bob")
        rows = [r[0] for r in q_alice.run(Q1_LIST_PATHS).rows]
        assert not any("SECRET-TOKEN" in r for r in rows)

    def test_update_unrolls_path_only(self, demo_tree, demo_index):
        rollup(demo_index, nthreads=NTHREADS)
        alice_rolled_before = demo_index.dir_meta("/home/alice").rolledup
        demo_tree.create_file("/home/bob/secret/late.dat", size=4,
                              mode=0o600, uid=1002, gid=1002)
        result = update_directory(demo_index, demo_tree, "/home/bob/secret")
        # the path to the target is unrolled; siblings keep theirs
        assert demo_index.dir_meta("/home/alice").rolledup == alice_rolled_before
        q = QueryEngine(demo_index, creds=BOB, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/home/bob/secret/late.dat" in rows

    def test_recursive_update_prunes_stale_dirs(self, demo_tree, demo_index):
        demo_tree.unlink("/home/bob/secret/s.key")
        demo_tree.rmdir("/home/bob/secret", BOB)
        update_directory(demo_index, demo_tree, "/home/bob", recursive=True)
        assert not demo_index.index_dir("/home/bob/secret").exists()
        q = QueryEngine(demo_index, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert not any("secret" in r for r in rows)

    def test_update_converges_to_full_rebuild(self, demo_tree, tmp_path):
        idx = dir2index(
            demo_tree, tmp_path / "i1", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        demo_tree.create_file("/proj/shared/newfile", size=11,
                              mode=0o660, uid=1001, gid=100)
        demo_tree.chmod("/proj/shared", 0o750)
        update_directory(idx, demo_tree, "/proj/shared")
        fresh = dir2index(
            demo_tree, tmp_path / "i2", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        q1 = sorted(QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows)
        q2 = sorted(QueryEngine(fresh, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows)
        assert q1 == q2
        assert idx.dir_meta("/proj/shared").mode == 0o750


class TestTools:
    def test_find_filters(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        result = tools.find("/", FindFilters(min_size=300, ftype="f"))
        paths = {r[0] for r in result.rows}
        assert paths == {"/home/bob/b.txt", "/proj/shared/p.c",
                         "/proj/shared/data/d.h5"}

    def test_find_name_like(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        result = tools.find("/", FindFilters(name_like="%.txt"))
        assert all(p.endswith(".txt") for p, *_ in result.rows)
        # root sees all three .txt files (including inside the 0711 dir)
        assert len(result.rows) == 3

    def test_find_respects_permissions(self, demo_index):
        tools = GUFITools(demo_index, creds=BOB, nthreads=NTHREADS)
        paths = {r[0] for r in tools.find("/").rows}
        assert not any("alice" in p for p in paths)

    def test_ls(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        assert tools.ls("/home/bob") == ["b.txt"]
        long = tools.ls("/home/bob", long_format=True)
        assert "b.txt" in long[0] and "-rw-r--r--" in long[0]

    def test_du_matches_sum(self, demo_tree, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        expected = sum(
            i.size for _, i in demo_tree.iter_inodes() if i.ftype.value != "d"
        )
        assert tools.du("/") == expected
        build_tsummary(demo_index, "/")
        assert tools.du("/", use_tsummary=True) == expected

    def test_du_subtree(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        assert tools.du("/home/alice") == 350

    def test_dir_sizes(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        sizes = dict(tools.dir_sizes("/home"))
        assert sizes["/home/alice"] == 100  # direct entries only
        assert sizes["/home/bob"] == 300

    def test_largest_files(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        top = tools.largest_files(limit=2)
        assert [t[1] for t in top] == [900, 700]

    def test_recently_modified(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        recent = tools.recently_modified(limit=3)
        assert len(recent) == 3
        mtimes = [r[1] for r in recent]
        assert mtimes == sorted(mtimes, reverse=True)

    def test_space_by_user(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        usage = tools.space_by_user("/")
        assert usage[1001] == 100 + 250 + 700
        assert usage[1002] == 300 + 50

    def test_space_by_user_permission_scoped(self, demo_index):
        tools = GUFITools(demo_index, creds=BOB, nthreads=NTHREADS)
        usage = tools.space_by_user("/")
        assert 1001 not in usage or usage[1001] < 1050  # alice's private files out

    def test_xattr_search(self, xattr_namespace):
        ns, tagged, needle, index = xattr_namespace
        tools = GUFITools(index, nthreads=NTHREADS)
        result = tools.xattr_search("needle")
        assert any(needle == r[0] for r in result.rows)
