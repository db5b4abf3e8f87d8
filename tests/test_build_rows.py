"""The one database writer, its two producers of rows, and what a
changefeed rebuild hands over to the index handle.

:func:`~repro.core.build.build_dir_db` takes a trace stanza (records
converted with ``entry_row``) or the rows a live rescan built straight
from the inodes (``scan_single_dir`` / ``dir_rows``); both must write
the same database. A changefeed rebuild that a tree-summary refresh
will fold hands its directory's contribution to the index handle,
memoised under the published file's stamp: the refresh must not
re-read it, and must re-read anything rewritten after it. Every
rebuild hands over its directory's ``DirMeta`` the same way, so the
first walk after an apply finds the rebuilt directories warm.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.build import BuildOptions, build_dir_db, dir2index
from repro.core.changefeed import _fix_depths, changefeed2index
from repro.core.engine.stages import StageRunner
from repro.core.index import GUFIIndex
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.core.update import scan_single_dir
from repro.fs.changelog import ChangeJournal
from repro.fs.inode import FileType
from repro.fs.tree import VFSTree
from repro.scan.faults import BuildCrash, FaultPlan
from repro.scan.scanners import record_from_inode
from repro.scan.trace import DirStanza, read_trace, write_trace
from repro.store import connect, layout, schema
from repro.store.layout import DirStore
from tests.conftest import NTHREADS, build_demo_tree, fresh_tsummary_rows, tsummary_rows

OPTS = BuildOptions(nthreads=NTHREADS)


def index_contents(root: Path) -> dict[str, dict[str, list]]:
    """Every artifact of an index (``db.db`` and xattr shards, by path
    relative to the root) → table → rows in storage order."""
    out: dict[str, dict[str, list]] = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if layout.classify_artifact(name) is None:
                continue
            path = os.path.join(dirpath, name)
            conn = connect.open_ro(path)
            try:
                out[os.path.relpath(path, root)] = {
                    table: conn.execute(f"SELECT * FROM {table}").fetchall()
                    for (table,) in conn.execute(
                        "SELECT name FROM sqlite_master "
                        "WHERE type = 'table' ORDER BY name"
                    )
                }
            finally:
                conn.close()
    return out


def both_producers(tree: VFSTree, dirs: list[str], root: Path,
                   opts: BuildOptions) -> tuple[dict, dict]:
    """Write ``dirs`` through the inode path and through the trace path
    (scan → ``write_trace`` → ``read_trace`` → ``build_dir_db``) into
    two indexes; return both indexes' contents."""
    inode_idx = GUFIIndex.create(root / "inode")
    trace_idx = GUFIIndex.create(root / "trace")
    stanzas = []
    for d in dirs:
        scanned = scan_single_dir(tree, d)
        build_dir_db(inode_idx, scanned, opts)
        # the same directory record: a listing bumps the directory's
        # atime, entries' records come from the same inodes
        prefix = "" if d == "/" else d
        stanzas.append(DirStanza(scanned.directory, [
            record_from_inode(f"{prefix}/{name}", inode)
            for name, inode in tree.readdir_plus(d)
            if inode.ftype is not FileType.DIRECTORY
        ]))
    write_trace(stanzas, root / "t.trace")
    for stanza in read_trace(root / "t.trace"):
        build_dir_db(trace_idx, stanza, opts)
    return index_contents(inode_idx.root), index_contents(trace_idx.root)


UIDS = (0, 1001, 1002)
GIDS = (0, 100, 1001)
MODES = (0o644, 0o600, 0o640, 0o604, 0o444, 0o000, 0o755)

entry_st = st.fixed_dictionaries({
    "symlink": st.booleans(),
    "uid": st.sampled_from(UIDS),
    "gid": st.sampled_from(GIDS),
    "mode": st.sampled_from(MODES),
    "size": st.integers(min_value=0, max_value=10**6),
    "xattrs": st.dictionaries(
        st.sampled_from(("user.a", "user.b", "user.tag")),
        st.binary(max_size=6),
        max_size=2,
    ),
})


def make_tree(dir_uid, dir_gid, dir_mode, dir_xattrs, entries) -> VFSTree:
    t = VFSTree()
    t.mkdir("/d", mode=dir_mode, uid=dir_uid, gid=dir_gid)
    t.mkdir("/d/empty", mode=0o700, uid=dir_uid, gid=dir_gid)
    for k, v in dir_xattrs.items():
        t.setxattr("/d", k, v)
    for i, e in enumerate(entries):
        path = f"/d/e{i:02d}"
        if e["symlink"]:
            t.symlink(path, f"/d/target{i}", uid=e["uid"], gid=e["gid"])
            continue
        t.create_file(path, size=e["size"], mode=e["mode"],
                      uid=e["uid"], gid=e["gid"])
        for k, v in e["xattrs"].items():
            t.setxattr(path, k, v)
    return t


class TestTwoProducersOneWriter:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dir_uid=st.sampled_from(UIDS),
        dir_gid=st.sampled_from(GIDS),
        dir_mode=st.sampled_from((0o755, 0o750, 0o700, 0o711)),
        dir_xattrs=st.dictionaries(
            st.sampled_from(("user.d", "user.e")), st.binary(max_size=4),
            max_size=1,
        ),
        entries=st.lists(entry_st, max_size=12),
        per_user_group=st.booleans(),
    )
    def test_inode_and_trace_paths_write_the_same_rows(
        self, dir_uid, dir_gid, dir_mode, dir_xattrs, entries, per_user_group
    ):
        tree = make_tree(dir_uid, dir_gid, dir_mode, dir_xattrs, entries)
        opts = BuildOptions(nthreads=1, per_user_group_summaries=per_user_group)
        with tempfile.TemporaryDirectory() as td:
            got, want = both_producers(
                tree, ["/", "/d", "/d/empty"], Path(td), opts
            )
        assert got == want
        assert "d/empty/db.db" in got

    def test_every_placement_rule_and_type(self, tmp_path):
        """One directory that hits all four xattr placement rules, a
        symlink and an empty directory — rows, shards and
        ``xattrs_avail`` equal on both paths."""
        entries = [
            # rule 2: same owner, group and read bits as the directory
            {"symlink": False, "uid": 1001, "gid": 1001, "mode": 0o644,
             "size": 3, "xattrs": {"user.a": b"same"}},
            # rule 3: another owner, the directory's group
            {"symlink": False, "uid": 1002, "gid": 1001, "mode": 0o600,
             "size": 5, "xattrs": {"user.b": b"mine"}},
            # rule 4, group-readable and not
            {"symlink": False, "uid": 1001, "gid": 100, "mode": 0o640,
             "size": 7, "xattrs": {"user.tag": b"grp"}},
            {"symlink": False, "uid": 1001, "gid": 100, "mode": 0o600,
             "size": 9, "xattrs": {"user.tag": b"\x00\xff"}},
            {"symlink": True, "uid": 1002, "gid": 0, "mode": 0o777,
             "size": 0, "xattrs": {}},
        ]
        # rule 1: the directory's own values
        tree = make_tree(1001, 1001, 0o755, {"user.d": b"dir"}, entries)
        for pug in (False, True):
            opts = BuildOptions(nthreads=1, per_user_group_summaries=pug)
            got, want = both_producers(
                tree, ["/d", "/d/empty"], tmp_path / f"pug{pug}", opts
            )
            assert got == want
            shards = {
                name for name in os.listdir(tmp_path / f"pug{pug}/inode/d")
                if layout.is_side_artifact(name)
            }
            # rule 3 gives every owner whose file differs a copy
            assert shards == {
                "xattrs.db.u1001", "xattrs.db.u1002",
                "xattrs.db.g100.r", "xattrs.db.g100.nr",
            }
            assert len(got["d/db.db"]["xattrs"]) == 2  # rules 1 and 2
            assert len(got["d/db.db"]["xattrs_avail"]) == 4

    def test_dir2index_matches_a_trace_build(self, tmp_path):
        """dir2index (the inode path) and trace2index of a tree walk
        hold the same rows but the directories' own atimes, which each
        scan's listing bumps."""
        from repro.core.build import trace2index
        from repro.scan.scanners import TreeWalkScanner

        tree = build_demo_tree()
        a = dir2index(tree, tmp_path / "a", opts=OPTS).index
        write_trace(TreeWalkScanner(tree, nthreads=1).scan("/").stanzas,
                    tmp_path / "t.trace")
        b = trace2index(tmp_path / "t.trace", tmp_path / "b", OPTS).index
        atime = schema.SUMMARY_COLUMNS.index("atime")

        def without_dir_atimes(contents):
            for tables in contents.values():
                tables["summary"] = [
                    r[:atime] + r[atime + 1:] for r in tables.get("summary", ())
                ]
            return contents

        assert without_dir_atimes(index_contents(a.root)) == (
            without_dir_atimes(index_contents(b.root))
        )


def setup(tmp_path, tsummary=True):
    tree = build_demo_tree()
    index = dir2index(tree, tmp_path / "idx", opts=OPTS).index
    if tsummary:
        build_tsummary(index, "/")
    journal = ChangeJournal()
    tree.set_changelog(journal)
    return tree, index, journal


class TestContributionHandOver:
    def test_database_replaced_after_the_apply_is_reread(self, tmp_path):
        tree, index, journal = setup(tmp_path)
        tree.create_file("/public/x.txt", size=1, uid=0, gid=0)
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.tsummary_dbs_opened == 1  # the root only
        # out of band: a copy with other rows renamed over the database
        db = index.db_path("/public")
        copy = db.with_name("db.copy")
        shutil.copy(db, copy)
        conn = connect.open_rw(copy)
        conn.execute("UPDATE entries SET size = size + 1000")
        conn.close()
        os.replace(copy, db)
        # the memo the rebuild handed over no longer matches the file
        again = build_tsummary(index, "/")
        assert again.dbs_opened == 2  # the root and /public
        assert tsummary_rows(index.root) == fresh_tsummary_rows(index.root)

    def test_kill_at_commit_installs_no_memo_and_replay_converges(
        self, tmp_path
    ):
        tree, index, journal = setup(tmp_path)
        put = []
        real_put = index.cache.put_contribution
        index.cache.put_contribution = lambda *a: (put.append(a[0]), real_put(*a))
        tree.create_file("/home/bob/n.dat", size=20, uid=1002, gid=1002)
        tree.create_file("/public/n.txt", size=40, uid=0, gid=0)
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal, opts=OPTS,
                faults=FaultPlan.crash_at("build_dir_db.commit", 1),
            )
        assert put == []
        resumed = changefeed2index(index, tree, journal, opts=OPTS)
        assert resumed.dirs_rebuilt == 2
        # the two hand-overs, then the refresh's read of the root
        assert put == ["/home/bob", "/public", "/"]
        assert tsummary_rows(index.root) == fresh_tsummary_rows(index.root)

    @pytest.mark.parametrize("tsummary", [False, True])
    def test_contribution_read_only_when_a_refresh_follows(
        self, tmp_path, monkeypatch, tsummary
    ):
        tree, index, journal = setup(tmp_path, tsummary=tsummary)
        statements: list[str] = []
        stage = DirStore.stage_primary

        def traced_stage(self):
            conn = stage(self)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(DirStore, "stage_primary", traced_stage)
        tree.create_file("/home/bob/n.dat", size=20, uid=1002, gid=1002)
        tree.create_file("/public/n.txt", size=40, uid=0, gid=0)
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.dirs_rebuilt == 2
        reads = [s for s in statements if "main.summary" in s or "main.pentries" in s]
        # per rebuilt directory: the DirMeta statement always, and
        # tsummary's two statements when a refresh follows
        assert len(reads) == 2 * (3 if tsummary else 1)
        for d in ("/home/bob", "/public"):
            entry = index.cache._db.entries[d]
            assert entry.stamp == entry.meta.stamp == index.store(d).stamp()
            assert (entry.contrib is not None) == tsummary


REBUILT = ("/home/bob", "/public")


def rebuild_two(tree, index, journal):
    tree.create_file("/home/bob/n.dat", size=20, uid=1002, gid=1002)
    tree.create_file("/public/n.txt", size=40, uid=0, gid=0)
    result = changefeed2index(index, tree, journal, opts=OPTS)
    assert result.dirs_rebuilt == len(REBUILT)


def cold_meta(index, d):
    conn = connect.open_ro(index.db_path(d))
    try:
        return GUFIIndex.read_dir_meta(conn)
    finally:
        conn.close()


class TestDirMetaHandOver:
    @pytest.mark.parametrize("tsummary", [False, True])
    def test_rebuilt_directory_is_a_hit_equal_to_a_cold_read(
        self, tmp_path, tsummary
    ):
        tree, index, journal = setup(tmp_path, tsummary=tsummary)
        rebuild_two(tree, index, journal)
        cache = index.cache
        for d in REBUILT:
            hits, misses = cache.meta_hits, cache.meta_misses
            meta = cache.get_meta(d, index.db_path(d))
            assert (cache.meta_hits, cache.meta_misses) == (hits + 1, misses)
            assert not meta.lean
            assert meta == cold_meta(index, d)
            assert meta.stamp == index.store(d).stamp()

    def test_planned_find_elides_rebuilt_directories(
        self, tmp_path, monkeypatch
    ):
        tree, index, journal = setup(tmp_path, tsummary=False)
        attached: list[str] = []
        attach = StageRunner.attach

        def counted(self, st, db_path):
            attached.append(db_path)
            return attach(self, st, db_path)

        monkeypatch.setattr(StageRunner, "attach", counted)
        # no directory holds a file this large: the plan prunes them all
        nothing = FindFilters(min_size=1 << 40)
        with GUFITools(index, nthreads=NTHREADS) as tools:
            tools.find("/", nothing)  # cold: reads and caches full records
            attached.clear()
            warm = tools.find("/", nothing)
            warm_attached = sorted(attached)
            rebuild_two(tree, index, journal)
            attached.clear()
            after = tools.find("/", nothing)
        # /home/bob is pruned and elided, after its rebuild as before;
        # /public (a symlink's size bounds nothing) is opened both times
        assert str(index.db_path("/home/bob")) not in attached
        assert sorted(attached) == warm_attached
        assert after.rows == []
        assert after.attaches_elided == warm.attaches_elided > 0

    def test_rewrite_after_the_apply_misses_by_stamp(self, tmp_path):
        tree, index, journal = setup(tmp_path, tsummary=False)
        rebuild_two(tree, index, journal)
        # out of band: a copy with another mode renamed over /public's
        db = index.db_path("/public")
        copy = db.with_name("db.copy")
        shutil.copy(db, copy)
        conn = connect.open_rw(copy)
        conn.execute("UPDATE summary SET mode = 448 WHERE isroot = 1")
        conn.close()
        os.replace(copy, db)
        misses = index.cache.meta_misses
        assert index.cache.get_meta("/public", db) is None
        assert index.cache.meta_misses == misses + 1
        reread = index.cached_dir_meta("/public")
        assert reread == cold_meta(index, "/public")
        assert reread.mode & 0o777 == 0o700


class TestFixDepths:
    def _rw_opens(self, monkeypatch) -> list[str]:
        opened: list[str] = []
        real = DirStore.rewrite_primary

        def rewrite_primary(self, *args):
            opened.append(str(self.index_dir))
            return real(self, *args)

        monkeypatch.setattr(DirStore, "rewrite_primary", rewrite_primary)
        return opened

    def test_same_depth_rename_writes_nothing(self, tmp_path, monkeypatch):
        tree, index, journal = setup(tmp_path, tsummary=False)
        tree.rename("/home/alice", "/proj/alice")
        opened = self._rw_opens(monkeypatch)
        result = changefeed2index(index, tree, journal, opts=OPTS)
        assert result.dirs_moved == 1
        assert opened == []

    def test_cross_depth_move_writes_each_moved_database_once(
        self, tmp_path, monkeypatch
    ):
        tree, index, journal = setup(tmp_path, tsummary=False)
        tree.rename("/home/alice", "/alice")
        changefeed2index(index, tree, journal, opts=OPTS)
        # the apply already healed it: a replay derives delta 0
        opened = self._rw_opens(monkeypatch)
        _fix_depths(index, "/alice")
        assert opened == []
        # shift it back out of band: every moved database is rewritten
        for sp in ("/alice", "/alice/sub"):
            conn = connect.open_rw(index.db_path(sp))
            conn.execute("UPDATE summary SET depth = depth + 1")
            conn.close()
        opened.clear()
        _fix_depths(index, "/alice")
        assert sorted(opened) == [
            index.index_path("/alice"), index.index_path("/alice/sub")
        ]
        conn = index.store("/alice/sub").open_ro()
        try:
            (depth,) = conn.execute(
                "SELECT depth FROM summary WHERE isroot = 1"
            ).fetchone()
        finally:
            conn.close()
        assert depth == 2


class TestChangefeedMetrics:
    def test_entries_indexed_and_lag(self, tmp_path):
        tree, index, journal = setup(tmp_path, tsummary=False)
        for i in range(3):
            tree.create_file(f"/public/m{i}.txt", size=i, uid=0, gid=0)
        with obs.enabled(metrics=True):
            first = changefeed2index(index, tree, journal, opts=OPTS, limit=2)
            lagging = obs.snapshot().gauge("gufi_changefeed_lag_events")
            rest = changefeed2index(index, tree, journal, opts=OPTS)
            snap = obs.snapshot()
        assert lagging == journal.head - first.cursor == 1
        assert snap.gauge("gufi_changefeed_lag_events") == 0
        assert snap.counter("gufi_changefeed_entries_indexed_total") == (
            first.entries_indexed + rest.entries_indexed
        )
