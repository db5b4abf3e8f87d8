"""Tests for the §III-A2 xattr sharding rules: placement decisions,
side-database protection, per-credential visibility, and the
query-time view construction."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.core.xattrs import (
    GID_NONE,
    UID_NONE,
    shard_xattrs,
    side_db_protection,
)
from repro.fs.permissions import ROOT, Credentials
from repro.fs.tree import VFSTree
from repro.scan.trace import TraceRecord
from repro.store import accessible_side_dbs, connect, side_db_name
from tests.conftest import NTHREADS

ALICE = Credentials(uid=1001, gid=1001)
BOB = Credentials(uid=1002, gid=1002)
GROUPIE = Credentials(uid=1003, gid=1003, groups=frozenset({100}))


def rec(path, ftype="f", mode=0o644, uid=1001, gid=1001, xattrs=None, ino=None):
    return TraceRecord(
        path=path, ftype=ftype, ino=ino or abs(hash(path)) % 10**6,
        mode=mode, nlink=1, uid=uid, gid=gid, size=0, blksize=4096,
        blocks=0, atime=0, mtime=0, ctime=0, xattrs=xattrs or {},
    )


class TestShardingRules:
    DIR = rec("/d", ftype="d", mode=0o750, uid=1001, gid=1001)

    def test_rule1_dir_xattrs_in_main(self):
        d = rec("/d", ftype="d", mode=0o750, uid=1001, gid=1001,
                xattrs={"user.d": b"1"})
        shards = shard_xattrs(d, [])
        assert len(shards.main_rows) == 1
        assert shards.num_side_dbs == 0

    def test_rule2_matching_entry_in_main(self):
        e = rec("/d/f", mode=0o640, uid=1001, gid=1001, xattrs={"user.x": b"1"})
        # read bits of 0640 == read bits of 0750? 0o440 vs 0o440 -> match
        shards = shard_xattrs(self.DIR, [e])
        assert len(shards.main_rows) == 1
        assert shards.num_side_dbs == 0

    def test_rule3_different_owner_gets_user_db(self):
        e = rec("/d/f", mode=0o640, uid=1002, gid=1001, xattrs={"user.x": b"1"})
        shards = shard_xattrs(self.DIR, [e])
        assert not shards.main_rows
        assert list(shards.per_user) == [1002]

    def test_rule4_different_group_readable(self):
        e = rec("/d/f", mode=0o640, uid=1001, gid=100, xattrs={"user.x": b"1"})
        shards = shard_xattrs(self.DIR, [e])
        assert list(shards.per_group_r) == [100]
        assert not shards.per_group_nr
        # owner copy always exists for non-matching entries
        assert list(shards.per_user) == [1001]

    def test_rule4_different_group_unreadable(self):
        e = rec("/d/f", mode=0o600, uid=1001, gid=100, xattrs={"user.x": b"1"})
        shards = shard_xattrs(self.DIR, [e])
        assert list(shards.per_group_nr) == [100]
        assert not shards.per_group_r

    def test_read_bit_mismatch_not_main(self):
        # same owner/group but wider read exposure than the directory
        e = rec("/d/f", mode=0o644, uid=1001, gid=1001, xattrs={"user.x": b"1"})
        shards = shard_xattrs(self.DIR, [e])
        assert not shards.main_rows
        assert list(shards.per_user) == [1001]

    def test_entries_without_xattrs_ignored(self):
        shards = shard_xattrs(self.DIR, [rec("/d/f")])
        assert not shards.main_rows and shards.num_side_dbs == 0


class TestSideDbNaming:
    def test_names(self):
        assert side_db_name("user", 5) == "xattrs.db.u5"
        assert side_db_name("group_r", 9) == "xattrs.db.g9.r"
        assert side_db_name("group_nr", 9) == "xattrs.db.g9.nr"
        with pytest.raises(ValueError):
            side_db_name("wat", 1)

    def test_protection(self):
        assert side_db_protection("user", 5) == (5, GID_NONE, 0o600)
        assert side_db_protection("group_r", 9) == (UID_NONE, 9, 0o040)
        assert side_db_protection("group_nr", 9) == (UID_NONE, 9, 0o000)


@pytest.fixture
def xattr_index(tmp_path):
    """/d is alice's 0750 dir containing files that trigger every rule."""
    t = VFSTree()
    t.mkdir("/d", mode=0o750, uid=1001, gid=1001)
    t.setxattr("/d", "user.dirtag", b"dv")
    t.create_file("/d/mine", mode=0o640, uid=1001, gid=1001)
    t.setxattr("/d/mine", "user.mine", b"m1")
    t.create_file("/d/bobs", mode=0o600, uid=1002, gid=1002)
    t.setxattr("/d/bobs", "user.bobs", b"b1")  # privileged restore
    t.create_file("/d/groupfile", mode=0o640, uid=1001, gid=100)
    t.setxattr("/d/groupfile", "user.grp", b"g1")
    t.create_file("/d/grouphidden", mode=0o600, uid=1001, gid=100)
    t.setxattr("/d/grouphidden", "user.hid", b"h1")
    result = dir2index(t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
    return t, result.index


class TestVisibility:
    def q(self, index, creds):
        spec = QuerySpec(
            E="SELECT name, exattrs FROM xpentries", xattrs=True
        )
        return QueryEngine(index, creds=creds, nthreads=NTHREADS).run(spec, "/d")

    def test_side_dbs_created(self, xattr_index):
        _, index = xattr_index
        d = index.index_dir("/d")
        assert (d / "xattrs.db.u1002").exists()
        assert (d / "xattrs.db.g100.r").exists()
        assert (d / "xattrs.db.g100.nr").exists()

    def test_tracking_table(self, xattr_index):
        _, index = xattr_index
        conn = connect.open_ro(index.db_path("/d"))
        names = {r[0] for r in conn.execute("SELECT filename FROM xattrs_avail")}
        assert "xattrs.db.u1002" in names
        # root sees everything
        assert len(accessible_side_dbs(conn, ROOT)) == len(names)
        # bob sees exactly his per-user db
        assert accessible_side_dbs(conn, BOB) == ["xattrs.db.u1002"]
        conn.close()

    def test_root_sees_all_values(self, xattr_index):
        _, index = xattr_index
        rows = dict(self.q(index, ROOT).rows)
        assert "user.mine=m1" in rows["mine"]
        assert "user.bobs=b1" in rows["bobs"]
        assert "user.grp=g1" in rows["groupfile"]
        assert "user.hid=h1" in rows["grouphidden"]

    def test_owner_sees_own_values(self, xattr_index):
        _, index = xattr_index
        rows = dict(self.q(index, ALICE).rows)
        assert "user.mine=m1" in rows["mine"]
        # alice owns groupfile/grouphidden: her per-user db carries them
        assert "user.grp=g1" in rows["groupfile"]
        assert "user.hid=h1" in rows["grouphidden"]
        # bob's private value is invisible to alice
        assert "bobs" not in rows

    def test_group_member_sees_group_readable_only(self, xattr_index):
        _, index = xattr_index
        rows = dict(self.q(index, GROUPIE).rows)
        # groupie can read /d (0750? no: group 1001...) -> /d gid is
        # 1001, groupie's groups are {1003, 100}: cannot read /d at all!
        assert rows == {}

    def test_group_visibility_with_dir_access(self, tmp_path):
        # same shapes but the directory itself is group-100 readable
        t = VFSTree()
        t.mkdir("/d", mode=0o750, uid=1001, gid=100)
        t.create_file("/d/gfile", mode=0o640, uid=1001, gid=100)
        t.setxattr("/d/gfile", "user.grp", b"gv")
        t.create_file("/d/ghidden", mode=0o600, uid=1001, gid=100)
        t.setxattr("/d/ghidden", "user.hid", b"hv")
        result = dir2index(t, tmp_path / "idx2", opts=BuildOptions(nthreads=NTHREADS))
        rows = dict(self.q(result.index, GROUPIE).rows)
        # gfile matches the parent protection -> main db -> visible;
        # ghidden's value is group-unreadable -> invisible.
        assert "user.grp=gv" in rows.get("gfile", "")
        assert "ghidden" not in rows

    def test_bob_cannot_reach_dir(self, xattr_index):
        # /d is 0750 alice:1001 — bob has no access at all, so even his
        # own per-user side db is unreachable through a query there.
        _, index = xattr_index
        assert self.q(index, BOB).rows == []

    def test_xattr_names_visible_in_entries(self, xattr_index):
        # names are metadata: any user who can list /d sees them
        _, index = xattr_index
        spec = QuerySpec(E="SELECT name, xattr_names FROM entries")
        rows = dict(
            QueryEngine(index, creds=ALICE, nthreads=NTHREADS)
            .run(spec, "/d").rows
        )
        assert rows["bobs"] == "user.bobs"


class TestMoreShardsThanAttachSlots:
    """SQLite attaches at most ten databases per connection; a
    directory (rolled up or not) may hold more readable xattr shards
    than that. The views must still be complete, and still gated."""

    OWNERS = range(2001, 2013)  # twelve per-user shards

    def q(self, index, creds):
        spec = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)
        engine = QueryEngine(index, creds=creds, nthreads=NTHREADS)
        return sorted(engine.run(spec, "/").rows)

    def test_twelve_user_shards_before_and_after_rollup(self, tmp_path):
        from repro.core.rollup import rollup

        t = VFSTree()
        t.mkdir("/d", mode=0o755, uid=0, gid=0)
        for uid in self.OWNERS:
            t.create_file(f"/d/f{uid}", mode=0o600, uid=uid, gid=uid)
            t.setxattr(f"/d/f{uid}", "user.tag", b"v%d" % uid)
        index = dir2index(
            t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        shards = [
            n for n in index.store("/d").side_artifacts() if ".u" in n
        ]
        assert len(shards) == len(self.OWNERS)

        owner = Credentials(uid=2005, gid=2005)
        everything = [(f"f{uid}", f"user.tag=v{uid}") for uid in self.OWNERS]
        for rolled in (False, True):
            if rolled:
                rollup(index, nthreads=NTHREADS)
                assert index.dir_meta("/").rolledup
            assert self.q(index, ROOT) == everything, rolled
            assert self.q(index, owner) == [("f2005", "user.tag=v2005")], rolled
