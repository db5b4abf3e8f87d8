"""Incremental update must refresh xattr shards, not just entries —
stale side databases would leak values the user already changed."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.core.update import update_directory
from repro.fs.permissions import Credentials
from repro.fs.tree import VFSTree
from tests.conftest import NTHREADS

ALICE = Credentials(uid=1001, gid=1001)
XQ = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)


@pytest.fixture
def setup(tmp_path):
    t = VFSTree()
    t.mkdir("/d", mode=0o755, uid=1001, gid=1001)
    t.create_file("/d/f", mode=0o600, uid=1001, gid=1001)
    t.setxattr("/d/f", "user.secret", b"old-value", ALICE)
    idx = dir2index(t, tmp_path / "idx",
                    opts=BuildOptions(nthreads=NTHREADS)).index
    return t, idx


class TestXattrUpdate:
    def test_value_change_visible_after_update(self, setup):
        t, idx = setup
        t.setxattr("/d/f", "user.secret", b"new-value", ALICE)
        update_directory(idx, t, "/d")
        rows = dict(
            QueryEngine(idx, creds=ALICE, nthreads=NTHREADS).run(XQ, "/d").rows
        )
        assert "new-value" in rows["f"]
        assert "old-value" not in rows["f"]

    def test_removed_value_gone_after_update(self, setup):
        t, idx = setup
        t.removexattr("/d/f", "user.secret", ALICE)
        update_directory(idx, t, "/d")
        rows = QueryEngine(idx, creds=ALICE, nthreads=NTHREADS).run(XQ, "/d").rows
        assert rows == []

    def test_stale_side_db_removed(self, setup):
        """The file's ownership changes so its shard destination moves;
        the old side database must not linger."""
        t, idx = setup
        side = idx.index_dir("/d") / "xattrs.db.u1001"
        assert side.exists()
        t.chown("/d/f", 1001, 1001)
        t.chmod("/d/f", 0o644, ALICE)  # now matches dir read bits
        update_directory(idx, t, "/d")
        # value moved to the main db; per-user shard rebuilt away
        assert not side.exists()
        rows = dict(QueryEngine(idx, nthreads=NTHREADS).run(XQ, "/d").rows)
        assert "user.secret=old-value" in rows["f"]

    def test_protection_tightening_effective(self, setup):
        """Making a value group-unreadable must take effect on the
        very next update (the §III-A3 emergency path, xattr flavour)."""
        t, idx = setup
        # initially: 0600 file in a 0755 dir -> per-user shard only;
        # loosen first so another user can see it via group_r
        t.chown("/d/f", 1001, 100)
        t.chmod("/d/f", 0o640, ALICE)
        update_directory(idx, t, "/d")
        groupie = Credentials(uid=1002, gid=1002, groups=frozenset({100}))
        rows = dict(
            QueryEngine(idx, creds=groupie, nthreads=NTHREADS).run(XQ, "/d").rows
        )
        assert "f" in rows  # group member sees the value
        # tighten
        t.chmod("/d/f", 0o600, ALICE)
        update_directory(idx, t, "/d")
        rows = dict(
            QueryEngine(idx, creds=groupie, nthreads=NTHREADS).run(XQ, "/d").rows
        )
        assert rows == {}


class TestUpdateCrashSafety:
    """The update publishes over the old database instead of removing
    it first: a reader racing it — or arriving after a crash inside
    it — finds the directory as it was, subtree included, never a
    hole (a missing ``db.db`` hides the directory and all below it)."""

    def test_crash_at_commit_leaves_the_old_directory_answering(self, setup):
        from repro.scan.faults import BuildCrash, FaultPlan
        from repro.store.doctor import doctor

        t, idx = setup
        t.mkdir("/d/sub", mode=0o755, uid=1001, gid=1001)
        t.create_file("/d/sub/g", mode=0o644, uid=1001, gid=1001)
        update_directory(idx, t, "/d/sub")
        names = QuerySpec(E="SELECT rpath(dname, d_isroot, name) FROM vrpentries")

        def answers():
            with QueryEngine(idx, creds=ALICE, nthreads=NTHREADS) as q:
                return sorted(q.run(names).rows), dict(q.run(XQ, "/d").rows)

        before = answers()
        assert before[0] == [("/d/f",), ("/d/sub/g",)]
        t.setxattr("/d/f", "user.secret", b"new-value", ALICE)
        t.create_file("/d/h", mode=0o600, uid=1001, gid=1001)
        crash = BuildOptions(
            nthreads=NTHREADS,
            faults=FaultPlan.crash_at("build_dir_db.commit", 1),
        )
        with pytest.raises(BuildCrash):
            update_directory(idx, t, "/d", opts=crash)
        assert idx.store("/d").list_partials()  # staged, not published
        assert answers() == before  # old rows, old xattr value, /d/sub too
        update_directory(idx, t, "/d")
        rows, xattrs = answers()
        assert rows == [("/d/f",), ("/d/h",), ("/d/sub/g",)]
        assert "new-value" in xattrs["f"] and "old-value" not in xattrs["f"]
        assert doctor(idx).healthy

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="DirStore.publish renames side shards into their fixed, "
        "final names before the primary: a kill between those renames "
        "leaves the old db.db reading the new shard. Mending it needs "
        "shard names that never collide with the published set's (a "
        "format change).",
    )
    def test_crash_before_the_primary_rename_keeps_the_old_xattrs(self, setup):
        from repro.scan.faults import BuildCrash, Fault, FaultPlan

        t, idx = setup

        def xattrs():
            with QueryEngine(idx, creds=ALICE, nthreads=NTHREADS) as q:
                return dict(q.run(XQ, "/d").rows)

        before = xattrs()
        assert "old-value" in before["f"]
        t.setxattr("/d/f", "user.secret", b"new-value", ALICE)
        primary = Fault(kind="crash", site="publish", path=str(idx.db_path("/d")))
        crash = BuildOptions(nthreads=NTHREADS, faults=FaultPlan([primary]))
        with pytest.raises(BuildCrash):
            update_directory(idx, t, "/d", opts=crash)
        assert crash.faults.fired and idx.store("/d").list_partials()
        assert xattrs() == before  # the old db.db's answers
