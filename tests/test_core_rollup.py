"""Tests for permissions-based rollup: the four-condition matrix,
merge mechanics, query invariance, limits, unrollup restoration, and
the security property that rollup never widens visibility."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, Q2_DIR_SIZES, QuerySpec
from repro.core.rollup import (
    largest_visible_db_bytes,
    rollup,
    rollup_compatible,
    unrollup_dir,
    visible_db_count,
)
from repro.fs.permissions import Credentials
from repro.fs.tree import VFSTree
from repro.store import connect
from tests.conftest import ALICE, BOB, CAROL_IN_PROJ, NTHREADS


class TestConditions:
    def test_cond1_world_rx(self):
        # different owners are fine when both trees are world-visible
        assert rollup_compatible(0o755, 1, 1, 0o755, 2, 2)
        assert not rollup_compatible(0o750, 1, 1, 0o755, 2, 2)
        assert not rollup_compatible(0o755, 1, 1, 0o750, 2, 2)

    def test_cond1_no_fallthrough_corner_guarded(self):
        # 0o705 denies its group what it grants the world; merging it
        # under a 0o755 parent would hand group members access POSIX's
        # no-fallthrough rule withheld. The exact reader-set guard
        # refuses the pair even though the paper's literal condition 1
        # would accept it.
        assert not rollup_compatible(0o755, 1, 1, 0o705, 1, 1)
        # the reverse direction is safe: the 0o705 parent's readers
        # are a subset of the 0o755 child's
        assert rollup_compatible(0o705, 1, 1, 0o755, 1, 1)

    def test_cond2_exact_match(self):
        assert rollup_compatible(0o700, 5, 6, 0o700, 5, 6)
        # cond2 needs no rx bits: identical perms + ownership can never
        # widen visibility (paper condition 2 verbatim)
        assert rollup_compatible(0o600, 5, 6, 0o600, 5, 6)
        assert not rollup_compatible(0o700, 5, 6, 0o710, 5, 6)
        assert not rollup_compatible(0o660, 5, 6, 0o660, 5, 7)

    def test_cond3_group_private(self):
        # ug+rx, same ug perms, same owner/group, o-rx
        assert rollup_compatible(0o770, 5, 6, 0o770, 5, 6)
        assert rollup_compatible(0o750, 5, 6, 0o750, 5, 6)
        assert not rollup_compatible(0o770, 5, 6, 0o770, 5, 7)
        # o+rx on one side breaks cond3 (but may satisfy cond1... not
        # here since the other lacks o+rx)
        assert not rollup_compatible(0o775, 5, 6, 0o770, 5, 6)

    def test_cond3_mode_variant_mismatch(self):
        # write bits differ within group class -> cond2 fails, cond3
        # requires matching ug perms
        assert not rollup_compatible(0o770, 5, 6, 0o750, 5, 6)

    def test_cond4_user_private(self):
        assert rollup_compatible(0o700, 5, 6, 0o700, 5, 9)  # gid may differ
        assert not rollup_compatible(0o700, 5, 6, 0o700, 6, 6)
        # no x and differing gid: cond2 fails (gid), cond4 needs u+rx
        assert not rollup_compatible(0o600, 5, 6, 0o600, 5, 9)
        assert not rollup_compatible(0o750, 5, 6, 0o700, 5, 6)  # g+rx one side

    def test_setgid_bit_blocks_exact_but_not_cond3(self):
        # 02770 vs 0770: full-mode equality fails, but ug perms match
        assert rollup_compatible(0o2770, 5, 6, 0o770, 5, 6)


@pytest.fixture
def rollable_tree():
    """alice's private tree (all 0700) + a mixed tree that cannot roll."""
    t = VFSTree()
    t.mkdir("/home", mode=0o755, uid=0, gid=0)
    t.mkdir("/home/alice", mode=0o700, uid=1001, gid=1001)
    t.mkdir("/home/alice/a", mode=0o700, uid=1001, gid=1001)
    t.mkdir("/home/alice/a/b", mode=0o700, uid=1001, gid=1001)
    t.mkdir("/home/alice/c", mode=0o700, uid=1001, gid=1001)
    for i, d in enumerate(["/home/alice", "/home/alice/a",
                           "/home/alice/a/b", "/home/alice/c"]):
        for j in range(3):
            t.create_file(f"{d}/f{i}{j}", size=10 * (i + 1),
                          mode=0o600, uid=1001, gid=1001)
    t.mkdir("/home/mixed", mode=0o755, uid=0, gid=0)
    t.mkdir("/home/mixed/bob", mode=0o700, uid=1002, gid=1002)
    t.create_file("/home/mixed/bob/priv", size=5, mode=0o600, uid=1002, gid=1002)
    t.create_file("/home/mixed/open", size=7, mode=0o644, uid=0, gid=0)
    return t


@pytest.fixture
def rollable_index(rollable_tree, tmp_path):
    return dir2index(
        rollable_tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


class TestMechanics:
    def test_alice_tree_rolls_to_one_db(self, rollable_index):
        stats = rollup(rollable_index, nthreads=NTHREADS)
        assert stats.rolled >= 2  # alice + alice/a at least
        meta = rollable_index.dir_meta("/home/alice")
        assert meta.rolledup
        assert meta.rollup_entries == 12  # all of alice's files

    def test_mixed_tree_blocked(self, rollable_index):
        stats = rollup(rollable_index, nthreads=NTHREADS)
        assert not rollable_index.dir_meta("/home/mixed").rolledup
        assert stats.blocked_perms >= 1

    def test_pentries_becomes_table(self, rollable_index):
        rollup(rollable_index, nthreads=NTHREADS)
        conn = connect.open_ro(rollable_index.db_path("/home/alice"))
        kind = conn.execute(
            "SELECT type FROM sqlite_master WHERE name='pentries'"
        ).fetchone()[0]
        n = conn.execute("SELECT COUNT(*) FROM pentries").fetchone()[0]
        n_entries = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        conn.close()
        assert kind == "table"
        assert n == 12
        assert n_entries == 3  # original data untouched

    def test_summary_rows_copied_with_prefix(self, rollable_index):
        rollup(rollable_index, nthreads=NTHREADS)
        conn = connect.open_ro(rollable_index.db_path("/home/alice"))
        rows = conn.execute(
            "SELECT name, isroot FROM summary ORDER BY name"
        ).fetchall()
        conn.close()
        names = {n for n, _ in rows}
        assert {"alice", "a", "a/b", "c"} <= names
        assert ("alice", 1) in rows
        assert ("a/b", 0) in rows

    def test_visible_db_count_drops(self, rollable_index):
        before = visible_db_count(rollable_index)
        rollup(rollable_index, nthreads=NTHREADS)
        after = visible_db_count(rollable_index)
        assert after < before
        # alice subtree: 4 dbs -> 1
        assert before - after >= 3

    @pytest.mark.parametrize(
        "start, left", [("/", 5), ("/home/alice", 1), ("/home/mixed/", 2)]
    )
    def test_stats_visible_dbs_is_visible_db_count(
        self, rollable_index, start, left
    ):
        """The pass's own count equals the re-walk it replaces in
        ``gufi rollup`` — nothing rolled, limit-blocked, fully rolled,
        re-run, and re-run under a limit that now blocks directories an
        earlier pass rolled (they stay rolled)."""
        for limit in (0, 6, None, None, 5):
            stats = rollup(
                rollable_index, limit=limit, nthreads=NTHREADS, start=start
            )
            assert stats.visible_dbs == visible_db_count(rollable_index, start)
        assert stats.visible_dbs == left

    def test_rollup_idempotent(self, rollable_index):
        rollup(rollable_index, nthreads=NTHREADS)
        q = QueryEngine(rollable_index, nthreads=NTHREADS)
        r1 = sorted(q.run(Q1_LIST_PATHS).rows)
        stats2 = rollup(rollable_index, nthreads=NTHREADS)
        r2 = sorted(q.run(Q1_LIST_PATHS).rows)
        assert r1 == r2
        meta = rollable_index.dir_meta("/home/alice")
        assert meta.rollup_entries == 12

    def test_largest_visible_db(self, rollable_index):
        before = largest_visible_db_bytes(rollable_index)
        rollup(rollable_index, nthreads=NTHREADS)
        assert largest_visible_db_bytes(rollable_index) >= before


class TestLimits:
    def test_limit_blocks_large_merges(self, rollable_index):
        stats = rollup(rollable_index, limit=5, nthreads=NTHREADS)
        # alice has 12 entries total: the top can't roll at limit 5,
        # but a/b into a is 6 entries > 5 too; c (3) is a leaf.
        assert not rollable_index.dir_meta("/home/alice").rolledup
        assert stats.blocked_limit >= 1

    def test_limit_allows_small_merges(self, rollable_index):
        rollup(rollable_index, limit=6, nthreads=NTHREADS)
        # a (3) + b (3) = 6 <= 6 -> /home/alice/a rolls
        assert rollable_index.dir_meta("/home/alice/a").rolledup
        assert not rollable_index.dir_meta("/home/alice").rolledup

    def test_unlimited(self, rollable_index):
        rollup(rollable_index, limit=None, nthreads=NTHREADS)
        assert rollable_index.dir_meta("/home/alice").rolledup


class TestQueryInvariance:
    @pytest.mark.parametrize("creds", [None, ALICE, BOB, CAROL_IN_PROJ])
    def test_rows_unchanged_for_all_users(self, demo_tree, demo_index, creds):
        kwargs = {"nthreads": NTHREADS}
        if creds is not None:
            kwargs["creds"] = creds
        q = QueryEngine(demo_index, **kwargs)
        before1 = sorted(q.run(Q1_LIST_PATHS).rows)
        before2 = sorted(q.run(Q2_DIR_SIZES).rows)
        rollup(demo_index, nthreads=NTHREADS)
        assert sorted(q.run(Q1_LIST_PATHS).rows) == before1
        assert sorted(q.run(Q2_DIR_SIZES).rows) == before2

    def test_rollup_never_leaks(self, rollable_index):
        """Bob must not gain sight of alice's entries via any merged
        database, and vice versa."""
        rollup(rollable_index, nthreads=NTHREADS)
        qb = QueryEngine(rollable_index, creds=BOB, nthreads=NTHREADS)
        rows = [r[0] for r in qb.run(Q1_LIST_PATHS).rows]
        assert not any("/alice/" in r for r in rows)
        qa = QueryEngine(rollable_index, creds=ALICE, nthreads=NTHREADS)
        rows_a = [r[0] for r in qa.run(Q1_LIST_PATHS).rows]
        assert not any("priv" in r for r in rows_a)


class TestUnrollup:
    def test_unrollup_restores_state(self, rollable_index):
        idx = rollable_index
        conn = connect.open_ro(idx.db_path("/home/alice"))
        orig_summary = conn.execute(
            "SELECT name, isroot FROM summary ORDER BY name"
        ).fetchall()
        orig_pentries = conn.execute(
            "SELECT name FROM pentries ORDER BY name"
        ).fetchall()
        conn.close()
        rollup(idx, nthreads=NTHREADS)
        unrollup_dir(idx, "/home/alice")
        conn = connect.open_ro(idx.db_path("/home/alice"))
        assert conn.execute(
            "SELECT name, isroot FROM summary ORDER BY name"
        ).fetchall() == orig_summary
        assert conn.execute(
            "SELECT name FROM pentries ORDER BY name"
        ).fetchall() == orig_pentries
        kind = conn.execute(
            "SELECT type FROM sqlite_master WHERE name='pentries'"
        ).fetchone()[0]
        conn.close()
        assert kind == "view"
        assert not idx.dir_meta("/home/alice").rolledup

    def test_unrollup_independent_of_children(self, rollable_index):
        idx = rollable_index
        rollup(idx, nthreads=NTHREADS)
        unrollup_dir(idx, "/home/alice")
        # children keep their own rollups
        assert idx.dir_meta("/home/alice/a").rolledup
        # and queries still return the full data set
        q = QueryEngine(idx, creds=ALICE, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert sum("/alice/" in r for r in rows) == 12

    def test_unrollup_noop_on_unrolled(self, rollable_index):
        unrollup_dir(rollable_index, "/home/mixed")  # must not raise
        assert not rollable_index.dir_meta("/home/mixed").rolledup


class TestXattrRollup:
    def test_xattr_values_roll_and_unroll(self, tmp_path):
        t = VFSTree()
        t.mkdir("/p", mode=0o700, uid=1001, gid=1001)
        t.mkdir("/p/c", mode=0o700, uid=1001, gid=1001)
        t.create_file("/p/c/f", mode=0o600, uid=1001, gid=1001)
        t.setxattr("/p/c/f", "user.k", b"v")
        # a foreign-owned file inside, so a per-user side db exists
        t.create_file("/p/c/g", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/p/c/g", "user.b", b"w")
        idx = dir2index(t, tmp_path / "i", opts=BuildOptions(nthreads=NTHREADS)).index
        rollup(idx, nthreads=NTHREADS)
        assert idx.dir_meta("/p").rolledup
        # side db merged upward
        assert (idx.index_dir("/p") / "xattrs.db.u1002").exists()
        spec = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)
        rows = dict(
            QueryEngine(idx, creds=ALICE, nthreads=NTHREADS).run(spec, "/p").rows
        )
        assert "user.k=v" in rows["f"]
        assert "g" not in rows  # foreign value stays invisible to alice
        rows_root = dict(
            QueryEngine(idx, nthreads=NTHREADS).run(spec, "/p").rows
        )
        assert "user.b=w" in rows_root["g"]
        # unrollup removes the rolled-in side db and rows
        unrollup_dir(idx, "/p")
        assert not (idx.index_dir("/p") / "xattrs.db.u1002").exists()
        conn = connect.open_ro(idx.db_path("/p"))
        assert conn.execute("SELECT COUNT(*) FROM xattrs").fetchone()[0] == 0
        conn.close()


class _AllOrNothing:
    """What 'exactly rolled or exactly un-rolled' compares: a tree
    whose rollup touches every table and side database, the answers
    three users get, and each directory's state on disk."""

    XQ = QuerySpec(E="SELECT name, exattrs FROM xpentries", xattrs=True)

    def tree(self) -> VFSTree:
        t = VFSTree()
        t.mkdir("/p", mode=0o700, uid=1001, gid=1001)
        t.create_file("/p/own", size=5, mode=0o600, uid=1001, gid=1001)
        # a foreign-owned file at every level: the parent has a side
        # database of its own for the children's to merge into
        t.create_file("/p/g0", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/p/g0", "user.b", b"w0")
        for c in ("c1", "c2", "c3"):
            t.mkdir(f"/p/{c}", mode=0o700, uid=1001, gid=1001)
            t.create_file(f"/p/{c}/f", size=7, mode=0o600, uid=1001, gid=1001)
            t.setxattr(f"/p/{c}/f", "user.k", c.encode())
            t.create_file(f"/p/{c}/g", mode=0o600, uid=1002, gid=1002)
            t.setxattr(f"/p/{c}/g", "user.b", c.encode())
        t.mkdir("/p/c1/deep", mode=0o700, uid=1001, gid=1001)
        t.create_file("/p/c1/deep/h", mode=0o600, uid=1003, gid=1003)
        t.setxattr("/p/c1/deep/h", "user.h", b"x")
        return t

    def answers(self, index):
        index.cache.clear()
        out = []
        for creds in (Credentials(uid=0, gid=0), ALICE, BOB):
            for spec in (Q1_LIST_PATHS, Q2_DIR_SIZES, self.XQ):
                with QueryEngine(index, creds=creds, nthreads=NTHREADS) as q:
                    out.append(sorted(q.run(spec).rows))
        return out

    def dir_state(self, index, sp):
        """(what ``pentries`` and ``vrpentries`` are, the database's
        rows in every table a merge touches, its side databases) —
        what 'exactly' compares."""
        conn = connect.open_ro(index.db_path(sp))
        try:
            rows = [
                sorted(conn.execute(f"SELECT * FROM {table}"), key=repr)
                for table in ("pentries", "summary", "xattrs", "xattrs_avail")
            ]
            kind = conn.execute(
                "SELECT name, type, sql FROM sqlite_master "
                "WHERE name IN ('pentries', 'vrpentries') ORDER BY name"
            ).fetchall()
        finally:
            conn.close()
        store = index.store(sp)
        sides = {}
        for name in store.side_artifacts():
            side = connect.open_ro(store.artifact_path(name))
            try:
                sides[name] = sorted(side.execute("SELECT * FROM xattrs"), key=repr)
            finally:
                side.close()
        return kind, rows, sides

    def snapshot(self, index):
        return {
            index.source_path(d): self.dir_state(index, index.source_path(d))
            for d in index.iter_index_dirs()
        }



class TestRollupIsAllOrNothing(_AllOrNothing):
    """A directory's rollup runs on staged copies and publishes by
    rename: killed at any boundary of any directory's merge, every
    directory is exactly un-rolled or exactly rolled, the pass re-runs
    clean, and ``index doctor`` has nothing to report."""

    def test_killed_at_every_boundary(self, tmp_path):
        from repro.core.rollup import FAULT_SITE
        from repro.scan.faults import BuildCrash, FaultPlan
        from repro.store.doctor import doctor

        opts = BuildOptions(nthreads=NTHREADS)
        flat = dir2index(self.tree(), tmp_path / "flat", opts=opts).index
        rolled = dir2index(self.tree(), tmp_path / "rolled", opts=opts).index
        expected_stats = rollup(rolled, nthreads=1)
        assert expected_stats.rolled == 2  # /p/c1 and /p
        unrolled_state, rolled_state = self.snapshot(flat), self.snapshot(rolled)
        assert unrolled_state["/p"] != rolled_state["/p"]
        expected = self.answers(flat)
        assert expected == self.answers(rolled) and all(expected[:3])

        boundaries = 0
        for at in range(1, 100):
            index = dir2index(
                self.tree(), tmp_path / f"kill{at}", opts=opts
            ).index
            plan = FaultPlan.crash_at(FAULT_SITE, at)
            try:
                rollup(index, nthreads=1, faults=plan)
            except BuildCrash:
                boundaries += 1
            else:
                assert not plan.fired  # every boundary has been a kill site
                break
            # each directory is exactly one of its two states
            for sp, state in self.snapshot(index).items():
                assert state in (unrolled_state[sp], rolled_state[sp]), (at, sp)
            assert self.answers(index) == expected, at
            # the pass re-runs clean and lands where an unkilled one does
            again = rollup(index, nthreads=1)
            assert (again.rolled, again.visible_dbs) == (
                expected_stats.rolled, expected_stats.visible_dbs
            ), at
            assert self.snapshot(index) == rolled_state, at
            assert self.answers(index) == expected, at
            assert doctor(index).healthy, at
        # entry + seed + one per child + publish, for both rolled dirs
        assert boundaries == (3 + 1) + (3 + 3)


class TestUnrollupIsAllOrNothing(_AllOrNothing):
    """Unrollup is staged and published like rollup. Killed at any
    boundary, a directory is exactly rolled or exactly un-rolled —
    never flagged rolled over an emptied ``pentries``, which would
    hide its whole sub-tree from every answer."""

    def rolled_index(self, root):
        index = dir2index(
            self.tree(), root, opts=BuildOptions(nthreads=NTHREADS)
        ).index
        rollup(index, nthreads=1)
        return index

    def test_killed_at_every_boundary(self, tmp_path):
        from repro.core.rollup import UNROLLUP_FAULT_SITE
        from repro.core.update import unroll_path_to
        from repro.scan.faults import BuildCrash, FaultPlan
        from repro.store.doctor import doctor

        flat = dir2index(
            self.tree(), tmp_path / "flat", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        rolled = self.rolled_index(tmp_path / "rolled")
        unrolled = self.rolled_index(tmp_path / "unrolled")
        assert unroll_path_to(unrolled, "/p/c1") == ["/p", "/p/c1"]
        rolled_state = self.snapshot(rolled)
        unrolled_state = self.snapshot(unrolled)
        # an un-rolled directory is what it was before it was rolled
        assert unrolled_state == self.snapshot(flat)
        assert unrolled_state["/p"] != rolled_state["/p"]
        expected = self.answers(flat)
        assert expected == self.answers(unrolled) and all(expected[:3])

        boundaries = 0
        for at in range(1, 100):
            index = self.rolled_index(tmp_path / f"kill{at}")
            plan = FaultPlan.crash_at(UNROLLUP_FAULT_SITE, at)
            try:
                unroll_path_to(index, "/p/c1", faults=plan)
            except BuildCrash:
                boundaries += 1
            else:
                assert not plan.fired  # every boundary has been a kill site
                break
            for sp, state in self.snapshot(index).items():
                assert state in (unrolled_state[sp], rolled_state[sp]), (at, sp)
            assert self.answers(index) == expected, at
            # a re-run lands where an unkilled one does
            unroll_path_to(index, "/p/c1")
            assert self.snapshot(index) == unrolled_state, at
            assert self.answers(index) == expected, at
            assert doctor(index).healthy, at
        # entry + primary + the two side databases of the foreign-owned
        # file (per-user, per-group) + publish, for /p and /p/c1
        assert boundaries == 2 * (1 + 1 + 2 + 1)

    def test_changefeed_apply_killed_mid_unroll(self, tmp_path):
        from repro.core.changefeed import changefeed2index
        from repro.core.rollup import UNROLLUP_FAULT_SITE
        from repro.fs.changelog import ChangeJournal
        from repro.scan.faults import BuildCrash, FaultPlan
        from repro.store.doctor import doctor

        opts = BuildOptions(nthreads=NTHREADS)
        tree, journal = self.tree(), ChangeJournal()
        tree.set_changelog(journal)
        index = dir2index(tree, tmp_path / "idx", opts=opts).index
        rollup(index, nthreads=1)
        before = self.answers(index)
        tree.create_file("/p/c1/new", size=3, mode=0o600, uid=1001, gid=1001)
        # after /p's view swap: the old code left rolledup = 1 here
        with pytest.raises(BuildCrash):
            changefeed2index(
                index, tree, journal, opts=opts,
                faults=FaultPlan.crash_at(UNROLLUP_FAULT_SITE, 2),
            )
        assert self.answers(index) == before
        assert changefeed2index(index, tree, journal, opts=opts).unrolled_dirs == [
            "/p", "/p/c1"
        ]
        assert doctor(index).healthy
        fresh = dir2index(tree, tmp_path / "fresh", opts=opts).index
        assert self.answers(index) == self.answers(fresh) != before
