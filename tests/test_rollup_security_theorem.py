"""The rollup security theorem, tested directly.

Rollup moves child data into the parent's database, which is protected
by the *parent's* permissions. The §III-C3 conditions are safe iff:

    for every rolled-up directory D and every merged descendant S,
    any credential that can read D's database could also have read
    S's database through the original hierarchy.

The property tests in test_properties.py verify this end-to-end
through the query engine; here we verify the *conditions themselves*,
exhaustively and structurally:

* an exhaustive scan over permission-bit combinations confirms the
  four conditions never admit a visibility-widening pair;
* generated indexes are audited after rollup: for each rolled dir, we
  enumerate merged descendants from the copied summary rows and check
  the reader-set inclusion directly, without the engine in the loop.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine, QueryPermissionError, QuerySpec
from repro.core.rollup import rollup, rollup_compatible
from repro.core.server import GUFIServer, IdentityProvider
from repro.core.tools import GUFITools
from repro.fs.errors import PermissionDenied
from repro.fs.permissions import Credentials, can_read_dir, can_search_dir
from repro.fs.tree import VFSTree
from repro.gen.datasets import dataset2, table1_namespace
from repro.serve import ASGIClient, GUFIApp
from repro.store import connect
from tests.conftest import ALICE, NTHREADS

# a reader population covering owner / group / other / multi-group
UIDS = (10, 11)
GIDS = (20, 21)
READERS = [
    Credentials(uid=10, gid=20),
    Credentials(uid=10, gid=21),
    Credentials(uid=11, gid=20),
    Credentials(uid=11, gid=21),
    Credentials(uid=12, gid=22),  # stranger
    Credentials(uid=12, gid=22, groups=frozenset({20, 21})),
]


def readers_of(mode: int, uid: int, gid: int) -> frozenset[int]:
    """Indices of READERS that can read+search a dir with these bits
    (i.e. could process its database)."""
    return frozenset(
        i
        for i, c in enumerate(READERS)
        if can_read_dir(mode, uid, gid, c) and can_search_dir(mode, uid, gid, c)
    )


MODES = [
    0o000, 0o400, 0o500, 0o600, 0o700, 0o750, 0o755, 0o711, 0o770,
    0o775, 0o777, 0o550, 0o555, 0o440, 0o444, 0o705, 0o650, 0o2770,
]


class TestConditionsNeverWiden:
    def test_exhaustive_pairs(self):
        """Every (parent, child) permission pair the conditions accept
        satisfies: readers(parent) ⊆ readers(child). (Merging child
        data under the parent's protection can only be safe if nobody
        gains access they lacked on the child.)"""
        widened = []
        for p_mode, c_mode in itertools.product(MODES, MODES):
            for p_uid, c_uid in itertools.product(UIDS, UIDS):
                for p_gid, c_gid in itertools.product(GIDS, GIDS):
                    if not rollup_compatible(
                        p_mode, p_uid, p_gid, c_mode, c_uid, c_gid
                    ):
                        continue
                    rp = readers_of(p_mode, p_uid, p_gid)
                    rc = readers_of(c_mode, c_uid, c_gid)
                    if not rp <= rc:
                        widened.append(
                            (oct(p_mode), p_uid, p_gid,
                             oct(c_mode), c_uid, c_gid, rp - rc)
                        )
        assert not widened, f"visibility-widening pairs admitted: {widened[:5]}"

    def test_conditions_not_vacuous(self):
        """Sanity: the conditions do accept a meaningful fraction of
        same-owner pairs (they are not 'never roll')."""
        accepted = sum(
            1
            for p_mode, c_mode in itertools.product(MODES, MODES)
            if rollup_compatible(p_mode, 10, 20, c_mode, 10, 20)
        )
        assert accepted > len(MODES)  # diagonal at minimum


def audit_rolled_index(index, tree) -> list[str]:
    """Structural audit: for every rolled directory, every merged
    descendant's original permissions must admit every reader of the
    rolled database."""
    violations = []
    for d in index.iter_index_dirs():
        sp = index.source_path(d)
        meta = index.dir_meta(sp)
        if not meta.rolledup:
            continue
        parent_readers = readers_of(meta.mode, meta.uid, meta.gid)
        conn = connect.open_ro(d / "db.db")
        try:
            rows = conn.execute(
                "SELECT name, mode, uid, gid FROM summary "
                "WHERE isroot = 0 AND rectype = 0"
            ).fetchall()
        finally:
            conn.close()
        for name, mode, uid, gid in rows:
            child_readers = readers_of(mode, uid, gid)
            if not parent_readers <= child_readers:
                violations.append(f"{sp} absorbed {name}")
    return violations


class TestRolledIndexesAudit:
    @pytest.mark.parametrize("maker", [
        lambda: dataset2(scale=0.0001, seed=1).tree,
        lambda: dataset2(scale=0.0001, seed=2).tree,
        lambda: table1_namespace("/proj", scale=3e-5).tree,
        lambda: table1_namespace("/users", scale=3e-5).tree,
    ])
    def test_no_rolled_dir_widens_visibility(self, maker, tmp_path):
        tree = maker()
        idx = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        rollup(idx, nthreads=NTHREADS)
        assert audit_rolled_index(idx, tree) == []

    def test_audit_detects_a_planted_violation(self, tmp_path):
        """The audit itself must be able to fail: plant a widening
        merge by hand and confirm it is flagged."""
        t = VFSTree()
        t.mkdir("/p", mode=0o755, uid=10, gid=20)  # world-readable parent
        t.mkdir("/p/c", mode=0o700, uid=10, gid=20)  # private child
        t.create_file("/p/c/secret", mode=0o600, uid=10, gid=20)
        idx = dir2index(
            t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        # conditions correctly refuse this pair...
        assert not rollup_compatible(0o755, 10, 20, 0o700, 10, 20)
        # ...so force the merge, bypassing them
        from repro.core.rollup import rollup_dir

        rollup_dir(idx, "/p", ["c"])
        assert audit_rolled_index(idx, t) == ["/p absorbed c"]


class TestRootSearchBit:
    """The theorem's path-walk half starts at ``/``: a tree whose root
    denies search hides everything below it from the denied user, at
    every entry point, exactly as the source tree does."""

    SPEC = QuerySpec(E="SELECT rpath(dname, d_isroot, name) FROM vrpentries")

    @pytest.fixture
    def locked(self, tmp_path):
        t = VFSTree(root_mode=0o700)  # root:root, nobody else passes
        t.mkdir("/home", mode=0o755, uid=0, gid=0)
        t.mkdir("/home/alice", mode=0o700, uid=1001, gid=1001)
        t.create_file("/home/alice/a.txt", size=1, uid=1001, gid=1001)
        t.create_file("/home/alice/b.txt", size=2, uid=1001, gid=1001)
        t.create_file("/home/readme", size=3, uid=0, gid=0)
        idx = dir2index(
            t, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        return t, idx

    @pytest.mark.parametrize("start", ["/home", "/home/alice"])
    def test_every_entry_point_refuses(self, locked, start):
        tree, idx = locked
        # POSIX on the source tree: the walk stops at ``/``
        with pytest.raises(PermissionDenied) as posix:
            tree.readdir(start, ALICE)
        assert posix.value.path == "/"
        for processes in (1, 2):
            with QueryEngine(
                idx, creds=ALICE, nthreads=NTHREADS, processes=processes
            ) as q:
                with pytest.raises(QueryPermissionError):
                    q.run(self.SPEC, start)
        with QueryEngine(idx, creds=ALICE, nthreads=NTHREADS) as q:
            with pytest.raises(QueryPermissionError):
                q.run_single(self.SPEC, start)
        with GUFITools(idx, creds=ALICE, nthreads=NTHREADS) as tools:
            with pytest.raises(QueryPermissionError):
                tools.ls(start)

    def test_served_find_is_403(self, locked):
        _tree, idx = locked
        idp = IdentityProvider()
        idp.add_user("alice", uid=1001, gid=1001)
        idp.add_user("root", uid=0, gid=0)
        with GUFIServer(idx, idp, nthreads=NTHREADS) as srv, GUFIApp(srv) as app:
            client = ASGIClient(app)
            denied = asyncio.run(client.invoke("alice", "find", "/home/alice"))
            assert denied.status == 403
            assert denied.json()["error"]["code"] == "permission_denied"
            allowed = asyncio.run(client.invoke("root", "find", "/home/alice"))
            assert allowed.status == 200

    def test_root_and_the_start_itself_are_unaffected(self, locked):
        """Only *proper* ancestors are path-walked: root passes
        everywhere, and a start of ``/`` has no ancestor to ask (the
        walk itself counts the denied directory)."""
        _tree, idx = locked
        with QueryEngine(idx, nthreads=NTHREADS) as q:
            assert len(q.run(self.SPEC, "/home/alice").rows) == 2
        with QueryEngine(idx, creds=ALICE, nthreads=NTHREADS) as q:
            r = q.run(self.SPEC, "/")
            assert (r.rows, r.dirs_denied) == ([], 1)
