"""Tests for the deployment access layer (restricted server, identity,
portal) and index composition (graft / prune / validate)."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.compose import (
    CompositionError,
    graft,
    prune,
    validate,
)
from repro.core.index import GUFIIndex
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup
from repro.core.server import (
    AuthenticationError,
    GUFIServer,
    IdentityProvider,
    QueryPortal,
    ToolNotAllowed,
)
from repro.fs.tree import VFSTree
from repro.gen.datasets import linux_kernel_tree
from tests.conftest import NTHREADS, build_demo_tree


@pytest.fixture
def identity():
    idp = IdentityProvider()
    idp.add_user("alice", uid=1001, gid=1001)
    idp.add_user("bob", uid=1002, gid=1002)
    idp.add_user("carol", uid=1003, gid=1003, groups=frozenset({100}))
    idp.add_user("root", uid=0, gid=0)
    return idp


@pytest.fixture
def server(demo_index, identity):
    return GUFIServer(demo_index, identity, nthreads=NTHREADS)


class TestIdentityProvider:
    def test_authenticate(self, identity):
        creds = identity.authenticate("carol")
        assert creds.uid == 1003 and creds.in_group(100)

    def test_unknown_user(self, identity):
        with pytest.raises(AuthenticationError):
            identity.authenticate("mallory")

    def test_disable_enable(self, identity):
        identity.disable("bob")
        with pytest.raises(AuthenticationError):
            identity.authenticate("bob")
        identity.enable("bob")
        assert identity.authenticate("bob").uid == 1002

    def test_uid_map(self, identity):
        assert identity.uid_map()[1001] == "alice"


class TestGUFIServer:
    def test_whitelist(self, server):
        with pytest.raises(ToolNotAllowed):
            server.invoke("alice", "rm -rf")
        with pytest.raises(ToolNotAllowed):
            server.invoke("alice", "rollup")  # admin op, not remote-safe

    def test_invocation_runs_as_caller(self, server):
        r_alice = server.invoke(
            "alice", "query", spec=Q1_LIST_PATHS
        )
        r_bob = server.invoke("bob", "query", spec=Q1_LIST_PATHS)
        alice_paths = {r[0] for r in r_alice.rows}
        bob_paths = {r[0] for r in r_bob.rows}
        assert "/home/alice/a.txt" in alice_paths
        assert "/home/alice/a.txt" not in bob_paths

    def test_revocation_is_immediate(self, server, identity):
        server.invoke("bob", "du")
        identity.disable("bob")
        with pytest.raises(AuthenticationError):
            server.invoke("bob", "du")

    def test_group_change_is_immediate(self, server, identity):
        n_before = len(
            server.invoke("bob", "query", spec=Q1_LIST_PATHS).rows
        )
        identity.set_groups("bob", frozenset({100}))  # joins the project
        n_after = len(
            server.invoke("bob", "query", spec=Q1_LIST_PATHS).rows
        )
        assert n_after > n_before  # /proj/shared now visible

    def test_audit_log(self, server):
        server.invoke("alice", "du")
        with pytest.raises(ToolNotAllowed):
            server.invoke("alice", "chmod")
        assert len(server.audit_log) == 2
        assert server.audit_log[0].ok and not server.audit_log[1].ok
        assert server.audit_log[1].tool == "chmod"

    def test_tools_passthrough(self, server):
        assert server.invoke("root", "du") > 0
        top = server.invoke("root", "largest_files", limit=2)
        assert len(top) == 2


@dataclass
class _SnoopingIdentity(IdentityProvider):
    """Records what a request already running on ``live`` (a warm
    session's name map) would read at the moment the server asks the
    directory for names — optionally after a directory-service delay."""

    live: dict[int, str] | None = None
    delay: float = 0.0
    seen: list[dict[int, str]] = field(default_factory=list)

    def uid_map(self):
        if self.live is not None:
            self.seen.append(dict(self.live))
            time.sleep(self.delay)
        return super().uid_map()


@pytest.fixture
def snooping(identity):
    return _SnoopingIdentity(identity._users)


class TestWarmNameMapRefresh:
    """The warm path refreshes a dict every pooled context of the
    session aliases; a uid named before and after is never absent."""

    def test_refresh_never_empties_the_live_map(self, demo_index, snooping):
        with GUFIServer(demo_index, snooping, nthreads=NTHREADS) as server:
            server.invoke("root", "du")  # cold: creates the session
            (tools,) = server._sessions.values()
            snooping.live = tools.engine.users
            before = dict(snooping.live)
            server.invoke("root", "du")
            assert snooping.seen == [before] and before[1001] == "alice"
            # renames and removals still land, in place
            snooping.add_user("robert", uid=1002, gid=1002)
            del snooping._users["bob"], snooping._users["carol"]
            server.invoke("root", "du")
            assert tools.engine.users is snooping.live
            assert snooping.live == {0: "root", 1001: "alice", 1002: "robert"}

    def test_concurrent_request_always_reads_names(self, demo_index, snooping):
        spec = QuerySpec(E="SELECT uidtouser(uid) FROM pentries")
        with GUFIServer(demo_index, snooping, nthreads=NTHREADS) as server:
            expected = sorted(server.invoke("root", "query", spec=spec).rows)
            assert not any(name.isdigit() for (name,) in expected)
            (tools,) = server._sessions.values()
            snooping.live, snooping.delay = tools.engine.users, 0.001
            stop = threading.Event()

            def refresher():
                while not stop.is_set():
                    server.invoke("root", "du")

            thread = threading.Thread(target=refresher)
            thread.start()
            try:
                # the engine, not invoke: the reader must not queue
                # behind the refresher on the session lock
                for _ in range(30):
                    assert sorted(tools.engine.run(spec).rows) == expected
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive() and len(snooping.seen) > 1


class TestQueryPortal:
    def test_pregenerated_queries(self, server):
        portal = QueryPortal(server)
        top = portal.my_largest_files("alice", limit=3)
        sizes = [s for _, s in top]
        assert sizes == sorted(sizes, reverse=True) and len(top) == 3
        # only alice-visible paths appear
        assert not any("secret" in p for p, _ in top)
        recent = portal.my_recent_files("bob", limit=5)
        assert recent
        assert portal.my_space_usage("alice") == 100 + 250 + 700
        stale = portal.my_stale_data("alice", older_than=10**9)
        assert all(row[1] == "f" for row in stale.rows)


class TestGraftPrune:
    def test_graft_new_filesystem(self, tmp_path):
        """Index a second file system and graft it under the unified
        search root."""
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        kernel_ns = linux_kernel_tree(scale=0.01)
        kernel = dir2index(
            kernel_ns.tree, tmp_path / "kernel",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        graft(main, kernel, src_subtree="/linux", at="/fs-kernel/linux")
        q = QueryEngine(main, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS, start="/fs-kernel").rows]
        assert rows and all(r.startswith("/fs-kernel/linux") for r in rows)
        # old content still present
        all_rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert "/home/bob/b.txt" in all_rows

    def test_graft_refuses_overwrite(self, tmp_path):
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        other = dir2index(
            build_demo_tree(), tmp_path / "other",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        with pytest.raises(CompositionError):
            graft(main, other, src_subtree="/home", at="/home")
        graft(main, other, src_subtree="/home", at="/home", overwrite=True)

    def test_graft_unrolls_destination_path(self, tmp_path):
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        rollup(main, nthreads=NTHREADS)
        other = dir2index(
            build_demo_tree(), tmp_path / "other",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        q = QueryEngine(main, nthreads=NTHREADS)
        before = len(q.run(Q1_LIST_PATHS).rows)
        unrolled = graft(
            main, other, src_subtree="/home/alice", at="/home/imported"
        )
        # /home was (potentially) rolled; the graft path must be clean
        assert not main.dir_meta("/home").rolledup
        after = q.run(Q1_LIST_PATHS).rows
        assert len(after) == before + 2  # alice's two files, re-rooted
        assert any(r[0] == "/home/imported/a.txt" for r in after)
        assert isinstance(unrolled, list)

    def test_prune(self, tmp_path):
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        rollup(main, nthreads=NTHREADS)
        prune(main, "/proj")
        q = QueryEngine(main, nthreads=NTHREADS)
        rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert not any(r.startswith("/proj") for r in rows)
        assert "/home/bob/b.txt" in rows

    def test_prune_root_refused(self, demo_index):
        with pytest.raises(CompositionError):
            prune(demo_index, "/")

    def test_prune_missing_refused(self, demo_index):
        with pytest.raises(CompositionError):
            prune(demo_index, "/nothing/here")


class TestValidate:
    def test_clean_index_validates(self, demo_index):
        report = validate(demo_index)
        assert report.ok
        assert report.dirs_checked == demo_index.count_dbs()

    def test_validates_after_rollup(self, demo_index):
        rollup(demo_index, nthreads=NTHREADS)
        assert validate(demo_index).ok

    def test_detects_missing_db(self, demo_index):
        (demo_index.index_dir("/home/bob") / "db.db").unlink()
        report = validate(demo_index)
        assert not report.ok
        assert any("missing db.db" in p for p in report.problems)

    def test_detects_inconsistent_rollup_flag(self, demo_index):
        from repro.store import connect

        conn = connect.open_rw(demo_index.db_path("/home/alice"))
        conn.execute("UPDATE summary SET rolledup = 1 WHERE isroot = 1")
        conn.close()
        report = validate(demo_index)
        assert any("pentries is a view" in p for p in report.problems)

    def test_detects_missing_side_db(self, tmp_path):
        t = VFSTree()
        t.mkdir("/d", mode=0o750, uid=1001, gid=1001)
        t.create_file("/d/f", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/d/f", "user.x", b"1")
        idx = dir2index(t, tmp_path / "i",
                        opts=BuildOptions(nthreads=NTHREADS)).index
        (idx.index_dir("/d") / "xattrs.db.u1002").unlink()
        report = validate(idx)
        assert any("xattrs.db.u1002 missing" in p for p in report.problems)


class TestServerClose:
    def test_close_unbinds_result_cache_listeners(self, demo_index, identity):
        """Regression: ``GUFIServer.close()`` used to dispose sessions
        but leak the shared result cache's DirMeta-cache listener
        subscriptions — every closed server left a dangling hook on
        the index."""
        srv = GUFIServer(
            demo_index, identity, nthreads=NTHREADS, result_cache_mb=4.0
        )
        srv.invoke("alice", "query", spec=Q1_LIST_PATHS)  # binds the cache
        assert demo_index.cache._listeners, "cache never bound"
        assert srv.result_cache is not None
        srv.close()
        assert demo_index.cache._listeners == []
        assert srv.result_cache._bound == []

    def test_close_is_idempotent(self, demo_index, identity):
        srv = GUFIServer(
            demo_index, identity, nthreads=NTHREADS, result_cache_mb=4.0
        )
        srv.invoke("alice", "du")
        srv.close()
        srv.close()
        assert demo_index.cache._listeners == []


class TestXattrSearchConvention:
    @pytest.fixture
    def xattr_server(self, xattr_namespace):
        _, _, _, index = xattr_namespace
        idp = IdentityProvider()
        idp.add_user("root", uid=0, gid=0)
        with GUFIServer(index, idp, nthreads=NTHREADS) as srv:
            yield srv

    def test_keyword_form(self, xattr_server, xattr_namespace):
        """``needle=`` is the supported form: the positional slot is
        the query root, like every other tool."""
        _, _, needle, _ = xattr_namespace
        result = xattr_server.invoke(
            "root", "xattr_search", "/", needle="needle"
        )
        assert any(needle == r[0] for r in result.rows)

    def test_positional_form_rejected(self, xattr_server):
        """The historical convention smuggled the needle through the
        ``start`` slot; it is gone — the slot is only ever the root."""
        with pytest.raises(TypeError, match="needle="):
            xattr_server.invoke("root", "xattr_search", "needle")
