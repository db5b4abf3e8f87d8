"""Tests for the deployment access layer (restricted server, identity,
the portal's reports as invocations) and index composition (graft /
prune, checked by the index doctor)."""

from __future__ import annotations

import threading

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.compose import (
    CompositionError,
    graft,
    prune,
)
from repro.core.engine import QueryEngine, ResultCache
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup
from repro.core.server import (
    AuthenticationError,
    GUFIServer,
    IdentityProvider,
    ToolNotAllowed,
)
from repro.core.tools import FindFilters, GUFITools
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.fs.tree import VFSTree
from repro.gen.datasets import linux_kernel_tree
from repro.store.doctor import doctor
from tests.conftest import (
    NTHREADS,
    build_demo_tree,
    fresh_tsummary_rows,
    tsummary_rows,
)


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

    def test_credentials_follow_the_record(self, identity):
        """Resolved on every call: the same Credentials while the
        record is unchanged, new ones the moment it changes."""
        first = identity.authenticate("carol")
        assert identity.authenticate("carol") is first
        identity.set_groups("carol", frozenset({100, 200}))
        regrouped = identity.authenticate("carol")
        assert regrouped.in_group(200) and not first.in_group(200)
        identity._users["carol"]["uid"] = 1033
        assert identity.authenticate("carol").uid == 1033
        identity.disable("carol")
        with pytest.raises(AuthenticationError):
            identity.authenticate("carol")


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

    def test_one_tools_handle_per_identity(self, server, identity):
        """A handle per resolved identity, kept across calls; a group
        change resolves to another handle, so it runs as the new
        identity on the very next call."""
        alice = server._tools_for("alice")
        assert server._tools_for("alice") is alice
        assert server._tools_for("bob") is not alice
        identity.set_groups("alice", frozenset({100}))
        regrouped = server._tools_for("alice")
        assert regrouped is not alice
        assert regrouped.engine.creds.in_group(100)
        assert not alice.engine.creds.in_group(100)

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

    def test_portal_reports_are_invocations(self, server):
        """The web portal's pre-generated queries (§III-A5) are plain
        invocations, re-authenticated on each call."""
        top = server.invoke("alice", "largest_files", limit=3)
        sizes = [s for _, s in top]
        assert sizes == sorted(sizes, reverse=True) and len(top) == 3
        # only alice-visible paths appear
        assert not any("secret" in p for p, _ in top)
        assert server.invoke("bob", "recently_modified", limit=5)
        assert server.invoke("alice", "space_by_user")[1001] == 100 + 250 + 700
        stale = server.invoke(
            "alice", "find",
            filters=FindFilters(uid=1001, mtime_before=10**9, ftype="f"),
        )
        assert stale.rows and all(row[1] == "f" for row in stale.rows)


class _Recording(dict):
    """A name map that keeps a copy of itself after each write: every
    state a reader running meanwhile could see."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.states: list[dict[int, str]] = []

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.states.append(dict(self))

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self.states.append(dict(self))


class _NoScan(dict):
    """A user table that refuses to be walked."""

    def _scan(self, *args):
        raise AssertionError("the user table was scanned")

    __iter__ = keys = values = items = _scan


class TestWarmNameMapRefresh:
    """The server's pooled contexts alias the directory's own name map,
    which its writers keep current in place: an invocation does no map
    work, and a uid named before and after a write is never absent."""

    def test_refresh_never_empties_the_live_map(self, demo_index, identity):
        identity.names = _Recording(identity.names)
        with GUFIServer(demo_index, identity, nthreads=NTHREADS) as server:
            live = server.pool.users
            assert live is identity.names and live[1001] == "alice"
            # a rename: the new name lands before the old one goes
            identity.add_user("robert", uid=1002, gid=1002)
            identity.remove_user("bob")
            assert live.states and all(
                state[1002] in ("bob", "robert") and state[1001] == "alice"
                for state in live.states
            )
            # removals and a moved uid land too, in place
            identity.remove_user("carol")
            identity.add_user("alice", uid=1005, gid=1001)
            assert server.pool.users is live
            assert live == {0: "root", 1002: "robert", 1005: "alice"}
            with pytest.raises(AuthenticationError):
                identity.remove_user("bob")

    def test_a_shared_uid_keeps_a_name(self, identity):
        identity.add_user("bobby", uid=1002, gid=1002)
        identity.remove_user("bobby")
        assert identity.names[1002] == "bob"
        identity.remove_user("bob")
        assert 1002 not in identity.names
        assert identity.uid_map() == identity.names
        assert identity.uid_map() is not identity.names

    def test_invoke_does_no_map_work(self, demo_index, identity, monkeypatch):
        """Nothing on the request path is O(users): neither the map
        copy nor a walk of the user table."""
        calls = []
        real = IdentityProvider.uid_map
        monkeypatch.setattr(
            IdentityProvider, "uid_map",
            lambda self: calls.append(self) or real(self),
        )
        with GUFIServer(demo_index, identity, nthreads=NTHREADS) as server:
            identity._users = _NoScan(identity._users)
            for user in ("root", "alice", "bob", "root"):
                server.invoke(user, "du")
            spec = QuerySpec(E="SELECT uidtouser(uid) FROM pentries")
            names = {n for (n,) in server.invoke("root", "query", spec=spec).rows}
        assert calls == [] and "alice" in names

    def test_a_cached_server_never_replays_names_from_before_a_rename(
        self, demo_index, identity
    ):
        """``uidtouser()`` answers from the directory's name map as it
        is now, so a result cache holds no rows of it: after bob is
        renamed robert the next call reads the new name, and no capture
        — one straddling the rename included — is ever stored."""
        spec = QuerySpec(E="SELECT uidtouser(uid) FROM pentries")
        with GUFIServer(
            demo_index, identity, nthreads=NTHREADS, result_cache_mb=8
        ) as server:
            first = server.invoke("root", "query", spec=spec)
            assert ("bob",) in first.rows
            identity.add_user("robert", uid=1002, gid=1002)
            identity.remove_user("bob")
            again = server.invoke("root", "query", spec=spec)
            assert len(server.result_cache) == 0
        assert not again.cached
        assert ("robert",) in again.rows and ("bob",) not in again.rows
        with GUFIServer(demo_index, identity, nthreads=NTHREADS) as plain:
            want = plain.invoke("root", "query", spec=spec)
        assert sorted(again.rows) == sorted(want.rows)

    def test_concurrent_request_always_reads_names(self, demo_index, identity):
        spec = QuerySpec(E="SELECT uidtouser(uid) FROM pentries")
        with GUFIServer(demo_index, identity, nthreads=NTHREADS) as server:
            expected = sorted(server.invoke("root", "query", spec=spec).rows)
            assert ("bob",) in expected
            assert not any(name.isdigit() for (name,) in expected)
            # a request on the server's pool while bob is renamed back
            # and forth through the directory's writers
            reader = GUFITools(demo_index, nthreads=NTHREADS, pool=server.pool)
            stop = threading.Event()
            renames = []

            def renamer():
                while not stop.is_set():
                    identity.add_user("robert", uid=1002, gid=1002)
                    identity.remove_user("bob")
                    identity.add_user("bob", uid=1002, gid=1002)
                    identity.remove_user("robert")
                    renames.append(1)

            thread = threading.Thread(target=renamer)
            thread.start()
            try:
                for _ in range(30):
                    rows = reader.engine.run(spec).rows
                    assert sorted(
                        ("bob",) if row == ("robert",) else row for row in rows
                    ) == expected
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive() and renames


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

    @staticmethod
    def journal_fed_cache() -> ResultCache:
        """A cache told a changefeed is the sole writer of the index: a
        hit makes no stat, so only a writer that announces itself takes
        an entry out of service."""
        cache = ResultCache()
        cache.attach_journal(ChangeJournal(), exclusive=True)
        return cache

    def test_prune_announces_itself_and_refreshes_tree_summaries(
        self, tmp_path
    ):
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        build_tsummary(main, "/")
        cache = self.journal_fed_cache()
        with GUFITools(main, nthreads=NTHREADS, result_cache=cache) as tools:
            before = tools.find("/")
            assert tools.find("/").cached
            prune(main, "/proj")
            after = tools.find("/")
            assert not after.cached
            assert len(after.rows) < len(before.rows)
            assert not any(r[0].startswith("/proj") for r in after.rows)
            assert tools.du("/", use_tsummary=True) == tools.du("/")
        assert tsummary_rows(main.root) == fresh_tsummary_rows(main.root)

    def test_graft_at_another_depth_shifts_depths_and_announces(
        self, tmp_path
    ):
        main = dir2index(
            build_demo_tree(), tmp_path / "main",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        other = dir2index(
            build_demo_tree(), tmp_path / "other",
            opts=BuildOptions(nthreads=NTHREADS),
        ).index
        build_tsummary(other, "/proj")
        cache = self.journal_fed_cache()
        with GUFITools(main, nthreads=NTHREADS, result_cache=cache) as tools:
            tools.find("/")
            assert tools.find("/").cached
            graft(main, other, src_subtree="/proj", at="/x/y/proj")
            after = tools.find("/")
            assert not after.cached
            assert "/x/y/proj/shared/p.c" in {r[0] for r in after.rows}
            # /proj sat at depth 1 and now sits at depth 3: its
            # subtree's absolute depths (summary.depth, the tree
            # summary's maxdepth) moved with it
            deep = FindFilters(ftype="f", min_level=3)
            for planned in (True, False):
                rows = tools.find("/x", deep, planned=planned).rows
                assert {r[0] for r in rows} == {
                    "/x/y/proj/shared/p.c",
                    "/x/y/proj/shared/data/d.h5",
                }
        conn = main.store("/x/y/proj").open_ro()
        try:
            assert conn.execute(
                "SELECT depth FROM summary WHERE isroot = 1"
            ).fetchone() == (3,)
            assert conn.execute(
                "SELECT maxdepth FROM tsummary WHERE rectype = 0"
            ).fetchone() == (5,)
        finally:
            conn.close()

    def test_prune_root_refused(self, demo_index):
        with pytest.raises(CompositionError):
            prune(demo_index, "/")

    def test_prune_missing_refused(self, demo_index):
        with pytest.raises(CompositionError):
            prune(demo_index, "/nothing/here")


class TestValidate:
    """The structural health check of a composed index is the doctor."""

    def test_clean_index_validates(self, demo_index):
        report = doctor(demo_index)
        assert report.healthy
        assert report.dirs_seen == demo_index.count_dbs()

    def test_validates_after_rollup(self, demo_index):
        rollup(demo_index, nthreads=NTHREADS)
        assert doctor(demo_index).healthy

    def test_detects_missing_db(self, demo_index):
        (demo_index.index_dir("/home/bob") / "db.db").unlink()
        report = doctor(demo_index)
        assert not report.healthy
        assert report.missing_primary == ["/home/bob"]

    def test_detects_inconsistent_rollup_flag(self, demo_index):
        from repro.store import connect

        conn = connect.open_rw(demo_index.db_path("/home/alice"))
        conn.execute("UPDATE summary SET rolledup = 1 WHERE isroot = 1")
        conn.close()
        report = doctor(demo_index)
        assert any("pentries is a view" in w for _, w in report.view_mismatches)

    def test_detects_missing_side_db(self, tmp_path):
        t = VFSTree()
        t.mkdir("/d", mode=0o750, uid=1001, gid=1001)
        t.create_file("/d/f", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/d/f", "user.x", b"1")
        idx = dir2index(t, tmp_path / "i",
                        opts=BuildOptions(nthreads=NTHREADS)).index
        (idx.index_dir("/d") / "xattrs.db.u1002").unlink()
        report = doctor(idx)
        assert ("/d", "xattrs.db.u1002") in report.missing_shards


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
        with pytest.raises(TypeError, match="needle"):
            xattr_server.invoke("root", "xattr_search", "needle")
