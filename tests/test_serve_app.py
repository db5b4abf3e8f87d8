"""The serving layer end-to-end: auth, QoS, deadlines, cursors.

Every test drives the *full* ASGI request path in-process
(:class:`~repro.serve.client.ASGIClient`) — auth header, QoS rings,
worker-thread executor, JSON response — against a real index of the
demo tree, so the serving layer is tested as deployed, minus only the
TCP socket.

The cancellation tests also cover the engine half directly: the
cooperative :class:`~repro.core.engine.CancelToken` must be observed
*inside* the traversal loop (a late query stops mid-walk, it does not
finish the tree and apologise), and an aborted walk must return its
thread states to the session pool instead of leaking connections.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import time

import pytest

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import (
    CancelToken,
    MemorySink,
    QueryCancelled,
    QueryEngine,
    QuerySpec,
)
from repro.core.server import ALLOWED_TOOLS, GUFIServer, IdentityProvider
from repro.core.tools import FindFilters, GUFITools
from repro.fs.changelog import ChangeJournal
from repro.fs.permissions import ROOT
from repro.serve import ASGIClient, GUFIApp, jsonable
from tests.conftest import NTHREADS, build_demo_tree

E_ALL = "SELECT rpath(dname, d_isroot, name), size FROM vrpentries"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def identity():
    idp = IdentityProvider()
    idp.add_user("alice", uid=1001, gid=1001)
    idp.add_user("bob", uid=1002, gid=1002)
    idp.add_user("carol", uid=1003, gid=1003, groups=frozenset({100}))
    idp.add_user("root", uid=0, gid=0)
    idp.add_user("mallory", uid=1999, gid=1999, enabled=False)
    return idp


@pytest.fixture
def server(demo_index, identity):
    with GUFIServer(
        demo_index, identity, nthreads=NTHREADS, result_cache_mb=8.0
    ) as srv:
        yield srv


@pytest.fixture
def app(server):
    with GUFIApp(server, max_inflight=2, queue_limit=4) as a:
        yield a


@pytest.fixture
def client(app):
    return ASGIClient(app)


class TestRoutesAndAuth:
    def test_healthz(self, client):
        resp = run(client.request("GET", "/healthz"))
        assert resp.status == 200 and resp.json() == {"ok": True}

    def test_unknown_route_404(self, client):
        resp = run(client.request("GET", "/nope"))
        assert resp.status == 404
        assert resp.json()["error"]["code"] == "not_found"

    def test_missing_user_header(self, client):
        resp = run(client.invoke("", "du"))
        assert resp.status == 401
        assert resp.json()["error"]["code"] == "auth_required"

    def test_unknown_and_disabled_users(self, client):
        for user in ("nobody", "mallory"):
            resp = run(client.invoke(user, "du"))
            assert resp.status == 401
            assert resp.json()["error"]["code"] == "auth_failed"

    def test_off_whitelist_tool(self, client):
        resp = run(client.invoke("alice", "chmod"))
        assert resp.status == 403
        assert resp.json()["error"]["code"] == "permission_denied"

    def test_bad_json_body(self, client):
        resp = run(
            client.request(
                "POST", "/v1/invoke", user="alice",
                headers={"content-type": "application/json"},
            )
        )
        # empty body parses to {} and fails on the missing tool
        assert resp.status == 400


class TestInvoke:
    def test_scalar_tool(self, client, server):
        resp = run(client.invoke("alice", "du", "/"))
        assert resp.status == 200
        body = resp.json()
        assert body["ok"] and body["result"] == server.invoke(
            "alice", "du", "/"
        )

    def test_query_rows_match_direct_invoke(self, client, server):
        resp = run(
            client.invoke(
                "root", "query", args={"spec": {"E": E_ALL}}
            )
        )
        assert resp.status == 200
        body = resp.json()
        direct = server.invoke(
            "root", "query", spec=QuerySpec(E=E_ALL)
        )
        assert [tuple(r) for r in body["rows"]] == direct.rows
        assert body["meta"]["total_rows"] == len(direct.rows)

    def test_permission_scoping_over_http(self, client):
        alice = run(
            client.invoke("alice", "query", args={"spec": {"E": E_ALL}})
        ).json()
        bob = run(
            client.invoke("bob", "query", args={"spec": {"E": E_ALL}})
        ).json()
        alice_paths = {r[0] for r in alice["rows"]}
        bob_paths = {r[0] for r in bob["rows"]}
        assert "/home/alice/a.txt" in alice_paths
        assert "/home/alice/a.txt" not in bob_paths
        assert "/home/bob/secret/s.key" not in alice_paths

    def test_find_with_filters(self, client, server):
        resp = run(
            client.invoke(
                "root", "find",
                args={"filters": {"ftype": "f", "min_size": 200}},
            )
        )
        assert resp.status == 200
        rows = resp.json()["rows"]
        assert rows  # b.txt (300), deep.dat (250), p.c, d.h5
        direct = server.invoke("root", "find", "/")
        assert len(rows) < len(direct.rows)

    def test_wire_spec_cannot_set_output_prefix(self, client):
        resp = run(
            client.invoke(
                "root", "query",
                args={"spec": {"E": E_ALL, "output_prefix": "/tmp/x"}},
            )
        )
        assert resp.status == 400

    def test_wire_args_cannot_smuggle_sink(self, client):
        resp = run(client.invoke("root", "du", args={"sink": "x"}))
        assert resp.status == 400

    def test_xattr_search_without_needle_is_a_bad_request(self, client):
        resp = run(client.invoke("root", "xattr_search", "needle"))
        assert resp.status == 400
        assert "needle" in resp.json()["error"]["message"]

    def test_bad_sql_is_a_bad_query(self, client):
        """A caller's SQL failing — in ``I`` before the walk, or in a
        stage inside it — is the caller's error, with SQLite's word."""
        for spec, message in (
            ({"I": "CREATE TABLE (", "E": E_ALL}, "syntax error"),
            ({"E": "SELECT nonsense FROM nowhere"}, "no such table: nowhere"),
        ):
            resp = run(client.invoke("root", "query", args={"spec": spec}))
            assert resp.status == 400, resp.text
            error = resp.json()["error"]
            assert error["code"] == "bad_query" and message in error["message"]

    def test_every_invoke_is_audited(self, client, server):
        before = len(server.audit_log)
        run(client.invoke("alice", "du", "/"))
        run(client.invoke("alice", "largest_files", "/", args={"limit": 3}))
        assert len(server.audit_log) == before + 2
        assert all(e.ok for e in list(server.audit_log)[-2:])


class TestQoS:
    def test_rate_limit_rejects_with_retry_after(self, server):
        with GUFIApp(
            server, max_inflight=2, queue_limit=4,
            tenant_qps=0.001, tenant_burst=1.0,
        ) as app:
            client = ASGIClient(app)
            with obs.enabled(metrics=True):
                first = run(client.invoke("alice", "du"))
                second = run(client.invoke("alice", "du"))
                # the bucket is per tenant: bob is not affected
                other = run(client.invoke("bob", "du"))
                snap = obs.snapshot()
            assert first.status == 200
            assert second.status == 429
            body = second.json()
            assert body["error"]["code"] == "rate_limited"
            assert body["retry_after"] > 0
            assert other.status == 200
            assert snap.counter(
                "gufi_serve_rejected_total", reason="rate_limit"
            ) == 1.0

    def test_tenant_concurrency_quota(self, server):
        with GUFIApp(
            server, max_inflight=4, queue_limit=8, tenant_concurrency=1
        ) as app:
            client = ASGIClient(app)

            async def flood():
                return await asyncio.gather(
                    *(client.invoke("alice", "du") for _ in range(4))
                )

            with obs.enabled(metrics=True):
                responses = run(flood())
            statuses = sorted(r.status for r in responses)
            assert 200 in statuses and 429 in statuses
            for r in responses:
                if r.status == 429:
                    assert r.json()["error"]["code"] == "quota_exceeded"

    def test_load_shedding_when_queue_full(self, server):
        with GUFIApp(server, max_inflight=1, queue_limit=0) as app:
            client = ASGIClient(app)

            async def flood():
                return await asyncio.gather(
                    *(client.invoke("alice", "du") for _ in range(5))
                )

            with obs.enabled(metrics=True):
                responses = run(flood())
                snap = obs.snapshot()
            shed = [r for r in responses if r.status == 503]
            assert shed, "expected at least one shed response"
            body = shed[0].json()
            assert body["error"]["code"] == "overloaded"
            assert body["retry_after"] > 0
            assert snap.counter(
                "gufi_serve_shed_total", reason="queue_full"
            ) == len(shed)


class TestDeadlines:
    def test_deadline_stops_traversal_mid_walk(
        self, server, monkeypatch
    ):
        """The acceptance case: a slow query with a short deadline is
        cancelled *inside* the walk (a directory-granular stop), comes
        back as a structured 504, and counts a serve timeout."""
        from repro.core.engine.stages import StageRunner

        visited = []
        real = StageRunner.s_e_stages

        def slow(self, st, index_dir, creds, run_s, run_e, rows):
            visited.append(str(index_dir))
            time.sleep(0.03)
            return real(self, st, index_dir, creds, run_s, run_e, rows)

        monkeypatch.setattr(StageRunner, "s_e_stages", slow)
        with GUFIApp(server, max_inflight=2, queue_limit=4) as app:
            client = ASGIClient(app)
            with obs.enabled(metrics=True):
                resp = run(
                    client.invoke(
                        "root", "query",
                        args={"spec": {"E": E_ALL}},
                        deadline_ms=50,
                    )
                )
                snap = obs.snapshot()
        assert resp.status == 504
        body = resp.json()
        assert body["error"]["code"] == "deadline_exceeded"
        # the walk stopped early: the demo index has 12 processable
        # directories at ~30ms each; a 50ms deadline admits only a few
        assert 0 < len(visited) < 12
        assert snap.counter(
            "gufi_serve_timeouts_total", tool="query"
        ) == 1.0

    def test_expired_deadline_never_reaches_the_engine(self, server):
        with GUFIApp(server, max_inflight=2, queue_limit=4) as app:
            client = ASGIClient(app)
            with obs.enabled(metrics=True):
                resp = run(
                    client.invoke(
                        "root", "query",
                        args={"spec": {"E": E_ALL}},
                        deadline_ms=0.0001,
                    )
                )
                snap = obs.snapshot()
        assert resp.status == 504
        assert resp.json()["error"]["code"] == "deadline_exceeded"
        assert snap.counter_total("gufi_serve_timeouts_total") == 1.0


class TestEngineCancellation:
    """The engine half of deadline enforcement, tested without HTTP."""

    def test_pretripped_token_raises_before_dispatch(self, demo_index):
        token = CancelToken()
        token.cancel()
        with QueryEngine(demo_index, ROOT, nthreads=NTHREADS) as eng:
            with pytest.raises(QueryCancelled):
                eng.run(QuerySpec(E=E_ALL), "/", cancel=token)
            with pytest.raises(QueryCancelled):
                eng.run_single(QuerySpec(E=E_ALL), "/", cancel=token)

    def test_cancel_mid_walk_stops_early(self, dataset2_index):
        """Tripping the token after the first emitted batch must abort
        the walk long before the full tree (442 dirs) is traversed."""
        index = dataset2_index.index
        token = CancelToken()
        emits = []

        class TripwireSink(MemorySink):
            def emit(self, path, rows):
                emits.append(len(rows))
                token.cancel()
                super().emit(path, rows)

        with QueryEngine(index, ROOT, nthreads=NTHREADS) as eng:
            baseline = eng.run(QuerySpec(E=E_ALL), "/")
            with pytest.raises(QueryCancelled):
                eng.run(
                    QuerySpec(E=E_ALL), "/",
                    sink=TripwireSink(), cancel=token,
                )
        assert baseline.dirs_visited > 100
        # each worker finishes at most its in-flight directory after
        # the trip, so the emit count stays tiny
        assert 0 < len(emits) <= NTHREADS + 1

    def test_deadline_token_trips_by_clock(self):
        token = CancelToken.after(0.0)
        assert token.cancelled
        later = CancelToken.after(60.0)
        assert not later.cancelled
        assert 0 < later.remaining() <= 60.0

    def test_aborted_walks_release_thread_states(self, demo_index):
        """Routine timeouts on a long-lived server must not leak
        pooled connections: the pool stays at its steady-state size
        across many aborted runs."""
        with QueryEngine(demo_index, ROOT, nthreads=NTHREADS) as eng:
            for _ in range(6):
                token = CancelToken()
                token.cancel()

                class Trip(MemorySink):
                    pass

                with pytest.raises(QueryCancelled):
                    eng.run(QuerySpec(E=E_ALL), "/", cancel=token)
            # tokens tripped pre-dispatch never check out states; now
            # trip mid-walk a few times
            for _ in range(6):
                token = CancelToken()
                sink = MemorySink()
                orig_emit = sink.emit

                def emit(path, rows, _t=token, _o=orig_emit):
                    _t.cancel()
                    _o(path, rows)

                sink.emit = emit  # type: ignore[method-assign]
                with pytest.raises(QueryCancelled):
                    eng.run(QuerySpec(E=E_ALL), "/", sink=sink, cancel=token)
            assert len(eng.pool._all) <= NTHREADS + 1
            # and the session still works
            good = eng.run(QuerySpec(E=E_ALL), "/")
            assert good.rows


class TestCursorPagination:
    def _first_page(self, client, user="root", page_size=2):
        return run(
            client.invoke(
                user, "query", args={"spec": {"E": E_ALL}},
                page_size=page_size,
            )
        )

    def test_paging_is_byte_identical_to_unpaginated(self, client):
        """>3 pages, concatenated, must equal the unpaginated rows
        exactly — same rows, same order."""
        full = run(
            client.invoke("root", "query", args={"spec": {"E": E_ALL}})
        ).json()["rows"]
        assert len(full) == 9
        resp = self._first_page(client, page_size=2)
        body = resp.json()
        assert body["num_pages"] == 5
        pages = [body["rows"]]
        cursor = body["next_cursor"]
        while cursor is not None:
            body = run(client.invoke("root", cursor=cursor)).json()
            pages.append(body["rows"])
            cursor = body["next_cursor"]
        assert len(pages) == 5
        assert [len(p) for p in pages] == [2, 2, 2, 2, 1]
        flat = [row for page in pages for row in page]
        assert flat == full

    def test_cursor_replay_is_cache_served(self, client):
        resp = self._first_page(client)
        cursor = resp.json()["next_cursor"]
        body = run(client.invoke("root", cursor=cursor)).json()
        # the replayed run came from the materialized result cache
        assert body["meta"]["cached"] is True

    def test_cursor_invalid_across_tenants(self, client):
        resp = self._first_page(client, user="root")
        cursor = resp.json()["next_cursor"]
        stolen = run(client.invoke("alice", cursor=cursor))
        assert stolen.status == 403
        assert stolen.json()["error"]["code"] == "invalid_cursor"

    def test_tampered_cursor_rejected(self, client):
        resp = self._first_page(client)
        cursor = resp.json()["next_cursor"]
        for bad in (cursor[:-4], cursor + "AAAA", "garbage", cursor.swapcase()):
            r = run(client.invoke("root", cursor=bad))
            assert r.status == 400
            assert r.json()["error"]["code"] == "invalid_cursor"

    def test_cursor_survives_unrelated_churn(self, identity, tmp_path):
        """An index change that cannot affect the paged result leaves
        the cursor valid: the replay revalidates through the result
        cache (or re-runs) and serves identical rows."""
        tree = build_demo_tree()
        journal = ChangeJournal()
        tree.set_changelog(journal)
        index = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        with GUFIServer(
            index, identity, nthreads=NTHREADS, result_cache_mb=8.0
        ) as srv, GUFIApp(srv, max_inflight=2, queue_limit=4) as app:
            client = ASGIClient(app)
            spec = {"E": E_ALL}
            first = run(
                client.invoke(
                    "alice", "query", "/home/alice",
                    args={"spec": spec}, page_size=1,
                )
            ).json()
            cursor = first["next_cursor"]
            # churn far away from /home/alice, applied via changefeed
            tree.create_file(
                "/public/new.bin", size=1, mode=0o644, uid=0, gid=0
            )
            changefeed2index(
                index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
            )
            body = run(client.invoke("alice", cursor=cursor)).json()
            assert body["ok"]
            assert body["rows"]
            flat = first["rows"] + body["rows"]
            cursor = body["next_cursor"]
            while cursor is not None:
                body = run(client.invoke("alice", cursor=cursor)).json()
                flat.extend(body["rows"])
                cursor = body["next_cursor"]
            paths = {r[0] for r in flat}
            assert paths == {"/home/alice/a.txt", "/home/alice/sub/deep.dat"}

    def test_cursor_expires_after_relevant_changefeed_apply(
        self, identity, tmp_path
    ):
        """The acceptance case: a changefeed apply that changes the
        paged result must expire the cursor cleanly — never serve
        stale rows."""
        tree = build_demo_tree()
        journal = ChangeJournal()
        tree.set_changelog(journal)
        index = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        with GUFIServer(
            index, identity, nthreads=NTHREADS, result_cache_mb=8.0
        ) as srv, GUFIApp(srv, max_inflight=2, queue_limit=4) as app:
            client = ASGIClient(app)
            first = run(
                client.invoke(
                    "root", "query", args={"spec": {"E": E_ALL}},
                    page_size=2,
                )
            ).json()
            cursor = first["next_cursor"]
            # a write *inside* the queried tree, applied via changefeed
            tree.create_file(
                "/home/bob/new.txt", size=123, mode=0o644,
                uid=1002, gid=1002,
            )
            changefeed2index(
                index, tree, journal, opts=BuildOptions(nthreads=NTHREADS)
            )
            resp = run(client.invoke("root", cursor=cursor))
            assert resp.status == 410
            assert resp.json()["error"]["code"] == "cursor_expired"
            # restarting from page 0 sees the new row
            fresh = run(
                client.invoke(
                    "root", "query", args={"spec": {"E": E_ALL}},
                    page_size=100,
                )
            ).json()
            assert "/home/bob/new.txt" in {r[0] for r in fresh["rows"]}


class TestMetricsEndpoint:
    def test_prometheus_serves_every_serve_series(self, server):
        """CI greps these names; all six ``gufi_serve_*`` series must
        appear after one request each of: success, rejection, shed,
        timeout."""
        with obs.enabled(metrics=True), GUFIApp(
            server, max_inflight=1, queue_limit=0,
            tenant_qps=0.001, tenant_burst=2.0,
        ) as app:
            client = ASGIClient(app)

            async def traffic():
                await client.invoke("alice", "du")  # success
                await client.invoke(  # timeout
                    "alice", "query", args={"spec": {"E": E_ALL}},
                    deadline_ms=0.0001,
                )
                await client.invoke("alice", "du")  # rate-limited
                await asyncio.gather(  # one of these is shed
                    *(client.invoke("bob", "du") for _ in range(4))
                )
                return await client.request("GET", "/metrics")

            resp = run(traffic())
        assert resp.status == 200
        text = resp.text
        for series in (
            "gufi_serve_requests_total",
            "gufi_serve_rejected_total",
            "gufi_serve_shed_total",
            "gufi_serve_timeouts_total",
            "gufi_serve_queue_depth",
            "gufi_serve_request_seconds",
        ):
            assert series in text, f"missing {series}\n{text}"


def _normal(value):
    """A tool's answer as JSON carries it, rows in a fixed order."""
    value = json.loads(json.dumps(jsonable(value)))
    return sorted(value, key=json.dumps) if isinstance(value, list) else value


#: tool -> (wire args, in-process kwargs); every tool of the table
TOOL_CALLS = {
    "query": ({"spec": {"E": E_ALL}}, {"spec": QuerySpec(E=E_ALL)}),
    "find": ({"filters": {"ftype": "f"}}, {"filters": FindFilters(ftype="f")}),
    "search": ({"query": "type:f size>>100"},) * 2,
    "xattr_search": ({"needle": "x"},) * 2,
    "ls": ({"long_format": True},) * 2,
    "du": ({"use_tsummary": False},) * 2,
    "dir_sizes": ({},) * 2,
    "largest_files": ({"limit": 3},) * 2,
    "recently_modified": ({"limit": 3},) * 2,
    "space_by_user": ({},) * 2,
}


class TestOneToolTable:
    """Every tool of :data:`ALLOWED_TOOLS`, for root and a user: the
    server and HTTP answer what :class:`GUFITools` answers directly,
    and exactly the tools the table marks pageable page."""

    def test_table_covers_the_calls(self):
        assert set(ALLOWED_TOOLS) == set(TOOL_CALLS)
        assert {t for t, rows in ALLOWED_TOOLS.items() if rows} == {
            "query", "find", "search", "xattr_search",
        }

    @pytest.mark.parametrize("user", ["root", "alice"])
    @pytest.mark.parametrize("tool", sorted(TOOL_CALLS))
    def test_every_transport_answers_alike(self, demo_index, identity, tool, user):
        wire, kwargs = TOOL_CALLS[tool]
        pageable = ALLOWED_TOOLS[tool]
        creds = identity.authenticate(user)
        with GUFITools(demo_index, creds, nthreads=NTHREADS) as tools:
            direct = getattr(tools, tool)(start="/", **kwargs)
        with GUFIServer(demo_index, identity, nthreads=NTHREADS) as srv, \
                GUFIApp(srv, max_inflight=2, queue_limit=4) as app:
            invoked = srv.invoke(user, tool, "/", **kwargs)
            body = run(ASGIClient(app).invoke(user, tool, "/", args=wire, page_size=1)).json()
        assert body["ok"], body
        assert ("num_pages" in body) == pageable
        if pageable:
            assert _normal(invoked.rows) == _normal(direct.rows)
            assert body["num_pages"] == len(direct.rows)
            assert body["meta"]["total_rows"] == len(direct.rows)
        else:
            assert _normal(invoked) == _normal(direct) == _normal(body["result"])


class TestRawSQLOpensNoFile:
    """Raw stage SQL may read the databases the engine attached and no
    other: bob's ``ATTACH`` of alice's private database — in ``I``,
    ``E`` or ``J``, in-process or over HTTP — reads none of her rows
    and deletes none, and ``VACUUM … INTO`` writes no file."""

    @staticmethod
    def probes(index, copy) -> dict[str, list[dict]]:
        alice = index.db_path("/home/alice")
        return {
            "I": [{
                "I": f"ATTACH DATABASE '{alice}' AS x; "
                     "CREATE TABLE s AS SELECT name FROM x.entries",
                "E": "SELECT name FROM entries",
                "J": "INSERT INTO aggregate.s SELECT name FROM s",
                "G": "SELECT name FROM s",
            }],
            "I-delete": [{
                "I": f"ATTACH DATABASE '{alice}' AS y; DELETE FROM y.entries",
                "E": "SELECT name FROM entries",
            }],
            # the alias would outlive the run on the pooled state
            "E": [
                {"E": f"ATTACH DATABASE '{alice}' AS y"},
                {"E": "SELECT name FROM y.entries"},
            ],
            "J": [{
                "I": "CREATE TABLE t (name TEXT)",
                "E": "INSERT INTO t SELECT name FROM entries",
                "J": f"ATTACH DATABASE '{alice}' AS x; "
                     "INSERT INTO aggregate.t SELECT name FROM x.entries",
                "G": "SELECT name FROM t",
            }],
            # one alias swapped for another inside a script: alice's
            # names written to a file of bob's choosing
            "J-swap": [{
                "I": "CREATE TABLE t (n INTEGER)",
                "E": "INSERT INTO t SELECT 1",
                "J": f"DETACH DATABASE aggregate; ATTACH DATABASE '{alice}' AS x; "
                     "CREATE TABLE loot AS SELECT name FROM x.entries; "
                     f"DETACH DATABASE x; ATTACH DATABASE '{copy}' AS y; "
                     "CREATE TABLE y.loot AS SELECT name FROM loot",
            }],
            "VACUUM": [{"E": f"VACUUM INTO '{copy}'"}],
        }

    @staticmethod
    def alice_entries(index) -> list[str]:
        conn = sqlite3.connect(f"file:{index.db_path('/home/alice')}?mode=ro", uri=True)
        try:
            return sorted(name for (name,) in conn.execute("SELECT name FROM entries"))
        finally:
            conn.close()

    @pytest.mark.parametrize("transport", ["in-process", "http"])
    @pytest.mark.parametrize("probe", ["I", "I-delete", "E", "J", "J-swap", "VACUUM"])
    def test_bob_reaches_nothing_of_alice(
        self, demo_index, identity, tmp_path, probe, transport
    ):
        hers = self.alice_entries(demo_index)
        assert "a.txt" in hers
        copy = tmp_path / "copy.db"
        seen: list = []
        # one worker thread: one pooled state, where an alias would stay
        with GUFIServer(demo_index, identity, nthreads=1) as srv, \
                GUFIApp(srv, max_inflight=1, queue_limit=4) as app:
            client = ASGIClient(app)
            for spec in self.probes(demo_index, copy)[probe]:
                if transport == "http":
                    resp = run(client.invoke(
                        "bob", "query", "/home/bob", args={"spec": spec}
                    ))
                    seen += resp.json().get("rows", [])
                    assert resp.status == 400, resp.text
                    assert resp.json()["error"]["code"] == "bad_query"
                else:
                    with pytest.raises((sqlite3.Error, RuntimeError)):
                        seen += srv.invoke(
                            "bob", "query", "/home/bob", spec=QuerySpec(**spec)
                        ).rows
            # and the pooled state serves bob's next query as usual
            mine = srv.invoke("bob", "query", "/home/bob", spec=QuerySpec(E=E_ALL))
        assert "/home/bob/b.txt" in {r[0] for r in mine.rows}
        assert not {"a.txt", "sub"} & {str(v) for row in seen for v in row}
        assert self.alice_entries(demo_index) == hers
        assert not copy.exists()
