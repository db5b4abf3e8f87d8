"""Socket-level tests for the HTTP/1.1 bridge and the CLI wiring.

``test_serve_app.py`` exercises the app in-process; here the same
app goes on a real loopback socket via ``repro.serve.http.serve`` and
is driven with the stdlib ``http.client`` — framing, keep-alive, and
the ``serve`` CLI subcommand's plumbing are what is under test, not
the tools themselves.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.engine import ResultCache
from repro.core.index import GUFIIndex
from repro.core.server import GUFIServer, IdentityProvider
from repro.serve import ASGIClient, GUFIApp, canonical_json, encode_cursor
from repro.serve.http import (
    MAX_BODY,
    MAX_HEADER_BYTES,
    READ_HIGH_WATER,
    _Connection,
    serve,
)
from repro.store import watch
from tests.conftest import NTHREADS


@pytest.fixture
def identity():
    idp = IdentityProvider()
    idp.add_user("alice", uid=1001, gid=1001)
    idp.add_user("bob", uid=1002, gid=1002)
    idp.add_user("root", uid=0, gid=0)
    return idp


@pytest.fixture
def live_server(demo_index, identity):
    """The full stack on an ephemeral loopback port; yields the port."""
    with GUFIServer(demo_index, identity, nthreads=NTHREADS) as srv, \
            GUFIApp(srv, max_inflight=2, queue_limit=8) as app:
        ready = threading.Event()
        loop_holder: dict = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            loop_holder["loop"] = loop
            task = loop.create_task(serve(app, port=0, ready=ready))
            loop_holder["task"] = task
            try:
                loop.run_until_complete(task)
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10.0), "server never bound"
        try:
            yield ready.port
        finally:
            loop = loop_holder["loop"]
            loop.call_soon_threadsafe(loop_holder["task"].cancel)
            thread.join(10.0)


def _request(port, method, path, body=None, user=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    headers = {}
    if user is not None:
        headers["x-gufi-user"] = user
    payload = None
    if body is not None:
        payload = json.dumps(body)
        headers["content-type"] = "application/json"
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, data


class TestHTTPBridge:
    def test_healthz(self, live_server):
        status, data = _request(live_server, "GET", "/healthz")
        assert status == 200
        assert json.loads(data) == {"ok": True}

    def test_invoke_over_socket(self, live_server):
        status, data = _request(
            live_server, "POST", "/v1/invoke",
            body={"tool": "du", "start": "/"}, user="root",
        )
        assert status == 200
        payload = json.loads(data)
        assert payload["ok"] and payload["result"] > 0

    def test_metrics_over_socket(self, live_server):
        from repro import obs

        with obs.enabled(metrics=True):
            _request(live_server, "POST", "/v1/invoke",
                     body={"tool": "du"}, user="alice")
            status, data = _request(live_server, "GET", "/metrics")
        assert status == 200
        assert b"gufi_serve_requests_total" in data

    def test_keep_alive_reuses_connection(self, live_server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", live_server, timeout=10
        )
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        conn.close()

    def test_auth_rejected_over_socket(self, live_server):
        status, data = _request(
            live_server, "POST", "/v1/invoke", body={"tool": "du"}
        )
        assert status == 401
        assert json.loads(data)["error"]["code"] == "auth_required"

    def test_one_write_per_response(self):
        """Status line, headers and body leave in one write (one TCP
        segment), on a kept-alive connection and on a closing one."""

        class App:
            def attempt(self, method, path, headers, body):
                return 200, [(b"content-length", b"2")], b"ok"

        transport = asyncio.run(_drive(
            App(),
            b"GET /a HTTP/1.1\r\nhost: x\r\n\r\n"
            b"GET /b HTTP/1.1\r\nconnection: close\r\n\r\n"
            b"GET /never HTTP/1.1\r\n\r\n",
        ))
        assert transport.writes == [
            b"HTTP/1.1 200 \r\ncontent-length: 2\r\n"
            b"connection: keep-alive\r\n\r\nok",
            b"HTTP/1.1 200 \r\ncontent-length: 2\r\n"
            b"connection: close\r\n\r\nok",
        ]
        assert transport.closed


class _FakeTransport(asyncio.Transport):
    """Records what a connection writes, and whether it closed."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[bytes] = []
        self.closed = False
        self.reading = True

    def write(self, data) -> None:
        assert not self.closed, "a write after close"
        self.writes.append(bytes(data))

    def close(self) -> None:
        self.closed = True

    abort = close

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


async def _drive(app, *segments: bytes, eof: bool = True) -> _FakeTransport:
    """Feed ``segments`` to one connection, each once the replies due
    so far have left; then EOF. Returns the transport."""
    conn = _Connection(app, set())
    transport = _FakeTransport()
    conn.connection_made(transport)

    async def settle() -> None:
        while conn.task is not None:
            await conn.task

    for segment in segments:
        conn.data_received(segment)
        await settle()
    if eof:
        conn.eof_received()
        await settle()
    return transport


class _EchoApp:
    """Answers ``/slow/...`` off the loop (after a yield), anything else
    from its synchronous attempt; the body echoes path and body."""

    def __init__(self) -> None:
        self.seen: list[str] = []

    @staticmethod
    def _reply(path, body):
        text = path.encode() + b"|" + body
        return 200, [(b"content-length", b"%d" % len(text))], text

    def attempt(self, method, path, headers, body):
        self.seen.append(path)
        if path.startswith("/slow"):
            async def later():
                await asyncio.sleep(0.01)
                return self._reply(path, body)

            return later()
        return self._reply(path, body)


def _reply_bodies(transport: _FakeTransport) -> list[bytes]:
    return [w.split(b"\r\n\r\n", 1)[1] for w in transport.writes]


def _post(path: str, body: bytes, *extra: bytes) -> bytes:
    return (
        b"POST " + path.encode() + b" HTTP/1.1\r\n"
        + b"".join(h + b"\r\n" for h in extra)
        + b"content-length: %d\r\n\r\n" % len(body) + body
    )


class TestFraming:
    """Requests framed from the connection's receive buffer: however
    the bytes arrive, each request is answered once, in order."""

    def test_pipelined_requests_are_answered_in_order(self):
        """The first request is answered off the loop, the second by
        the synchronous attempt: the second reply still waits."""
        app = _EchoApp()
        transport = asyncio.run(_drive(
            app, _post("/slow/1", b"a") + _post("/fast/2", b"bc")
        ))
        assert _reply_bodies(transport) == [b"/slow/1|a", b"/fast/2|bc"]
        assert app.seen == ["/slow/1", "/fast/2"]
        assert transport.closed  # EOF after the last reply

    def test_head_split_across_segments(self):
        raw = _post("/fast/h", b"xyz", b"x-gufi-user: root")
        for cut in (1, 7, raw.index(b"\r\n\r\n") + 1,
                    raw.index(b"\r\n\r\n") + 3):
            transport = asyncio.run(_drive(_EchoApp(), raw[:cut], raw[cut:]))
            assert _reply_bodies(transport) == [b"/fast/h|xyz"], cut

    def test_body_split_across_segments(self):
        body = b"0123456789" * 100
        raw = _post("/fast/b", body)
        head = raw.index(b"\r\n\r\n") + 4
        transport = asyncio.run(_drive(
            _EchoApp(), raw[: head + 10], raw[head + 10: head + 500],
            raw[head + 500:],
        ))
        assert _reply_bodies(transport) == [b"/fast/b|" + body]

    def test_one_byte_at_a_time(self):
        raw = _post("/fast/1", b"a") + _post("/slow/2", b"b")
        transport = asyncio.run(_drive(
            _EchoApp(), *(raw[i:i + 1] for i in range(len(raw)))
        ))
        assert _reply_bodies(transport) == [b"/fast/1|a", b"/slow/2|b"]

    @pytest.mark.parametrize("raw", [
        b"GET /" + b"x" * MAX_HEADER_BYTES + b" HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\n" + b"x-pad: " + b"y" * MAX_HEADER_BYTES,
        b"POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
        b"POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n",
        b"POST / HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % (MAX_BODY + 1),
        b"POST / HTTP/1.1\r\ncontent-length: +1\r\n\r\nx",
        b"POST / HTTP/1.1\r\ncontent-length: " + b"9" * 5000 + b"\r\n\r\n",
        b"BOGUS\r\n\r\n",
        b"\r\n\r\n",
    ], ids=["long-line", "oversize-head", "bad-length", "negative-length",
            "oversize-body", "signed-length", "long-length",
            "bad-request-line", "empty-request-line"])
    def test_malformed_input_closes_without_a_reply(self, raw):
        app = _EchoApp()
        transport = asyncio.run(_drive(app, raw, eof=False))
        assert transport.writes == [] and transport.closed
        assert app.seen == []

    @pytest.mark.parametrize("raw", [
        # the chunk bytes would be framed as the next request
        _post("/fast/te", b"", b"transfer-encoding: chunked")
        + b"0\r\n\r\n",
        # a body by Content-Length, a smuggled request by the chunks
        b"POST /fast/te HTTP/1.1\r\ncontent-length: 4\r\n"
        b"transfer-encoding: chunked\r\n\r\n"
        b"1d\r\nGET /fast/smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
    ], ids=["chunked", "chunked-and-length"])
    def test_transfer_encoding_closes_without_a_reply(self, raw):
        app = _EchoApp()
        transport = asyncio.run(_drive(app, raw, eof=False))
        assert transport.writes == [] and transport.closed
        assert app.seen == []

    def test_two_content_lengths_that_differ_close_without_a_reply(self):
        """With the last value winning, the 25-byte body would be
        answered as a request of its own."""
        smuggled = b"GET /metrics HTTP/1.1\r\n\r\n"
        assert len(smuggled) == 25
        app = _EchoApp()
        transport = asyncio.run(_drive(
            app,
            b"POST /fast/cl HTTP/1.1\r\ncontent-length: 25\r\n"
            b"content-length: 0\r\n\r\n" + smuggled,
            eof=False,
        ))
        assert transport.writes == [] and transport.closed
        assert app.seen == []
        # the same value twice is one length
        transport = asyncio.run(_drive(
            _EchoApp(), _post("/fast/cl", b"abc", b"content-length: 3")
        ))
        assert _reply_bodies(transport) == [b"/fast/cl|abc"]

    def test_malformed_request_after_a_good_one(self):
        transport = asyncio.run(_drive(
            _EchoApp(), _post("/fast/1", b"a") + b"BOGUS\r\n\r\n", eof=False
        ))
        assert _reply_bodies(transport) == [b"/fast/1|a"]
        assert transport.closed

    @pytest.mark.parametrize("first", ["/fast/c", "/slow/c"])
    def test_connection_close_drops_what_follows(self, first):
        app = _EchoApp()
        transport = asyncio.run(_drive(
            app,
            _post(first, b"1", b"Connection: Close")
            + _post("/fast/after", b"2"),
            eof=False,
        ))
        assert _reply_bodies(transport) == [first.encode() + b"|1"]
        assert b"connection: close" in transport.writes[0]
        assert transport.closed and app.seen == [first]

    def test_incomplete_request_at_eof_closes_without_a_reply(self):
        transport = asyncio.run(_drive(
            _EchoApp(), _post("/fast/x", b"abcdef")[:-2]
        ))
        assert transport.writes == [] and transport.closed

    def test_query_string_is_not_part_of_the_path(self):
        transport = asyncio.run(_drive(
            _EchoApp(), b"GET /fast/q?x=1 HTTP/1.1\r\n\r\n"
        ))
        assert _reply_bodies(transport) == [b"/fast/q|"]

    def test_an_app_that_raises_closes_without_a_reply(self):
        class App:
            def attempt(self, method, path, headers, body):
                async def boom():
                    raise RuntimeError("boom")

                return boom()

        app = App()

        async def scenario():
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: seen.append(ctx["exception"])
            )
            transport = await _drive(
                app, b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
                eof=False,
            )
            return transport, seen

        transport, seen = asyncio.run(scenario())
        assert transport.writes == [] and transport.closed
        assert [str(e) for e in seen] == ["boom"]

    def test_paused_writes_hold_the_next_reply(self):
        """Back-pressure: while the transport is over its high-water
        mark nothing more is answered, and reading pauses once the
        receive buffer grows past READ_HIGH_WATER; both resume with the
        writes."""
        app = _EchoApp()
        big = b"z" * (READ_HIGH_WATER + 1)

        async def scenario():
            conn = _Connection(app, set())
            transport = _FakeTransport()
            conn.connection_made(transport)
            conn.data_received(_post("/fast/1", b"a"))
            conn.pause_writing()
            conn.data_received(_post("/fast/2", b"b"))
            held = len(transport.writes)
            conn.data_received(_post("/fast/3", big))
            paused = not transport.reading
            conn.resume_writing()
            return held, paused, transport

        held, paused, transport = asyncio.run(scenario())
        assert held == 1 and paused
        assert transport.reading and not transport.closed
        assert _reply_bodies(transport) == [
            b"/fast/1|a", b"/fast/2|b", b"/fast/3|" + big,
        ]


class _Stack:
    """One server + app over its own handle of the demo index."""

    def __init__(self, root, identity) -> None:
        # one walker thread: both stacks walk in the same order
        self.srv = GUFIServer(
            GUFIIndex.open(root), identity, nthreads=1, result_cache_mb=8.0,
        )
        self.app = GUFIApp(
            self.srv, max_inflight=1, queue_limit=0,
            tenant_qps=0.001, tenant_burst=5.0, cursor_secret=_SECRET,
        )

    def counts(self) -> tuple[int, int, int]:
        cache = self.srv.result_cache
        return cache.hits, cache.misses, len(self.srv.audit_log)

    def close(self) -> None:
        self.app.close()
        self.srv.close()


_SECRET = b"k" * 32
_QUERY = {"tool": "query", "args": {"spec": {"E": "SELECT name FROM entries"}}}


def _parity_cases():
    """``(label, method, path, user, body, status, counts)``: the
    request, the status it answers, and what it leaves in the books —
    ``(cache hits + misses, audit records)``."""
    stale = encode_cursor(_SECRET, {
        "u": "root", "t": "query", "s": "/",
        "a": canonical_json(_QUERY["args"]), "p": 0, "n": 2, "d": "0" * 32,
    })
    invoke = "/v1/invoke"
    return [
        ("200 executor", "POST", invoke, "root", _QUERY, 200, (1, 1)),
        ("200 loop", "POST", invoke, "root", _QUERY, 200, (1, 1)),
        ("200 paged", "POST", invoke, "root", dict(_QUERY, page_size=2),
         200, (1, 1)),
        ("410", "POST", invoke, "root", {"cursor": stale}, 410, (1, 1)),
        ("400 body", "POST", invoke, "root", [1], 400, (0, 0)),
        ("400 query", "POST", invoke, "root",
         {"tool": "query", "args": {"spec": {"E": "SELECT nope FROM x"}}},
         400, (1, 1)),
        ("401", "POST", invoke, None, {"tool": "du"}, 401, (0, 0)),
        ("403", "POST", invoke, "alice",
         {"tool": "ls", "start": "/home/bob/secret"}, 403, (1, 1)),
        ("404 route", "GET", "/nope", None, None, 404, (0, 0)),
        ("404 start", "POST", invoke, "alice",
         {"tool": "ls", "start": "/no/such/dir"}, 404, (1, 1)),
        ("503", "POST", invoke, "bob", {"tool": "find", "start": "/home/bob"},
         503, (0, 0)),
        # the deadline has passed before the run looks anything up
        ("504", "POST", invoke, "bob",
         {"tool": "du", "start": "/home", "deadline_ms": 1e-6}, 504, (0, 1)),
    ] + [
        # alice's last three tokens, then a request past her burst
        ("200 alice", "POST", invoke, "alice", {"tool": "du"}, 200, (1, 1))
        for _ in range(3)
    ] + [
        ("429", "POST", invoke, "alice", {"tool": "du"}, 429, (0, 0)),
        ("200 healthz", "GET", "/healthz", None, None, 200, (0, 0)),
    ]


#: declined on the loop: exactly one clock lookup, then the executor
_DECLINED = {"200 executor", "400 query", "403", "404 start", "503"}


class TestSocketParity:
    """Every status the app answers, asked over ``ASGIClient`` of one
    stack and over a socket of an identical second one: the same
    status, headers and body (measured ``elapsed`` and the rate
    limiter's clock-read ``retry_after`` aside), and the same
    bookkeeping on each side."""

    @pytest.fixture(autouse=True)
    def armed(self, monkeypatch):
        monkeypatch.setattr(watch, "fs_supported", lambda path: True)

    @pytest.fixture
    def stacks(self, demo_index, identity):
        pair = _Stack(demo_index.root, identity), _Stack(
            demo_index.root, identity
        )
        yield pair
        for stack in pair:
            stack.close()

    @staticmethod
    def _shape(status, headers, body):
        # the length varies with the digits of ``elapsed``; it must be
        # the body's own
        assert ("content-length", str(len(body))) in headers
        headers = [
            (k, "n" if k == "content-length" else v) for k, v in headers
        ]
        payload = json.loads(body)
        payload.get("meta", {}).pop("elapsed", None)
        retry = payload.pop("retry_after", None)
        return status, headers, payload, retry

    def test_every_status_matches_the_in_process_reply(
        self, stacks, monkeypatch
    ):
        lookups: list = []
        real = ResultCache.lookup

        def counted(cache, key, index, admits=None, *args):
            if admits is not None:  # the loop's replay-only attempt
                lookups.append(cache)
            return real(cache, key, index, admits, *args)

        monkeypatch.setattr(ResultCache, "lookup", counted)
        inproc, wired = stacks
        with _serving(wired.app) as port:
            for label, method, path, user, body, status, counts in (
                _parity_cases()
            ):
                if label == "503":  # every executor slot is held
                    for stack in stacks:
                        stack.app.admission.inflight = 1
                raw = None if body is None else json.dumps(body).encode()
                before = [stack.counts() for stack in stacks]
                a = asyncio.run(_inproc(inproc.app, method, path, user, body))
                b = _wire(port, method, path, user, raw)
                for stack in stacks:
                    stack.app.admission.inflight = 0
                deltas = [
                    tuple(x - y for x, y in zip(stack.counts(), pre))
                    for stack, pre in zip(stacks, before)
                ]
                sa, sb = self._shape(*a), self._shape(*b)
                assert sa[0] == status, (label, a)
                assert sa[:3] == sb[:3], label
                assert (sa[3] is None) == (sb[3] is None), label
                if sa[3] is not None:
                    assert abs(sa[3] - sb[3]) < 1.0, label
                for hits, misses, audits in deltas:
                    assert (hits + misses, audits) == counts, label
                per_stack = [
                    sum(c is stack.srv.result_cache for c in lookups)
                    for stack in stacks
                ]
                assert per_stack[0] == per_stack[1] <= 1, label
                if label in _DECLINED:
                    assert per_stack == [1, 1], label
                lookups.clear()


class TestOneIdentity:
    """Two differing ``x-gufi-user`` values are refused before anything
    is authenticated; a repeated identical value is one identity."""

    @pytest.mark.parametrize("users, status", [
        (["alice", "root"], 401),
        (["root", "alice"], 401),
        (["", "alice"], 401),
        (["alice", "alice"], 200),
    ], ids=["user-then-root", "root-then-user", "empty-then-user", "same"])
    def test_at_the_socket(self, demo_index, identity, users, status):
        stack = _Stack(demo_index.root, identity)
        body = json.dumps({"tool": "du"}).encode()
        try:
            with _serving(stack.app) as port:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                conn.putrequest("POST", "/v1/invoke")
                for user in users:
                    conn.putheader("x-gufi-user", user)
                conn.putheader("content-type", "application/json")
                conn.putheader("content-length", str(len(body)))
                conn.endheaders(body)
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                conn.close()
            assert resp.status == status, payload
            if status == 401:
                assert payload["error"]["code"] == "auth_failed"
                assert stack.counts() == (0, 0, 0)  # nothing ran
        finally:
            stack.close()


async def _inproc(app, method, path, user, body):
    """One request over ``ASGIClient``: ``(status, headers, body)``."""
    resp = await ASGIClient(app).request(method, path, user=user, json_body=body)
    return resp.status, list(resp.headers.items()), resp.body


def _wire(port, method, path, user, raw):
    """The same request over a socket: ``(status, headers, body)`` with
    the bridge's own ``connection`` header left out."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    headers = {}
    if user is not None:
        headers["x-gufi-user"] = user
    if raw:
        headers["content-type"] = "application/json"
    conn.request(method, path, body=raw, headers=headers)
    resp = conn.getresponse()
    body = resp.read()
    got = [(k.lower(), v) for k, v in resp.getheaders()]
    conn.close()
    assert got[-1] == ("connection", "keep-alive")
    return resp.status, got[:-1], body


@contextlib.contextmanager
def _serving(app):
    """``serve(app)`` on an ephemeral port in a thread of its own."""
    ready = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        holder["task"] = loop.create_task(serve(app, port=0, ready=ready))
        try:
            loop.run_until_complete(holder["task"])
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(10.0), "server never bound"
    try:
        yield ready.port
    finally:
        holder["loop"].call_soon_threadsafe(holder["task"].cancel)
        thread.join(10.0)


class TestServeCLI:
    def test_cmd_serve_wires_flags_into_app(
        self, tmp_path, monkeypatch, capsys
    ):
        """The subcommand builds the server + app from its flags; the
        blocking accept loop is stubbed so the test returns."""
        from repro.cli import main
        from repro.core.build import BuildOptions, dir2index
        from repro.serve import http as serve_http
        from tests.conftest import build_demo_tree

        tree = build_demo_tree()
        dir2index(tree, tmp_path / "idx",
                  opts=BuildOptions(nthreads=NTHREADS))

        captured: dict = {}

        async def fake_serve(app, host="127.0.0.1", port=8080, ready=None):
            captured["app"] = app
            captured["host"] = host
            captured["port"] = port

        monkeypatch.setattr(serve_http, "serve", fake_serve)
        rc = main([
            "serve", str(tmp_path / "idx"),
            "--port", "9999", "--max-inflight", "3",
            "--queue-limit", "7", "--tenant-qps", "50",
            "--tenant-concurrency", "2", "--deadline-ms", "1500",
        ])
        assert rc == 0
        app = captured["app"]
        assert captured["port"] == 9999
        assert app.admission.max_inflight == 3
        assert app.admission.queue_limit == 7
        assert app.tenant_qps == 50.0
        assert app.quota.limit == 2
        assert app.deadline_s == pytest.approx(1.5)
        # demo principals are loaded by default
        assert app.server.identity.authenticate("alice").uid == 1001
        assert "serving" in capsys.readouterr().out

    def test_cmd_serve_passwd_file(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.core.build import BuildOptions, dir2index
        from repro.serve import http as serve_http
        from tests.conftest import build_demo_tree

        tree = build_demo_tree()
        dir2index(tree, tmp_path / "idx",
                  opts=BuildOptions(nthreads=NTHREADS))
        (tmp_path / "passwd").write_text(
            "eve:x:2001:2001:Eve::/bin/sh\n"
        )
        (tmp_path / "group").write_text("proj:x:100:eve\n")

        captured: dict = {}

        async def fake_serve(app, host="127.0.0.1", port=8080, ready=None):
            captured["app"] = app

        monkeypatch.setattr(serve_http, "serve", fake_serve)
        rc = main([
            "serve", str(tmp_path / "idx"),
            "--passwd", str(tmp_path / "passwd"),
            "--group", str(tmp_path / "group"),
        ])
        assert rc == 0
        creds = captured["app"].server.identity.authenticate("eve")
        assert creds.uid == 2001 and creds.in_group(100)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: Python 3.12.1's ``Server.wait_closed``: it waits for every open
#: connection, also once the server is closed (3.11's returns at once)
_WAIT_CLOSED_312 = """
import asyncio.base_events

async def wait_closed(self):
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter

asyncio.base_events.Server.wait_closed = wait_closed
"""


class TestServeShutdown:
    @pytest.mark.parametrize("wait_closed", ["native", "3.12.1"])
    def test_sigint_with_an_open_keep_alive_connection(
        self, demo_index, wait_closed
    ):
        """SIGINT while a keep-alive connection is still open: the
        server exits 0 and prints no traceback for the connection it
        cancels — also where ``wait_closed`` waits for connections,
        which hangs a shutdown that leaves one open."""
        import repro

        port = _free_port()
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        prelude = _WAIT_CLOSED_312 if wait_closed == "3.12.1" else ""
        proc = subprocess.Popen(
            [sys.executable, "-c",
             prelude + "from repro.cli import main; raise SystemExit(main())",
             "serve", str(demo_index.root), "--port", str(port), "-n", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while True:
                try:
                    conn = socket.create_connection(("127.0.0.1", port))
                    break
                except OSError:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
            with conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
                assert conn.recv(4096).startswith(b"HTTP/1.1 200")
                proc.send_signal(signal.SIGINT)
                out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        text = out.decode(errors="replace")
        assert proc.returncode == 0, text
        assert "Traceback" not in text, text
        assert "shutting down" in text
