"""Socket-level tests for the HTTP/1.1 bridge and the CLI wiring.

``test_serve_app.py`` exercises the app in-process; here the same
app goes on a real loopback socket via ``repro.serve.http.serve`` and
is driven with the stdlib ``http.client`` — framing, keep-alive, and
the ``serve`` CLI subcommand's plumbing are what is under test, not
the tools themselves.
"""

from __future__ import annotations

import asyncio
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

from repro.core.server import GUFIServer, IdentityProvider
from repro.serve import GUFIApp
from repro.serve.http import serve
from tests.conftest import NTHREADS


@pytest.fixture
def identity():
    idp = IdentityProvider()
    idp.add_user("alice", uid=1001, gid=1001)
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
