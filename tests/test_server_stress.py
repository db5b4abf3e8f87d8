"""Concurrent-server stress: many threads hammering one GUFIServer.

The server's contract under concurrency: every invocation — success or
failure — lands exactly one well-formed audit entry; the bounded audit
log never loses count of what it evicted; and the observability
counters agree with the audit log. Every principal runs on the
server's one pool of warm thread states, so these runs also exercise
states changing hands under contention.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.core.server import (
    AuthenticationError,
    GUFIServer,
    IdentityProvider,
    ToolNotAllowed,
)
from tests.conftest import NTHREADS

STRESS_THREADS = 8
INVOKES_PER_THREAD = 12


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
    with GUFIServer(demo_index, identity, nthreads=NTHREADS) as srv:
        yield srv


def _hammer(server, thread_no: int, outcomes: list) -> None:
    """One stress thread: a fixed script of good and bad invocations.

    Each iteration issues one ``du`` that must succeed, plus one
    invocation that must fail — alternating between an off-whitelist
    tool and a disabled user — so success and failure paths interleave
    under contention.
    """
    users = ("alice", "bob", "carol", "root")
    ok = failed = 0
    for i in range(INVOKES_PER_THREAD):
        user = users[(thread_no + i) % len(users)]
        assert server.invoke(user, "du", "/") >= 0
        ok += 1
        try:
            if i % 2:
                server.invoke(user, "chmod", "/")
            else:
                server.invoke("mallory", "du", "/")
            raise AssertionError("expected the invocation to fail")
        except (ToolNotAllowed, AuthenticationError):
            failed += 1
    outcomes[thread_no] = (ok, failed)


class TestConcurrentInvocations:
    def test_audit_integrity_under_contention(self, server):
        with obs.enabled(metrics=True):
            outcomes: list = [None] * STRESS_THREADS
            threads = [
                threading.Thread(target=_hammer, args=(server, i, outcomes))
                for i in range(STRESS_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = obs.snapshot()

        assert all(o is not None for o in outcomes), "a stress thread died"
        total_ok = sum(ok for ok, _ in outcomes)
        total_failed = sum(f for _, f in outcomes)
        total = total_ok + total_failed
        assert total == STRESS_THREADS * INVOKES_PER_THREAD * 2

        # exactly one audit entry per invocation, each well-formed
        entries = list(server.audit_log)
        assert len(entries) == total
        assert server.audit_dropped == 0
        for entry in entries:
            assert entry.username in {
                "alice", "bob", "carol", "root", "mallory"
            }
            assert entry.elapsed > 0
            assert entry.at > 0
            if entry.ok:
                assert entry.error is None and entry.tool == "du"
            else:
                assert entry.error is not None
                assert entry.error.split(":")[0] in (
                    "ToolNotAllowed",
                    "AuthenticationError",
                )
        assert sum(1 for e in entries if e.ok) == total_ok
        assert sum(1 for e in entries if not e.ok) == total_failed

        # the metrics registry agrees with the audit log
        assert snap.counter_total("gufi_server_invocations_total") == total
        assert snap.counter("gufi_server_invocations_total", tool="du") == (
            total_ok + total_failed / 2  # mallory's failures also name du
        )
        assert (
            snap.counter_total("gufi_server_invoke_failures_total")
            == total_failed
        )
        assert snap.counter("gufi_server_audit_dropped_total") == 0.0
        hist_count = sum(
            h.count
            for (name, _), h in snap.histograms.items()
            if name == "gufi_server_invoke_seconds"
        )
        assert hist_count == total

    def test_concurrent_sessions_isolate_credentials(self, server):
        """Pooled states changing hands under contention must never
        leak one caller's visibility — rows, or scratch-table sums — to
        another."""
        from repro.core.query import Q1_LIST_PATHS

        want = {u: server.invoke(u, "du") for u in ("alice", "bob", "root")}
        results: dict[str, set] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def query_as(user: str) -> None:
            try:
                for _ in range(6):
                    rows = server.invoke(user, "query", spec=Q1_LIST_PATHS).rows
                    paths = {r[0] for r in rows}
                    assert server.invoke(user, "du") == want[user]
                    with lock:
                        seen = results.setdefault(user, paths)
                        assert paths == seen, f"visibility flapped for {user}"
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=query_as, args=(u,))
            for u in ("alice", "bob", "root")
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(set(want.values())) == 3
        assert "/home/alice/a.txt" in results["alice"]
        assert "/home/alice/a.txt" not in results["bob"]
        assert results["bob"] < results["root"]


class TestAuditCap:
    def test_cap_evicts_and_counts(self, demo_index, identity):
        with GUFIServer(
            demo_index, identity, nthreads=NTHREADS, audit_cap=16
        ) as srv, obs.enabled(metrics=True):
            for _ in range(40):
                srv.invoke("alice", "du", "/")
            assert len(srv.audit_log) == 16
            assert srv.audit_dropped == 24
            snap = obs.snapshot()
            assert snap.counter("gufi_server_audit_dropped_total") == 24.0
            assert (
                snap.counter("gufi_server_invocations_total", tool="du") == 40.0
            )

    def test_concurrent_appends_never_exceed_cap(self, demo_index, identity):
        with GUFIServer(
            demo_index, identity, nthreads=NTHREADS, audit_cap=10
        ) as srv:
            nthreads, per = 8, 5

            def work():
                for _ in range(per):
                    srv.invoke("alice", "du", "/")

            threads = [
                threading.Thread(target=work) for _ in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(srv.audit_log) == 10
            assert srv.audit_dropped == nthreads * per - 10
