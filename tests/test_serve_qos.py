"""Unit tests for the serving layer's QoS primitives.

The three rings (token bucket, tenant quota, admission control) are
pure policy with no engine behind them, so they are tested in
isolation with injected clocks and bare event loops — the full stack
is covered by ``test_serve_app.py`` / ``test_serve_stress.py``, except
for what admission control bounds in it: executor work, and not the
result-cache hits the event loop answers (the last class here).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve import ASGIClient
from repro.serve.qos import (
    AdmissionController,
    LoadShed,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
)


def run(coro):
    return asyncio.run(coro)


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        # the full burst is available immediately
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        # empty: the hint is the time until one token exists (rate 2/s)
        wait = bucket.acquire()
        assert wait == pytest.approx(0.5)
        # half a second later exactly one token has accrued
        now[0] = 0.5
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
        now[0] = 100.0  # a long idle accrues at most `burst` tokens
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


class TestTenantQuota:
    def test_limit_is_per_tenant(self):
        quota = TenantQuota(limit=2)
        quota.acquire("a")
        quota.acquire("a")
        with pytest.raises(QuotaExceeded):
            quota.acquire("a")
        # a full tenant does not consume b's quota
        quota.acquire("b")
        quota.release("a")
        quota.acquire("a")
        assert quota.inflight("a") == 2
        assert quota.inflight("b") == 1

    def test_disabled(self):
        quota = TenantQuota(limit=None)
        for _ in range(100):
            quota.acquire("a")
        assert quota.inflight("a") == 0  # not even counted


class TestAdmissionController:
    def test_slots_then_queue_then_shed(self):
        async def scenario():
            adm = AdmissionController(max_inflight=2, queue_limit=1)
            await adm.acquire()
            await adm.acquire()
            assert adm.inflight == 2
            # third request queues...
            waiter = asyncio.ensure_future(adm.acquire())
            await asyncio.sleep(0)
            assert adm.queue_depth == 1
            # ...fourth is shed: the queue is bounded
            with pytest.raises(LoadShed) as exc:
                await adm.acquire()
            assert exc.value.reason == "queue_full"
            assert exc.value.retry_after > 0
            # a release hands the slot to the queued waiter directly
            adm.release()
            await waiter
            assert adm.inflight == 2
            assert adm.queue_depth == 0
            assert adm.shed["queue_full"] == 1

        run(scenario())

    def test_queue_wait_bounded_by_deadline(self):
        async def scenario():
            adm = AdmissionController(max_inflight=1, queue_limit=4)
            await adm.acquire()
            with pytest.raises(LoadShed) as exc:
                await adm.acquire(timeout=0.01)
            assert exc.value.reason == "deadline"
            assert adm.queue_depth == 0  # expired waiter left the queue
            assert adm.shed["deadline"] == 1
            # an already-lapsed deadline is shed without queuing
            with pytest.raises(LoadShed) as exc:
                await adm.acquire(timeout=0.0)
            assert exc.value.reason == "deadline"

        run(scenario())

    def test_fifo_handoff(self):
        async def scenario():
            adm = AdmissionController(max_inflight=1, queue_limit=8)
            await adm.acquire()
            order: list[int] = []

            async def wait(i: int) -> None:
                await adm.acquire()
                order.append(i)

            waiters = [asyncio.ensure_future(wait(i)) for i in range(4)]
            await asyncio.sleep(0)
            assert adm.queue_depth == 4
            for _ in range(4):
                adm.release()
                await asyncio.sleep(0)
            await asyncio.gather(*waiters)
            assert order == [0, 1, 2, 3]
            # one slot is still held by the last waiter
            assert adm.inflight == 1
            adm.release()
            assert adm.inflight == 0

        run(scenario())

    def test_cancelled_waiter_releases_queue_position(self):
        async def scenario():
            adm = AdmissionController(max_inflight=1, queue_limit=2)
            await adm.acquire()
            waiter = asyncio.ensure_future(adm.acquire())
            await asyncio.sleep(0)
            assert adm.queue_depth == 1
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert adm.queue_depth == 0
            # the held slot is unaffected
            assert adm.inflight == 1
            adm.release()
            assert adm.inflight == 0

        run(scenario())


class TestAdmissionBoundsExecutorWork:
    """Admission control sizes the executor: a flood of misses is still
    queued and shed, and a hit — answered on the event loop, never
    yielding — neither waits for a slot nor is shed."""

    E_ALL = "SELECT rpath(dname, d_isroot, name), size FROM vrpentries"

    @pytest.fixture
    def stack(self, demo_index, monkeypatch):
        from repro.core.engine.stages import StageRunner
        from repro.core.server import GUFIServer, IdentityProvider
        from repro.serve import GUFIApp
        from repro.store import watch

        monkeypatch.setattr(watch, "fs_supported", lambda path: True)
        idp = IdentityProvider()
        idp.add_user("root", uid=0, gid=0)
        gate = threading.Event()
        walking = threading.Event()
        real = StageRunner.s_e_stages

        def blocked(self, *args):
            walking.set()
            assert gate.wait(30.0), "the test never opened the gate"
            return real(self, *args)

        with GUFIServer(
            demo_index, idp, nthreads=1, result_cache_mb=8.0
        ) as srv, GUFIApp(srv, max_inflight=1, queue_limit=1) as app:
            client = ASGIClient(app)
            # cached before any walk blocks
            assert run(self.query(client, "/home")).status == 200
            monkeypatch.setattr(StageRunner, "s_e_stages", blocked)
            try:
                yield app, client, walking
            finally:
                gate.set()

    def query(self, client, start: str):
        return client.invoke(
            "root", "query", start, args={"spec": {"E": self.E_ALL}}
        )

    @staticmethod
    async def until(event: threading.Event) -> None:
        for _ in range(3000):
            if event.is_set():
                return
            await asyncio.sleep(0.01)
        raise AssertionError("the miss never started walking")

    def test_flood_of_misses_is_shed(self, stack):
        app, client, walking = stack

        async def scenario():
            starts = ["/", "/home/alice", "/home/bob", "/proj"]
            tasks = [asyncio.ensure_future(self.query(client, s)) for s in starts]
            await self.until(walking)
            done = [t for t in tasks if t.done()]
            assert app.admission.inflight == 1 and app.admission.queue_depth == 1
            return [t.result() for t in done]

        shed = run(scenario())
        assert len(shed) == 2
        for resp in shed:
            assert resp.status == 503
            assert resp.json()["error"]["code"] == "overloaded"

    def test_hit_does_not_wait_for_a_slot(self, stack):
        app, client, walking = stack

        async def scenario():
            miss = asyncio.ensure_future(self.query(client, "/proj"))
            await self.until(walking)
            assert app.admission.inflight == 1
            hit = await asyncio.wait_for(self.query(client, "/home"), 5.0)
            assert not miss.done()
            return hit

        hit = run(scenario())
        assert hit.status == 200, hit.text
        assert hit.json()["meta"]["cached"] is True
        assert app.admission.shed == {"queue_full": 0, "deadline": 0}
