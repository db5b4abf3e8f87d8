"""Stress and edge-path tests for :class:`ParallelTreeWalker`:
batch hand-off, sentinel shutdown, seeded random trees across thread
counts, retry backoff, and fatal-abort semantics."""

from __future__ import annotations

import random
import threading

import pytest

from repro.scan.faults import BuildCrash, FaultPlan, InjectedFault
from repro.scan.walker import FatalWalkError, ParallelTreeWalker, RetryPolicy


def make_random_tree(seed: int, n_nodes: int = 400, max_kids: int = 6):
    """A random tree as {node_id: [child_ids]}, node 0 the root."""
    rng = random.Random(seed)
    children: dict[int, list[int]] = {0: []}
    frontier = [0]
    next_id = 1
    while next_id < n_nodes:
        parent = rng.choice(frontier)
        kids = []
        for _ in range(rng.randint(1, max_kids)):
            if next_id >= n_nodes:
                break
            children[next_id] = []
            kids.append(next_id)
            next_id += 1
        children[parent].extend(kids)
        frontier.extend(kids)
        if len(frontier) > 50:
            frontier = frontier[-50:]
    return children


class TestStress:
    @pytest.mark.parametrize("nthreads", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_item_exactly_once(self, nthreads, seed):
        """No node dropped, none expanded twice — across thread counts
        and random shapes (this exercises the work.empty() hand-off
        branch: deep batches get shared when the queue runs dry)."""
        tree = make_random_tree(seed)
        seen: list[int] = []
        lock = threading.Lock()

        def expand(node):
            with lock:
                seen.append(node)
            return tree[node]

        stats = ParallelTreeWalker(nthreads=nthreads).walk([0], expand)
        assert sorted(seen) == sorted(tree)  # exactly once each
        assert stats.items_processed == len(tree)
        assert stats.items_errored == 0

    def test_batch_handoff_shares_work(self):
        """Deterministic proof the work.empty() hand-off branch runs:
        the root expands to [sibling, blocker]; the worker pops
        "blocker" and its expansion waits for "sibling" to be
        processed. Without the hand-off, "sibling" would stay in the
        blocked worker's local batch forever (deadlock); with it, the
        remainder is shared and another worker completes it."""
        sibling_done = threading.Event()
        who: dict[str, str] = {}

        def expand(item):
            who[item] = threading.current_thread().name
            if item == "root":
                return ["sibling", "blocker"]
            if item == "blocker":
                assert sibling_done.wait(timeout=30), (
                    "hand-off branch never shared the batch"
                )
            if item == "sibling":
                sibling_done.set()
            return []

        stats = ParallelTreeWalker(nthreads=2).walk(["root"], expand)
        assert stats.items_processed == 3
        # the shared item ran on a different thread than the blocker
        assert who["sibling"] != who["blocker"]

    def test_sentinel_shutdown_no_stragglers(self):
        """Worker threads exit after the walk; nothing daemonic left
        running from this walker."""
        before = {t.name for t in threading.enumerate()}
        ParallelTreeWalker(nthreads=4).walk([0], lambda n: [])
        after = {t.name for t in threading.enumerate()} - before
        assert not {n for n in after if n.startswith("walker-")}

    def test_yields_to_each_joined_worker(self, monkeypatch):
        """join() returns before the worker's OS thread has exited; the
        walk hands each joined worker the CPU once so it does not
        outlive the call (a per-thread CPU reading taken right after a
        walk would otherwise see the dead worker in some samples)."""
        from repro.scan import walker

        before = set(threading.enumerate())
        alive_at_yield: list[int] = []

        def fake_yield():
            alive_at_yield.append(len(set(threading.enumerate()) - before))

        monkeypatch.setattr(walker, "_yield_cpu", fake_yield)
        ParallelTreeWalker(nthreads=3).walk([0], lambda n: [])
        # once per worker, each time after that worker was joined
        assert len(alive_at_yield) == 3
        assert all(n <= 2 - i for i, n in enumerate(alive_at_yield))

    def test_reusable_across_walks(self):
        w = ParallelTreeWalker(nthreads=2)
        tree = make_random_tree(3, n_nodes=50)
        s1 = w.walk([0], lambda n: tree[n])
        s2 = w.walk([0], lambda n: tree[n])
        assert s1.items_processed == s2.items_processed == 50


class TestErrorPaths:
    def test_error_accounting_consistent(self):
        """items_errored + items_processed == total handled; per-thread
        counts sum to the same; effective_concurrency stays in (0, 1]."""
        tree = make_random_tree(5, n_nodes=120)
        bad = set(range(0, 120, 7)) - {0}

        def expand(node):
            if node in bad:
                raise ValueError(f"bad node {node}")
            return tree[node]

        stats = ParallelTreeWalker(nthreads=2).walk([0], expand)
        assert stats.items_errored == len(stats.errors)
        # errored nodes never expand, so their subtrees are pruned —
        # processed + errored equals nodes actually reached
        reached = stats.items_processed + stats.items_errored
        assert sum(stats.items_per_thread.values()) == reached
        assert {n for n, _ in stats.errors} <= bad
        assert all(isinstance(e, ValueError) for _, e in stats.errors)
        assert 0.0 < stats.effective_concurrency <= 1.0
        assert len(stats.thread_completion_times) == 2

    def test_collect_errors_false_reraises(self):
        def expand(node):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ParallelTreeWalker(nthreads=1).walk(
                [0], expand, collect_errors=False
            )


class TestRetry:
    def test_transient_fault_retried_to_success(self):
        """An injected I/O error that heals within the retry budget is
        invisible in errors; the retry counter and the recorded sleeps
        show the backoff path ran (no real sleeping: sleep is
        recorded, not performed)."""
        sleeps: list[float] = []
        policy = RetryPolicy(retries=3, backoff=0.01, sleep=sleeps.append)
        plan = FaultPlan.flaky_paths("walker.expand", ["0"], times=2)

        stats = ParallelTreeWalker(nthreads=1).walk(
            ["0"], lambda n: [], retry=policy, faults=plan
        )
        assert stats.items_processed == 1
        assert stats.items_errored == 0
        assert stats.items_retried == 2
        assert sleeps == [policy.delay(0), policy.delay(1)]

    def test_retries_exhausted_records_error(self):
        policy = RetryPolicy(retries=1, sleep=lambda s: None)
        plan = FaultPlan.flaky_paths("walker.expand", ["0"], times=5)
        stats = ParallelTreeWalker(nthreads=1).walk(
            ["0"], lambda n: [], retry=policy, faults=plan
        )
        assert stats.items_processed == 0
        assert stats.items_errored == 1
        assert stats.items_retried == 1
        assert isinstance(stats.errors[0][1], InjectedFault)

    def test_non_transient_not_retried(self):
        policy = RetryPolicy(retries=5, sleep=lambda s: None)

        def expand(node):
            raise ValueError("permanent")

        stats = ParallelTreeWalker(nthreads=1).walk([0], expand, retry=policy)
        assert stats.items_retried == 0
        assert stats.items_errored == 1

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff=0.1, multiplier=10.0, max_backoff=0.25)
        assert policy.delay(0) == 0.1
        assert policy.delay(5) == 0.25

    def test_virtual_clock_backoff(self):
        """Backoff charged to a virtual clock: deterministic elapsed
        time, zero wall-clock sleeping."""
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        policy = RetryPolicy(retries=2, backoff=0.5, sleep=clock.charge)
        plan = FaultPlan.flaky_paths("walker.expand", ["0"], times=2)
        ParallelTreeWalker(nthreads=1).walk(
            ["0"], lambda n: [], retry=policy, faults=plan
        )
        assert clock.now == pytest.approx(policy.delay(0) + policy.delay(1))


class TestFatalAbort:
    @pytest.mark.parametrize("nthreads", [1, 4])
    def test_fatal_aborts_and_propagates(self, nthreads):
        tree = make_random_tree(9, n_nodes=200)
        plan = FaultPlan.crash_at("walker.expand", 60)
        with pytest.raises(BuildCrash):
            ParallelTreeWalker(nthreads=nthreads).walk(
                [0], lambda n: tree[n], faults=plan
            )
        # the crash stopped the walk early: nowhere near all 200
        # expansions happened after the fault fired
        assert plan.count("walker.expand") < 200

    def test_fatal_not_retried(self):
        calls = []
        policy = RetryPolicy(retries=5, retry_on=(Exception,), sleep=lambda s: None)

        def expand(node):
            calls.append(node)
            raise FatalWalkError("dead")

        with pytest.raises(FatalWalkError):
            ParallelTreeWalker(nthreads=1).walk([0], expand, retry=policy)
        assert len(calls) == 1

    def test_pool_shuts_down_cleanly_after_fatal(self):
        """After an abort the sentinel shutdown still runs: no walker
        threads survive, and the walker can be reused."""
        w = ParallelTreeWalker(nthreads=4)
        with pytest.raises(BuildCrash):
            w.walk([0], lambda n: [0], faults=FaultPlan.crash_at("walker.expand", 5))
        assert not [
            t for t in threading.enumerate() if t.name.startswith("walker-")
        ]
        stats = w.walk([0], lambda n: [])
        assert stats.items_processed == 1

    @pytest.mark.parametrize("nthreads", [1, 4])
    def test_base_exception_from_expand_is_fatal(self, nthreads):
        """``SystemExit`` (any non-``Exception``) from ``expand`` once
        killed the worker: with one thread nobody drained the queue and
        ``walk`` never returned. It aborts the walk and is re-raised on
        the caller, like a :class:`FatalWalkError`."""
        tree = make_random_tree(9, n_nodes=200)
        calls = []
        policy = RetryPolicy(
            retries=5, retry_on=(BaseException,), sleep=lambda s: None
        )

        def expand(node):
            calls.append(node)
            if len(calls) == 20:
                raise SystemExit(3)
            return tree[node]

        raised = []

        def run():
            try:
                ParallelTreeWalker(nthreads=nthreads).walk(
                    [0], expand, retry=policy
                )
            except BaseException as exc:  # noqa: BLE001 - what walk raised
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=20)
        assert not caller.is_alive(), "walk() hung on a dead worker"
        assert [type(e) for e in raised] == [SystemExit] and raised[0].code == 3
        assert len(calls) < 200  # aborted, and never retried
        assert not [
            t for t in threading.enumerate() if t.name.startswith("walker-")
        ]
