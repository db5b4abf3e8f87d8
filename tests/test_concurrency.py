"""Concurrency tests: simultaneous queries, query-during-admin-ops,
walker stress, and engine determinism under parallelism."""

from __future__ import annotations

import threading

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, Q3_DU_SUMMARIES
from repro.core.tsummary import build_tsummary
from repro.scan.walker import ParallelTreeWalker
from tests.conftest import ALICE, BOB, NTHREADS, build_demo_tree


@pytest.fixture
def idx(tmp_path):
    return dir2index(
        build_demo_tree(), tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


class TestConcurrentQueries:
    def test_many_simultaneous_readers(self, idx):
        """Several queries with different credentials run concurrently
        against the same index files; each must get its own exact
        answer (read-only opens never interfere)."""
        results = {}
        errors = []

        def worker(name, creds):
            try:
                q = QueryEngine(idx, creds=creds, nthreads=2)
                results[name] = sorted(q.run(Q1_LIST_PATHS).rows)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        expected = {
            name: sorted(
                QueryEngine(idx, creds=creds, nthreads=2).run(Q1_LIST_PATHS).rows
            )
            for name, creds in (("alice", ALICE), ("bob", BOB))
        }
        threads = [
            threading.Thread(target=worker, args=(name, creds))
            for name, creds in (("alice", ALICE), ("bob", BOB))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results["alice"] == expected["alice"]
        assert results["bob"] == expected["bob"]

    def test_query_repeatability(self, idx):
        """Parallel descent must not introduce nondeterminism in the
        result *set* (ordering may differ)."""
        q = QueryEngine(idx, nthreads=NTHREADS)
        first = sorted(q.run(Q1_LIST_PATHS).rows)
        for _ in range(5):
            assert sorted(q.run(Q1_LIST_PATHS).rows) == first

    def test_aggregation_repeatable(self, idx):
        q = QueryEngine(idx, nthreads=NTHREADS)
        totals = {q.run(Q3_DU_SUMMARIES).rows[-1][0] for _ in range(5)}
        assert len(totals) == 1

    def test_query_during_tsummary_build(self, idx):
        """bfti writes only the start directory's tsummary table;
        concurrent read-only queries must keep answering."""
        stop = threading.Event()
        errors = []

        def reader():
            q = QueryEngine(idx, nthreads=2)
            while not stop.is_set():
                try:
                    q.run(Q1_LIST_PATHS)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        t = threading.Thread(target=reader)
        t.start()
        try:
            for _ in range(3):
                build_tsummary(idx, "/")
        finally:
            stop.set()
            t.join()
        assert not errors


class TestWalkerStress:
    def test_deep_chain(self):
        """A 5000-deep chain must not recurse (the walker is iterative)."""
        def expand(n):
            return [n + 1] if n < 5000 else []

        stats = ParallelTreeWalker(2).walk([0], expand)
        assert stats.items_processed == 5001

    def test_wide_fanout(self):
        hits = []
        lock = threading.Lock()

        def expand(n):
            if n == 0:
                return list(range(1, 2001))
            with lock:
                hits.append(n)
            return []

        stats = ParallelTreeWalker(4).walk([0], expand)
        assert stats.items_processed == 2001
        assert len(hits) == 2000

    def test_walker_reusable(self):
        walker = ParallelTreeWalker(3)
        for _ in range(3):
            stats = walker.walk(range(50), lambda n: [])
            assert stats.items_processed == 50

    def test_exceptions_do_not_leak_items(self):
        def expand(n):
            if n % 7 == 0:
                raise RuntimeError("x")
            return []

        stats = ParallelTreeWalker(3).walk(range(100), expand)
        n_bad = len([n for n in range(100) if n % 7 == 0])
        assert stats.items_processed == 100 - n_bad
        assert stats.items_errored == n_bad
        assert sum(stats.items_per_thread.values()) == 100
        assert len(stats.errors) == n_bad
