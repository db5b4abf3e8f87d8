"""Result sinks: the pluggable layer-3 of the query engine, and the
server's bounded/paginated responses built on it."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.engine import (
    BoundedSink,
    MemorySink,
    PageSink,
    PaginatedSink,
    QueryEngine,
    ThreadFileSink,
)
from repro.core.query import Q1_LIST_PATHS
from repro.core.server import GUFIServer, IdentityProvider
from repro.core.tools import FindFilters

from .conftest import NTHREADS

SPEC = Q1_LIST_PATHS


@pytest.fixture
def engine(demo_index):
    with QueryEngine(demo_index, nthreads=NTHREADS) as q:
        yield q


def _all_rows(engine):
    return sorted(engine.run(SPEC).rows)


class TestMemorySink:
    def test_explicit_memory_sink_matches_default(self, engine):
        default = engine.run(SPEC)
        explicit = engine.run(SPEC, sink=MemorySink())
        assert sorted(default.rows) == sorted(explicit.rows)
        assert not explicit.truncated

    def test_sink_instance_is_single_use(self, engine):
        sink = MemorySink()
        engine.run(SPEC, sink=sink)
        with pytest.raises(RuntimeError, match="one run"):
            engine.run(SPEC, sink=sink)

    def test_single_use_applies_to_run_single(self, engine):
        sink = MemorySink()
        engine.run_single(SPEC, "/home/bob", sink=sink)
        with pytest.raises(RuntimeError, match="one run"):
            engine.run_single(SPEC, "/home/bob", sink=sink)


class TestThreadFileSink:
    def _lines(self, result):
        lines = []
        for path in result.output_files or []:
            with open(path) as fh:
                lines.extend(ln.rstrip("\n") for ln in fh)
        return sorted(lines)

    def test_streams_every_row(self, engine, tmp_path):
        expected = ["\t".join(str(v) for v in r) for r in _all_rows(engine)]
        result = engine.run(SPEC, sink=ThreadFileSink(str(tmp_path / "o")))
        assert self._lines(result) == sorted(expected)

    def test_run_single_streams(self, engine, tmp_path):
        result = engine.run_single(
            SPEC, "/home/bob", sink=ThreadFileSink(str(tmp_path / "s"))
        )
        assert result.rows == []
        assert result.output_files is not None
        assert self._lines(result)


class TestSharedUnderContention:
    """Memory and file sinks share one list / one file table between
    walker threads: with more threads than cores and a switch every
    microsecond, no batch is lost or duplicated and file numbers stay
    contiguous."""

    def test_no_batch_lost(self, dataset2_index, tmp_path):
        index = dataset2_index.index
        with QueryEngine(index, nthreads=1) as q:
            want = sorted(q.run(SPEC).rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryEngine(index, nthreads=8) as q:
                memory = q.run(SPEC)
                files = q.run(SPEC, sink=ThreadFileSink(str(tmp_path / "o")))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(memory.rows) == want
        n = len(files.output_files)
        assert files.output_files == [f"{tmp_path / 'o'}.{i}" for i in range(n)]
        lines = sorted(
            ln
            for p in files.output_files
            for ln in Path(p).read_text().splitlines()
        )
        assert lines == sorted("\t".join(map(str, r)) for r in want)


class TestBoundedSink:
    def test_caps_rows_and_counts_dropped(self, engine):
        total = len(_all_rows(engine))
        assert total > 3
        sink = BoundedSink(3)
        result = engine.run(SPEC, sink=sink)
        assert len(result.rows) == 3
        assert result.truncated
        assert sink.dropped == total - 3

    def test_under_cap_is_not_truncated(self, engine):
        total = len(_all_rows(engine))
        result = engine.run(SPEC, sink=BoundedSink(total + 10))
        assert len(result.rows) == total
        assert not result.truncated

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            BoundedSink(-1)

    def test_kept_rows_are_real_rows(self, engine):
        all_rows = set(_all_rows(engine))
        result = engine.run(SPEC, sink=BoundedSink(4))
        assert all(r in all_rows for r in result.rows)


class TestPaginatedSink:
    def test_pages_partition_the_rows(self, engine):
        sink = PaginatedSink(page_size=4)
        result = engine.run(SPEC, sink=sink)
        assert not result.truncated
        paged = []
        for n in range(sink.num_pages):
            page = sink.page(n)
            assert 0 < len(page) <= 4
            paged.extend(page)
        assert paged == result.rows
        assert sink.page(sink.num_pages) == []

    def test_exact_max_rows_cap(self, engine):
        sink = PaginatedSink(page_size=4, max_rows=5)
        result = engine.run(SPEC, sink=sink)
        assert len(result.rows) == 5
        assert result.truncated
        assert len(sink.page(1)) == 1  # short last page

    def test_rejects_bad_page_args(self):
        with pytest.raises(ValueError):
            PaginatedSink(0)
        sink = PaginatedSink(2)
        with pytest.raises(ValueError):
            sink.page(-1)


class TestPageSink:
    """A PaginatedSink that holds a batch it can keep whole as the list
    it came in: a replay's page is a slice of the entry."""

    def test_first_batch_is_kept_without_a_copy(self):
        rows = [(i,) for i in range(5)]
        sink = PageSink(page_size=2)
        sink.emit(None, rows)
        summary = sink.finish()
        assert summary.rows is rows and not summary.truncated
        assert [sink.page(n) for n in range(sink.num_pages)] == [
            [(0,), (1,)], [(2,), (3,)], [(4,)],
        ]

    def test_a_later_batch_never_writes_to_the_first(self):
        first, final = [(1,), (2,)], [(3,)]
        sink = PageSink(page_size=2)
        sink.emit(None, first)
        sink.emit_final(final)
        assert first == [(1,), (2,)]
        assert sink.finish().rows == [(1,), (2,), (3,)]

    def test_cap_copies_what_fits(self):
        rows = [(i,) for i in range(5)]
        sink = PageSink(page_size=2, max_rows=3)
        sink.emit(None, rows)
        summary = sink.finish()
        assert summary.rows == rows[:3] and summary.truncated
        assert rows == [(i,) for i in range(5)]

    def test_matches_paginated_sink_on_a_walk(self, engine):
        paged, plain = PageSink(page_size=3), PaginatedSink(page_size=3)
        a = engine.run(SPEC, sink=paged)
        b = engine.run(SPEC, sink=plain)
        assert sorted(a.rows) == sorted(b.rows)
        assert paged.num_pages == plain.num_pages


class TestFacadeSinkPassthrough:
    def test_facade_accepts_sinks(self, demo_index):
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            bounded = q.run(SPEC, sink=BoundedSink(2))
            assert len(bounded.rows) == 2
            assert bounded.truncated


# ----------------------------------------------------------------------
# Bounded server responses
# ----------------------------------------------------------------------


def _server(demo_index, **kwargs) -> GUFIServer:
    idp = IdentityProvider()
    idp.add_user("root", uid=0, gid=0)
    idp.add_user("alice", uid=1001, gid=1001)
    return GUFIServer(demo_index, idp, nthreads=NTHREADS, **kwargs)


class TestServerRowCap:
    def test_default_cap_leaves_small_results_alone(self, demo_index):
        with _server(demo_index) as server:
            result = server.invoke("root", "query", "/", spec=SPEC)
            assert not result.truncated
            assert result.rows
            assert server.max_rows == GUFIServer.DEFAULT_MAX_ROWS

    def test_cap_truncates_and_audits(self, demo_index):
        with _server(demo_index, max_rows=2) as server:
            with obs.enabled(metrics=True):
                result = server.invoke("root", "query", "/", spec=SPEC)
                assert result.truncated
                assert len(result.rows) == 2
                snap = obs.metrics().snapshot()
            entry = server.audit_log[-1]
            assert entry.tool == "query" and entry.truncated
        assert (
            snap.counter("gufi_server_rows_truncated_total", tool="query")
            == 1.0
        )

    def test_find_is_capped_too(self, demo_index):
        with _server(demo_index, max_rows=1) as server:
            result = server.invoke(
                "root", "find", "/", filters=FindFilters(ftype="f")
            )
            assert result.truncated
            assert len(result.rows) == 1
            assert server.audit_log[-1].truncated

    def test_untruncated_invocations_audit_false(self, demo_index):
        with _server(demo_index, max_rows=2) as server:
            server.invoke("root", "du", "/")
            assert not server.audit_log[-1].truncated

    def test_cap_disabled_with_nonpositive(self, demo_index):
        with _server(demo_index, max_rows=0) as server:
            assert server.max_rows is None
            result = server.invoke("root", "query", "/", spec=SPEC)
            assert not result.truncated

    def test_unprivileged_caller_capped(self, demo_index):
        with _server(demo_index, max_rows=1) as server:
            result = server.invoke("alice", "query", "/", spec=SPEC)
            assert len(result.rows) == 1
            assert result.truncated

    def test_portal_search_is_capped(self, demo_index):
        with _server(demo_index, max_rows=1) as server:
            result = server.invoke("root", "search", query="type:f")
            assert result.truncated
            assert len(result.rows) == 1
