"""Result sinks: the pluggable layer-3 of the query engine, and the
server's bounded/paginated responses built on it."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.engine import (
    BoundedSink,
    MemorySink,
    PaginatedSink,
    QueryEngine,
    ThreadFileSink,
)
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.server import GUFIServer, IdentityProvider, QueryPortal
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

    def test_matches_output_prefix_shorthand(self, engine, tmp_path):
        via_spec = engine.run(
            QuerySpec(E=SPEC.E, output_prefix=str(tmp_path / "a"))
        )
        via_sink = engine.run(
            QuerySpec(E=SPEC.E), sink=ThreadFileSink(str(tmp_path / "b"))
        )
        assert via_spec.rows == via_sink.rows == []
        assert self._lines(via_spec) == self._lines(via_sink)
        assert via_sink.output_files
        assert all(p.startswith(str(tmp_path / "b.")) for p in via_sink.output_files)

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

    def test_max_pages_cap(self, engine):
        sink = PaginatedSink(page_size=2, max_pages=2)
        result = engine.run(SPEC, sink=sink)
        assert len(result.rows) == 4
        assert sink.num_pages == 2

    def test_rejects_bad_page_args(self):
        with pytest.raises(ValueError):
            PaginatedSink(0)
        sink = PaginatedSink(2)
        with pytest.raises(ValueError):
            sink.page(-1)


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
            portal = QueryPortal(server)
            result = portal.search("root", "type:f")
            assert result.truncated
            assert len(result.rows) == 1
