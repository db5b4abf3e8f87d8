"""The observability subsystem: registry, tracer, slow log, exporters,
and their integration with the walker / query engine / build path.

Every test that enables observability does so through the scoped
``obs.enabled()`` context manager, so the process-wide state other
tests see is always the default null implementations.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine, ResultCache
from repro.core.query import Q1_LIST_NAMES, QuerySpec
from repro.core.tools import FindFilters, GUFITools
from repro.obs.export import (
    render_metrics,
    render_slow_log,
    spans_to_jsonl,
    to_prometheus,
    write_trace_jsonl,
)
from repro.obs.registry import MetricsRegistry, MetricsSnapshot, NullRecorder
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import NullTracer, Tracer
from repro.scan.walker import ParallelTreeWalker, RetryPolicy

from tests.conftest import NTHREADS


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("c_total")
        reg.counter("c_total", 2.5)
        reg.counter("c_total", 1, stage="E")
        snap = reg.snapshot()
        assert snap.counter("c_total") == 3.5
        assert snap.counter("c_total", stage="E") == 1.0
        assert snap.counter_total("c_total") == 4.5
        assert snap.counter("never_recorded") == 0.0

    def test_label_values_keep_their_series(self):
        """Series keys are remembered per name and label items: a
        value that is a dict key equal to another (``1``, ``1.0``,
        ``True``) still gets its own series, and the order the labels
        come in does not matter."""
        reg = MetricsRegistry()
        for value in (1, 1.0, True, "1", 1, "1"):
            reg.counter("v_total", 1, v=value)
        reg.observe("h_seconds", 0.1, a="x", b="y")
        reg.observe("h_seconds", 0.2, b="y", a="x")
        snap = reg.snapshot()
        assert snap.counter("v_total", v="1") == 4.0
        assert snap.counter("v_total", v="1.0") == 1.0
        assert snap.counter("v_total", v="True") == 1.0
        assert snap.histogram("h_seconds", a="x", b="y").count == 2

    def test_zero_value_creates_series(self):
        reg = MetricsRegistry()
        reg.counter("zeroed_total", 0.0)
        snap = reg.snapshot()
        assert ("zeroed_total", ()) in snap.counters
        assert "zeroed_total" in snap.names()

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g", 7)
        reg.gauge("g", 9)  # last write wins
        assert reg.snapshot().gauge("g") == 9.0
        assert reg.snapshot().gauge("missing") is None

    def test_histogram(self):
        reg = MetricsRegistry()
        for v in (0.0001, 0.003, 0.003, 0.2, 99.0):
            reg.observe("h_seconds", v)
        h = reg.snapshot().histogram("h_seconds")
        assert h.count == 5
        assert h.sum == pytest.approx(0.0001 + 0.003 + 0.003 + 0.2 + 99.0)
        assert h.counts[-1] == 1  # 99s lands in +Inf
        assert 0 < h.quantile(0.5) <= 0.005
        assert h.mean == pytest.approx(h.sum / 5)

    def test_multithreaded_increments_merge(self):
        reg = MetricsRegistry()
        per_thread, nthreads = 5000, 8

        def work():
            for _ in range(per_thread):
                reg.counter("mt_total")
                reg.observe("mt_seconds", 0.001)

        threads = [threading.Thread(target=work) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap.counter("mt_total") == per_thread * nthreads
        assert snap.histogram("mt_seconds").count == per_thread * nthreads

    def test_reset_keeps_shards_usable(self):
        reg = MetricsRegistry()
        reg.counter("r_total", 3)
        reg.reset()
        assert reg.snapshot().counter("r_total") == 0.0
        reg.counter("r_total")  # same thread records into its old shard
        assert reg.snapshot().counter("r_total") == 1.0

    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        assert not rec.enabled
        rec.counter("x")
        rec.observe("y", 1.0)
        rec.gauge("z", 1.0)
        snap = rec.snapshot()
        assert not snap.counters and not snap.histograms and not snap.gauges


# ----------------------------------------------------------------------
# Cross-process snapshot serialization + merge (scatter-gather path)
# ----------------------------------------------------------------------

class TestSnapshotSerialization:
    @staticmethod
    def _populated_registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("sc_total", 3)
        reg.counter("sc_total", 2, stage="E")
        reg.gauge("sc_gauge", 42, kind="x")
        for v in (0.0001, 0.003, 0.2, 99.0):
            reg.observe("sc_seconds", v)
        return reg

    def test_to_dict_from_dict_round_trip(self):
        snap = self._populated_registry().snapshot()
        data = snap.to_dict()
        # The wire form must be plain data (picklable AND json-able).
        restored = MetricsSnapshot.from_dict(json.loads(json.dumps(data)))
        assert restored.counters == snap.counters
        assert restored.gauges == snap.gauges
        assert set(restored.histograms) == set(snap.histograms)
        for key, h in snap.histograms.items():
            r = restored.histograms[key]
            assert (r.bounds, r.counts, r.count) == (h.bounds, h.counts, h.count)
            assert r.sum == pytest.approx(h.sum)

    def test_merge_snapshot_no_drift(self):
        # A worker's snapshot folded into an empty parent registry must
        # reproduce the worker's numbers exactly.
        worker = self._populated_registry().snapshot()
        parent = MetricsRegistry()
        parent.merge_snapshot(MetricsSnapshot.from_dict(worker.to_dict()))
        merged = parent.snapshot()
        assert merged.counters == worker.counters
        assert merged.gauges == worker.gauges
        for key, h in worker.histograms.items():
            m = merged.histograms[key]
            assert (m.bounds, m.counts, m.count) == (h.bounds, h.counts, h.count)
            assert m.sum == pytest.approx(h.sum)

    def test_merge_snapshot_adds_to_existing_series(self):
        parent = self._populated_registry()
        worker = self._populated_registry().snapshot()
        parent.merge_snapshot(worker)
        merged = parent.snapshot()
        assert merged.counter("sc_total") == 6.0
        assert merged.counter("sc_total", stage="E") == 4.0
        h = merged.histogram("sc_seconds")
        assert h.count == 8
        assert h.sum == pytest.approx(2 * worker.histogram("sc_seconds").sum)
        assert h.counts == tuple(
            2 * c for c in worker.histogram("sc_seconds").counts
        )
        # Gauges are last-write-wins, not additive.
        assert merged.gauge("sc_gauge", kind="x") == 42.0

    def test_merge_many_workers_matches_sum(self):
        parent = MetricsRegistry()
        for _ in range(5):
            parent.merge_snapshot(self._populated_registry().snapshot())
        merged = parent.snapshot()
        assert merged.counter_total("sc_total") == 5 * 5.0
        assert merged.histogram("sc_seconds").count == 5 * 4

    def test_histogram_rebucket_on_bound_mismatch(self):
        # A worker built with custom buckets still folds: sum/count stay
        # exact, counts are re-attributed by bucket upper bound.
        worker = MetricsRegistry()
        worker.observe("rb_seconds", 0.0004, buckets=(0.002, 2.0))
        worker.observe("rb_seconds", 1.5, buckets=(0.002, 2.0))
        worker.observe("rb_seconds", 500.0, buckets=(0.002, 2.0))
        parent = MetricsRegistry()
        parent.observe("rb_seconds", 0.01)  # default buckets
        parent.merge_snapshot(worker.snapshot())
        h = parent.snapshot().histogram("rb_seconds")
        assert h.count == 4
        assert h.sum == pytest.approx(0.0004 + 1.5 + 500.0 + 0.01)
        # 0.002-bucket lands at the default 0.0025 bound; 2.0 at 2.5;
        # the worker's +Inf count stays in +Inf.
        bounds = list(h.bounds)
        assert h.counts[bounds.index(0.0025)] == 1
        assert h.counts[bounds.index(2.5)] == 1
        assert h.counts[-1] == 1

    def test_null_recorder_merge_is_noop(self):
        rec = NullRecorder()
        rec.merge_snapshot(self._populated_registry().snapshot())
        snap = rec.snapshot()
        assert not snap.counters and not snap.histograms and not snap.gauges


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", a=1):
            with tr.span("inner"):
                pass
        spans = tr.spans()
        outer = next(s for s in spans if s.name == "outer")
        inner = next(s for s in spans if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert outer.attrs == {"a": 1}
        assert outer.duration >= inner.duration >= 0

    def test_end_attrs_and_out_of_order_end(self):
        tr = Tracer()
        a = tr.start("a")
        b = tr.start("b")
        tr.end(a, rows=3)  # ends before its child: stack must recover
        tr.end(b)
        spans = {s.name: s for s in tr.spans()}
        assert spans["a"].attrs == {"rows": 3}
        assert tr.current_context() is None

    def test_cross_thread_adoption(self):
        tr = Tracer()
        seen = []
        with tr.span("parent"):
            ctx = tr.current_context()

            def worker():
                tr.adopt(ctx)
                with tr.span("child"):
                    pass
                seen.append(True)

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen
        spans = {s.name: s for s in tr.spans()}
        assert spans["child"].parent_id == spans["parent"].span_id
        assert spans["child"].trace_id == spans["parent"].trace_id

    def test_ring_bound_and_dropped(self):
        tr = Tracer(capacity=10)
        for i in range(25):
            with tr.span(f"s{i}"):
                pass
        assert len(tr.spans()) == 10
        assert tr.emitted == 25
        assert tr.dropped == 15
        # newest survive
        assert {s.name for s in tr.spans()} == {f"s{i}" for i in range(15, 25)}

    def test_walker_propagates_context_into_workers(self):
        with obs.enabled(metrics=False, tracing=True):
            tr = obs.tracer()
            with tr.span("caller"):
                ParallelTreeWalker(nthreads=NTHREADS).walk(
                    ["a", "b", "c"],
                    lambda item: ["a1"] if item == "a" else [],
                )
            spans = {s.name: s for s in tr.spans()}
        caller = spans["caller"]
        walk = spans["walker.walk"]
        assert walk.parent_id == caller.span_id
        assert walk.trace_id == caller.trace_id
        assert walk.attrs["items"] == 4

    def test_null_tracer(self):
        tr = NullTracer()
        assert not tr.enabled
        with tr.span("x") as s:
            assert s is None
        assert tr.spans() == []
        assert tr.current_context() is None


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------

class TestSlowLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert log.enabled
        assert not log.record(0.005, kind="query.run", detail="fast")
        assert log.record(0.050, kind="query.run", detail="slow", user="a")
        assert len(log) == 1
        (entry,) = log.entries()
        assert entry.elapsed == 0.050 and entry.user == "a"

    def test_disabled_log(self):
        log = SlowQueryLog(threshold_ms=None)
        assert not log.enabled
        assert not log.record(100.0, kind="query.run", detail="x")
        assert len(log) == 0

    def test_cap_bounds_entries(self):
        log = SlowQueryLog(threshold_ms=0.0, cap=5)
        for i in range(12):
            log.record(float(i + 1), kind="k", detail=f"d{i}")
        assert len(log) == 5
        assert log.entries()[0].detail == "d7"

    def test_recording_bumps_counter(self):
        with obs.enabled(metrics=True, slow_query_ms=0.0):
            obs.slow_log().record(1.0, kind="query.run", detail="x")
            snap = obs.snapshot()
            assert snap.counter(
                "gufi_slow_queries_total", kind="query.run"
            ) == 1.0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestExporters:
    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("gufi_x_total", 3, tool="du")
        reg.gauge("gufi_g", 1.5)
        reg.observe("gufi_h_seconds", 0.003)
        text = to_prometheus(reg.snapshot())
        assert 'gufi_x_total{tool="du"} 3\n' in text
        assert "gufi_g 1.5\n" in text
        assert 'gufi_h_seconds_bucket{le="0.005"} 1' in text
        assert 'gufi_h_seconds_bucket{le="+Inf"} 1' in text
        assert "gufi_h_seconds_count 1" in text
        assert "gufi_h_seconds_sum 0.003" in text

    def test_render_metrics_table(self):
        reg = MetricsRegistry()
        reg.counter("gufi_x_total", 2)
        reg.observe("gufi_h_seconds", 0.01)
        out = render_metrics(reg.snapshot())
        assert "counters:" in out and "histograms:" in out
        assert "gufi_x_total" in out and "p99=" in out
        empty = render_metrics(NullRecorder().snapshot())
        assert "(no metrics recorded)" in empty

    def test_trace_jsonl(self, tmp_path):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner", stage="E"):
                pass
        text = spans_to_jsonl(tr.spans())
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == 2
        assert {rec["name"] for rec in lines} == {"outer", "inner"}
        inner = next(r for r in lines if r["name"] == "inner")
        assert inner["attrs"] == {"stage": "E"}
        out = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(out, tr.spans()) == 2
        assert out.read_text().count("\n") == 2

    def test_render_slow_log(self):
        log = SlowQueryLog(threshold_ms=1.0)
        log.record(0.5, kind="query.run", detail="E=SELECT 1", user="bob")
        out = render_slow_log(log)
        assert "500.00ms" in out and "user=bob" in out
        assert "(none)" in render_slow_log(SlowQueryLog(threshold_ms=1.0))


# ----------------------------------------------------------------------
# Integration: instrumented subsystems
# ----------------------------------------------------------------------

class TestIntegration:
    def test_disabled_by_default(self, demo_index):
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            result = q.run(Q1_LIST_NAMES)
        assert result.stage_seconds is None
        assert not obs.metrics().enabled

    def test_query_counters_match_result(self, demo_tree, tmp_path):
        with obs.enabled(metrics=True):
            build = dir2index(
                demo_tree, tmp_path / "idx",
                opts=BuildOptions(nthreads=NTHREADS),
            )
            with QueryEngine(build.index, nthreads=NTHREADS) as q:
                result = q.run(Q1_LIST_NAMES)
            snap = obs.snapshot()
        assert snap.counter("gufi_build_dirs_total") == build.dirs_created
        assert snap.counter("gufi_build_entries_total") == build.entries_inserted
        assert (
            snap.counter("gufi_query_dirs_visited_total")
            == result.dirs_visited
        )
        assert snap.counter("gufi_query_dbs_opened_total") == result.dbs_opened
        assert snap.counter("gufi_query_rows_total") == len(result.rows)
        assert snap.counter("gufi_query_runs_total", kind="query.run") == 1.0
        assert result.stage_seconds is not None
        assert result.stage_seconds["E"] > 0
        assert snap.counter(
            "gufi_query_stage_seconds_total", stage="E"
        ) == pytest.approx(result.stage_seconds["E"])
        h = snap.histogram("gufi_query_seconds", kind="query.run")
        assert h is not None and h.count == 1

    def test_plan_prune_and_elide_counters(self, demo_index):
        tools = GUFITools(demo_index, nthreads=NTHREADS)
        filters = FindFilters(min_size=10**9)
        tools.find("/", filters)  # warm the cache (elision needs it)
        with obs.enabled(metrics=True):
            result = tools.find("/", filters)
            snap = obs.snapshot()
        assert result.dirs_pruned_by_plan > 0
        assert result.attaches_elided > 0
        assert (
            snap.counter("gufi_query_dirs_pruned_total")
            == result.dirs_pruned_by_plan
        )
        assert (
            snap.counter("gufi_query_attaches_elided_total")
            == result.attaches_elided
        )
        # warm run: the meta cache answered, and the deltas were folded
        assert snap.counter("gufi_session_cache_hits_total", kind="meta") > 0

    def test_tsummary_dbs_opened_counter(self, demo_index):
        from repro.core.tsummary import build_tsummary

        with obs.enabled(metrics=True):
            cold = build_tsummary(demo_index, "/")
            warm = build_tsummary(demo_index, "/")
            snap = obs.snapshot()
        assert (cold.dbs_opened, warm.dbs_opened) == (cold.dirs_scanned, 1)
        assert (
            snap.counter("gufi_tsummary_dbs_opened_total")
            == cold.dbs_opened + warm.dbs_opened
        )

    def test_existing_counter_fields_unchanged_by_obs(self, demo_index):
        """The public QueryResult fields must read the same whether the
        registry backs them or not."""
        spec = QuerySpec(E="SELECT name FROM pentries")
        with QueryEngine(demo_index, nthreads=NTHREADS) as q:
            off = q.run(spec)
            with obs.enabled(metrics=True, tracing=True, slow_query_ms=0.0):
                on = q.run(spec)
        assert sorted(on.rows) == sorted(off.rows)
        assert on.dirs_visited == off.dirs_visited
        assert on.dirs_denied == off.dirs_denied
        assert on.dirs_errored == off.dirs_errored
        assert on.dirs_pruned_by_plan == off.dirs_pruned_by_plan
        assert on.attaches_elided == off.attaches_elided

    def test_replay_folds_no_walk(self, demo_index, monkeypatch):
        """A result-cache hit folds a run, its seconds and its rows —
        and nothing of the captured walk, nor a DirMeta-cache delta —
        while its QueryResult still carries the captured counters."""
        spec = QuerySpec(E="SELECT name FROM pentries")
        cache = ResultCache()
        with QueryEngine(demo_index, nthreads=NTHREADS, result_cache=cache) as q:
            miss = q.run(spec)
            with obs.enabled(metrics=True):
                before = obs.snapshot()
                monkeypatch.setattr(
                    demo_index.cache, "stats",
                    lambda: pytest.fail("a replay read the DirMeta cache"),
                )
                hit = q.run(spec)
                after = obs.snapshot()
        assert hit.cached and hit.dbs_opened == miss.dbs_opened > 0

        def delta(name, **labels):
            return after.counter(name, **labels) - before.counter(name, **labels)

        assert delta("gufi_query_runs_total", kind="query.run") == 1.0
        assert delta("gufi_query_rows_total") == len(hit.rows)
        for name in (
            "gufi_query_dbs_opened_total",
            "gufi_query_dirs_visited_total",
            "gufi_query_attaches_elided_total",
        ):
            assert delta(name) == 0.0, name
        assert after.histogram("gufi_query_seconds", kind="query.run").count == 1

    def test_walker_retry_counter(self):
        flaky = {"left": 3}

        def expand(item):
            if flaky["left"]:
                flaky["left"] -= 1
                raise OSError("transient")
            return []

        with obs.enabled(metrics=True):
            stats = ParallelTreeWalker(NTHREADS).walk(
                ["root"], expand,
                retry=RetryPolicy(retries=3, sleep=lambda s: None),
            )
            snap = obs.snapshot()
        assert stats.items_retried == 3
        assert snap.counter("gufi_walker_retries_total") == 3.0
        assert snap.counter("gufi_walker_items_errored_total") == 0.0

    def test_query_spans_nest_across_threads(self, demo_index):
        with obs.enabled(metrics=False, tracing=True):
            with QueryEngine(demo_index, nthreads=NTHREADS) as q:
                q.run(Q1_LIST_NAMES)
            spans = obs.tracer().spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        run = by_name["query.run"][0]
        walk = next(
            s for s in by_name["walker.walk"] if s.parent_id == run.span_id
        )
        dirs = [s for s in by_name["query.dir"] if s.parent_id == walk.span_id]
        assert dirs, "per-directory spans must nest under the walk"
        assert all(s.trace_id == run.trace_id for s in dirs)
        sql = by_name["query.sql"]
        assert any(s.attrs.get("stage") == "E" for s in sql)
        # SQL spans nest under the directory being processed
        dir_ids = {s.span_id for s in by_name["query.dir"]}
        assert all(s.parent_id in dir_ids for s in sql)

    def test_slow_log_captures_query(self, demo_index):
        with obs.enabled(metrics=False, slow_query_ms=0.0):
            with QueryEngine(demo_index, nthreads=NTHREADS) as q:
                q.run(Q1_LIST_NAMES)
            entries = obs.slow_log().entries()
        assert entries
        assert entries[0].kind == "query.run"
        assert "pentries" in entries[0].detail

    def test_enable_disable_lifecycle(self):
        obs.disable()
        assert not obs.metrics().enabled
        with obs.enabled(metrics=True, tracing=True, slow_query_ms=5.0):
            assert obs.metrics().enabled
            assert obs.tracer().enabled
            assert obs.slow_log().enabled
            obs.metrics().counter("x_total")
            assert obs.snapshot().counter("x_total") == 1.0
            obs.reset()
            assert obs.snapshot().counter("x_total") == 0.0
        assert not obs.metrics().enabled
        assert not obs.tracer().enabled
        assert not obs.slow_log().enabled
