"""Overhead budget for the observability subsystem (repro.obs).

The same selective warm query is timed against one warm session in
three modes, interleaved rep-by-rep so machine noise hits all modes
equally:

* **disabled** — the null recorder/tracer/log (the default);
* **metrics**  — counters + per-stage timings recording;
* **full**     — metrics + span tracing + slow-query log.

Acceptance targets (asserted here; smoke mode re-checks function, not
timing):

* **metrics** — the always-on production configuration — costs <= 5%
  over disabled (median of per-rep paired ratios: machine load drifts
  across a run, but adjacent timings share it, so pairing cancels the
  drift);
* **full** stays under a secondary ceiling (25%). Tracing is an
  on-demand diagnostic (``--trace-out``) that emits one span per
  directory, and this workload is its worst case by construction:
  the planned warm query elides nearly every attach, so a directory
  costs only a cache lookup and the span is measurable against it.
  Against any query that actually executes SQL per directory the span
  cost amortises into the noise;
* the disabled path is genuinely null: a no-op counter()/span() call
  costs well under a microsecond (measured directly).

Smoke mode also exercises every instrumented subsystem — build, query
(planned), rollup, walker retries, a server invocation — and prints
the Prometheus export so CI can grep for the core metric names.

Run standalone:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py
CI smoke mode:   PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke
Run via pytest:  pytest benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_helpers import NTHREADS, save_bench_report
from bench_query_plan import NOW, QUERY, build_namespace

from repro import obs
from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.search import parse

REPS = 15
NULL_CALLS = 200_000

#: acceptance target from the issue: the always-on metrics
#: configuration costs <= 5% on the hottest query path
OVERHEAD_TARGET_PCT = 5.0
#: ceiling for the on-demand full-tracing diagnostic mode, measured on
#: its worst-case workload (see module docstring)
TRACING_CEILING_PCT = 25.0
#: a "null" op that costs more than this is not a null op
NULL_NS_CEILING = 2_000.0


def _null_overhead_ns() -> dict:
    """Cost of the disabled-mode no-ops, in ns per call."""
    rec = obs.NULL_METRICS
    t0 = time.perf_counter()
    for _ in range(NULL_CALLS):
        rec.counter("gufi_bench_noop_total")
    counter_ns = (time.perf_counter() - t0) / NULL_CALLS * 1e9

    tr = obs.NULL_TRACER
    t0 = time.perf_counter()
    for _ in range(NULL_CALLS):
        with tr.span("bench.noop"):
            pass
    span_ns = (time.perf_counter() - t0) / NULL_CALLS * 1e9
    return {"null_counter_ns": counter_ns, "null_span_ns": span_ns}


def run_overhead_bench(index, reps: int = REPS) -> dict:
    parsed = parse(QUERY, now=NOW)
    spec = parsed.to_spec()
    plan = parsed.to_plan()

    q = QueryEngine(index, nthreads=NTHREADS)
    times: dict[str, list[float]] = {"disabled": [], "metrics": [], "full": []}
    try:
        q.run(spec, plan=plan)  # untimed warm-up: populates the caches
        for _ in range(reps):
            # interleaved so drift/noise is shared across modes
            t0 = time.monotonic()
            q.run(spec, plan=plan)
            times["disabled"].append(time.monotonic() - t0)

            with obs.enabled(metrics=True):
                t0 = time.monotonic()
                q.run(spec, plan=plan)
                times["metrics"].append(time.monotonic() - t0)

            with obs.enabled(metrics=True, tracing=True, slow_query_ms=1e9):
                t0 = time.monotonic()
                q.run(spec, plan=plan)
                times["full"].append(time.monotonic() - t0)
    finally:
        q.close()

    med = {mode: statistics.median(ts) for mode, ts in times.items()}
    lo = {mode: min(ts) for mode, ts in times.items()}
    # Overhead is the median of per-rep ratios against the disabled
    # run of the *same* rep: machine load in this sandbox drifts by
    # tens of percent across a run, but adjacent timings share it, so
    # pairing cancels the drift and the median votes out the spikes.
    over_m = statistics.median(
        m / d for d, m in zip(times["disabled"], times["metrics"])
    )
    over_f = statistics.median(
        f / d for d, f in zip(times["disabled"], times["full"])
    )
    report = {
        "query": QUERY,
        "nthreads": NTHREADS,
        "reps": reps,
        "disabled_median_s": med["disabled"],
        "metrics_median_s": med["metrics"],
        "full_median_s": med["full"],
        "disabled_min_s": lo["disabled"],
        "metrics_min_s": lo["metrics"],
        "full_min_s": lo["full"],
        "metrics_overhead_pct": (over_m - 1.0) * 100.0,
        "full_overhead_pct": (over_f - 1.0) * 100.0,
    }
    report.update(_null_overhead_ns())
    return report


def check_targets(report: dict, smoke: bool = False) -> None:
    assert report["null_counter_ns"] < NULL_NS_CEILING, (
        f"disabled counter() costs {report['null_counter_ns']:.0f}ns/call — "
        "the null path is not null"
    )
    assert report["null_span_ns"] < NULL_NS_CEILING, (
        f"disabled span() costs {report['null_span_ns']:.0f}ns/call — "
        "the null path is not null"
    )
    if smoke:
        # CI's tiny namespace makes percentages pure noise; the
        # functional checks in run_smoke are the gate there.
        return
    assert report["metrics_overhead_pct"] <= OVERHEAD_TARGET_PCT, (
        f"metrics recording costs {report['metrics_overhead_pct']:.1f}% "
        f"(target <= {OVERHEAD_TARGET_PCT}%): "
        f"{report['metrics_min_s'] * 1e3:.2f}ms vs "
        f"{report['disabled_min_s'] * 1e3:.2f}ms"
    )
    assert report["full_overhead_pct"] <= TRACING_CEILING_PCT, (
        f"full tracing costs {report['full_overhead_pct']:.1f}% on its "
        f"worst-case workload (ceiling {TRACING_CEILING_PCT}%)"
    )


def save_report(report: dict) -> Path:
    return save_bench_report("obs_overhead", report)


def _print(report: dict) -> None:
    print(
        f"disabled: {report['disabled_min_s'] * 1e3:8.2f}ms min  "
        f"(null counter {report['null_counter_ns']:.0f}ns, "
        f"null span {report['null_span_ns']:.0f}ns)"
    )
    print(
        f"metrics:  {report['metrics_min_s'] * 1e3:8.2f}ms min  "
        f"({report['metrics_overhead_pct']:+.1f}%)"
    )
    print(
        f"full:     {report['full_min_s'] * 1e3:8.2f}ms min  "
        f"({report['full_overhead_pct']:+.1f}%)"
    )


# ----------------------------------------------------------------------
# Smoke mode: every instrumented subsystem fires, counters agree with
# the public result fields, and the Prometheus export carries the core
# metric names CI greps for.
# ----------------------------------------------------------------------

def run_smoke(tmp_root: Path) -> None:
    from repro.core.rollup import rollup
    from repro.core.server import GUFIServer, IdentityProvider
    from repro.obs.export import to_prometheus
    from repro.scan.walker import ParallelTreeWalker, RetryPolicy

    tree = build_namespace(groups=3, dirs_per_group=4, match_every=5)
    parsed = parse(QUERY, now=NOW)
    with obs.enabled(metrics=True, tracing=True, slow_query_ms=0.0):
        # build, then a planned + a single-dir query (before rollup,
        # which would collapse the tree and starve the pruning gate)
        result = dir2index(
            tree, tmp_root / "idx", opts=BuildOptions(nthreads=NTHREADS)
        )
        index = result.index
        with QueryEngine(index, nthreads=NTHREADS) as q:
            qr = q.run(parsed.to_spec(), plan=parsed.to_plan())
            q.run_single(parsed.to_spec(), "/proj")

        # registry counters must agree with the public result fields
        # (snapshotted now — the server invocation below runs its own
        # query and would shift the totals)
        snap = obs.snapshot()
        assert snap.counter_total("gufi_build_dirs_total") == result.dirs_created
        assert (
            snap.counter_total("gufi_query_dirs_visited_total")
            == qr.dirs_visited + 1  # + the run_single directory
        )
        assert (
            snap.counter("gufi_query_dirs_pruned_total")
            >= qr.dirs_pruned_by_plan > 0
        )
        assert qr.stage_seconds is not None and qr.stage_seconds["E"] > 0

        rollup(index, nthreads=NTHREADS)

        # a walker run whose first expansion fails transiently, so the
        # retry counter fires
        flaky = {"left": 2}

        def expand(item):
            if flaky["left"]:
                flaky["left"] -= 1
                raise OSError("transient")
            return []

        wstats = ParallelTreeWalker(NTHREADS).walk(
            ["root"], expand, retry=RetryPolicy(sleep=lambda s: None)
        )
        assert wstats.items_retried == 2

        # one audited server invocation
        idp = IdentityProvider()
        idp.add_user("alice", uid=1001, gid=1001)
        with GUFIServer(index, idp, nthreads=NTHREADS) as server:
            server.invoke("alice", "du", "/")
            assert len(server.audit_log) == 1
            entry = server.audit_log[0]
            assert entry.ok and entry.elapsed > 0 and entry.error is None

        snap = obs.snapshot()
        assert snap.counter_total("gufi_walker_retries_total") == 2
        assert snap.counter_total("gufi_server_invocations_total") == 1

        # spans: the walk nests under the query, directories under both
        spans = obs.tracer().spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        run_span = by_name["query.run"][0]
        walk = [
            s for s in by_name["walker.walk"] if s.parent_id == run_span.span_id
        ]
        assert walk, "walker.walk span did not nest under query.run"
        assert any(
            s.parent_id == walk[0].span_id for s in by_name["query.dir"]
        ), "query.dir spans did not nest under the walk"
        assert by_name["build.dir"] and by_name["server.invoke"]

        # threshold 0ms: everything lands in the slow log
        assert len(obs.slow_log()) >= 2

        text = to_prometheus(snap)
    print(text)
    print("obs smoke OK", file=sys.stderr)


def bench_obs_overhead(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    tree = build_namespace()
    index = dir2index(
        tree,
        tmp_path_factory.mktemp("obs") / "idx",
        opts=BuildOptions(nthreads=NTHREADS),
    ).index
    report = run_overhead_bench(index)
    _print(report)
    print(f"saved {save_report(report)}")
    check_targets(report)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="tiny namespace; functional checks + Prometheus dump only",
    )
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gufi_obs_") as td:
        if args.smoke:
            run_smoke(Path(td))
            return 0
        tree = build_namespace()
        index = dir2index(
            tree, Path(td) / "idx", opts=BuildOptions(nthreads=NTHREADS)
        ).index
        report = run_overhead_bench(index)
    _print(report)
    print(f"saved {save_report(report)}")
    check_targets(report)
    print("targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
