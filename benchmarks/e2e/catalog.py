"""The benchmark's metric catalogue — the one place metric names live.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 benchmarks/e2e/catalog.py --write``); its schema has no room
for what each layer metric should move or what a generic end-to-end
metric means on each workload, so that knowledge stays here and in
README.md.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

#: length of one run's timed region, seconds (``--seconds``)
RUN_SECONDS = 10
#: this host (``nproc``); client connections never exceed it
HOST_NPROC = 2
#: the serving probe's open loop: arrivals per second. Chosen once, at
#: about a third of what the closed loop completes per second on this
#: host in a quiet phase (350-430 over two connections, so the loop
#: keeps up in a slow phase too), and never derived at run time.
OPEN_RATE_RPS = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, at most 200 characters
    #: what the generic end-to-end metrics mean on this workload
    unit: str
    part: str
    work: str


WORKLOADS = [
    Workload(
        "ingest",
        "CLI trace2index, rollup, bfti into a fresh index: the build side "
        "(scan.trace, core.build, store, rollup, tsummary) does all the "
        "work, the engine and every cache none",
        unit="one trace2index+rollup+bfti pass",
        part="the trace2index stage of the pass",
        work="entries indexed per second of pass",
    ),
    Workload(
        "cli_scan",
        "one-shot CLI Q1-Q3 as root and as a user, result cache off: what "
        "a shell user pays; cold DirMeta reads, traversal, stages, sinks "
        "work, sessions, plans and caches do not",
        unit="one sweep: Q1, Q2, Q3 as root then as the largest area's owner",
        part="the unprivileged half of the sweep",
        work="directories processed per second of sweep",
    ),
    Workload(
        "serve_mix",
        "seeded small/medium/full-tree request mix over HTTP against a "
        "rolled index: serve.*, session LRU, plan and result cache do most "
        "of the work, the full walk little; mirror of cli_scan",
        unit="one request of the closed-loop mix (server + client CPU)",
        part="one full-tree find the cache has not seen, alone on the wire",
        work="closed-loop requests one core serves per second",
    ),
    Workload(
        "churn",
        "mutate, changefeed2index, re-read in one process: the caches "
        "that make serve_mix fast seen from the write side, so a read "
        "gain bought with costlier invalidation or apply shows",
        unit="one cycle: 40 mutations, apply, the read set twice",
        part="the first pass over the read set after an apply",
        work="change events applied per second of changefeed2index",
    ),
]
WORKLOAD_NAMES = [w.name for w in WORKLOADS]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    #: per-layer only: the layer measured and the end-to-end
    #: (workload/metric) pairs a change to it should move
    layer: str = ""
    moves: str = ""


#: Every timing is CPU time on one pinned CPU, scaled to a nominal host
#: speed by a reference job run before and after the timed code
#: (``common.Meter``); raw wall-clock and CPU times are per-layer
#: (``bench.*``) and carry no bound. ISSUE 13 asked for bounds of 10-15%
#: on raw timings, which this host does not repeat: its speed moves by a
#: factor of two for minutes at a time. Between ten seeds the scaled unit
#: times spread over 0.02-0.06 of their median (``ingest``, half of which
#: is the kernel creating files: 0.05-0.12), so their bound is the 0.25
#: whose third that is, or nearly (README.md "Measured").
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("unit_ms", "ms", "lower", 0.25),
    Metric("part_ms", "ms", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    # exact under a fixed seed; ten seeds spread over 0.009 of their median
    Metric("index_bytes_per_entry", "B", "lower", 0.03),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
]


def _m(name, unit, better, layer, moves) -> Metric:
    return Metric(name, unit, better, None, layer, moves)


ING = "ingest/work_per_s"
SWEEP = "cli_scan/unit_ms"
SWEEP_U = "cli_scan/part_ms"
RPS = "serve_mix/work_per_s"
P50 = "serve_mix/unit_ms"
MISS = "serve_mix/part_ms"
CYCLE = "churn/unit_ms"
APPLY = "churn/work_per_s"
READ = "churn/part_ms"

PER_LAYER = [
    # scan
    _m("scan.treewalk_s", "s", "lower", "scan", "*/setup_s"),
    _m("scan.trace_write_s", "s", "lower", "scan.trace", "*/setup_s"),
    _m("scan.trace_read_s", "s", "lower", "scan.trace", ING),
    _m("scan.trace_bytes_per_entry", "B", "lower", "scan.trace", ING),
    _m("walker.handoff_us_per_item", "us", "lower", "scan.walker",
       f"{ING}, {SWEEP}"),
    # core.build + store
    _m("build.trace2index_s", "s", "lower", "core.build", f"{ING}, */setup_s"),
    _m("build.dir_db_us_per_entry", "us", "lower", "core.build",
       f"{ING}, {APPLY}"),
    _m("build.dirs_per_s", "1/s", "higher", "core.build", ING),
    _m("build.errors", "count", "lower", "core.build", "none (must stay 0)"),
    _m("store.commit_us_per_dir", "us", "lower", "store", f"{ING}, {APPLY}"),
    _m("store.index_bytes", "B", "lower", "store",
       "*/index_bytes_per_entry"),
    _m("store.attach_us", "us", "lower", "store", f"{SWEEP}, {MISS}"),
    # core.rollup, core.tsummary
    _m("rollup.s", "s", "lower", "core.rollup", ING),
    _m("rollup.rolled_ratio", "ratio", "higher", "core.rollup",
       f"{MISS}, {RPS}"),
    _m("rollup.visible_db_count", "count", "lower", "core.rollup",
       f"{MISS}, {RPS}"),
    _m("tsummary.build_s", "s", "lower", "core.tsummary", f"{ING}, {APPLY}"),
    # core.index
    _m("index.dirmeta_cold_us_per_dir", "us", "lower", "core.index",
       f"{SWEEP}, {SWEEP_U}"),
    _m("index.dirmeta_warm_us_per_dir", "us", "lower", "core.index", P50),
    _m("index.cache_hit_ratio", "ratio", "higher", "core.index", P50),
    # core.engine
    _m("engine.q1_root_warm_s", "s", "lower", "core.engine", f"{SWEEP}, {MISS}"),
    _m("engine.q2_root_warm_s", "s", "lower", "core.engine", f"{SWEEP}, {MISS}"),
    _m("engine.q3_root_warm_s", "s", "lower", "core.engine", f"{SWEEP}, {MISS}"),
    _m("engine.q1_user_warm_s", "s", "lower", "core.engine",
       f"{SWEEP_U}, {READ}"),
    _m("engine.us_per_dir", "us", "lower", "core.engine", f"{SWEEP}, {READ}"),
    _m("engine.us_per_row", "us", "lower", "core.engine", f"{SWEEP}, {MISS}"),
    _m("engine.stage_s.T", "s", "lower", "core.engine", P50),
    _m("engine.stage_s.S", "s", "lower", "core.engine", SWEEP),
    _m("engine.stage_s.E", "s", "lower", "core.engine", SWEEP),
    _m("engine.stage_s.J", "s", "lower", "core.engine", SWEEP),
    _m("engine.stage_s.G", "s", "lower", "core.engine", SWEEP),
    _m("engine.dirs_visited", "count", "lower", "core.engine", SWEEP),
    _m("engine.dirs_denied", "count", "lower", "core.engine", SWEEP_U),
    _m("engine.dbs_opened", "count", "lower", "core.engine", SWEEP),
    _m("engine.run_single_us", "us", "lower", "core.engine", P50),
    _m("sinks.emit_us_per_krow", "us", "lower", "core.engine", f"{SWEEP}, {MISS}"),
    # core.engine.scatter: not the default anywhere, so no movement is
    # predicted unless it becomes one
    _m("scatter.q1_root_p2_s", "s", "lower", "core.engine.scatter",
       "none while --processes defaults to 1"),
    _m("scatter.speedup_p2", "ratio", "higher", "core.engine.scatter",
       "none while --processes defaults to 1"),
    # core.plan
    _m("plan.compile_us", "us", "lower", "core.plan", P50),
    _m("plan.pruned_ratio", "ratio", "higher", "core.plan",
       f"{P50}; none on cli_scan"),
    _m("plan.attaches_elided", "count", "higher", "core.plan",
       f"{P50}; none on cli_scan"),
    # core.session, core.tools, core.server
    _m("session.cold_open_ms", "ms", "lower", "core.session", SWEEP),
    _m("session.warm_tiny_ms", "ms", "lower", "core.session", f"{P50}, {RPS}"),
    _m("server.invoke_overhead_us", "us", "lower", "core.server",
       f"{P50}, {RPS}"),
    _m("server.session_lru_hit_ratio", "ratio", "higher", "core.server",
       f"{P50}, {RPS}"),
    # core.engine.resultcache
    _m("resultcache.replay_ms", "ms", "lower", "core.engine.resultcache",
       f"{P50}, {RPS}"),
    _m("resultcache.validate_ms", "ms", "lower", "core.engine.resultcache",
       f"{P50}, {RPS}"),
    _m("resultcache.capture_overhead_ratio", "ratio", "lower",
       "core.engine.resultcache", f"{MISS}, {READ}"),
    _m("resultcache.hit_ratio", "ratio", "higher", "core.engine.resultcache",
       f"{P50}, {RPS}; none on cli_scan"),
    _m("resultcache.evictions", "count", "lower", "core.engine.resultcache",
       MISS),
    _m("resultcache.bytes", "B", "lower", "core.engine.resultcache",
       "serve_mix/peak_rss_mb"),
    _m("resultcache.invalidations_per_apply", "count", "lower",
       "core.engine.resultcache", f"{READ}, {CYCLE}"),
    # serve
    _m("serve.http_roundtrip_us", "us", "lower", "serve.http", f"{P50}, {RPS}"),
    _m("serve.asgi_overhead_us", "us", "lower", "serve.app", f"{P50}, {RPS}"),
    _m("serve.encode_ms_per_krow", "ms", "lower", "serve.codec", MISS),
    _m("serve.cursor_page_ms", "ms", "lower", "serve.cursors", MISS),
    _m("serve.shed_ratio", "ratio", "lower", "serve.qos", "*/failed"),
    _m("serve.timeout_ratio", "ratio", "lower", "serve.qos", "*/failed"),
    _m("serve.queue_depth_max", "count", "lower", "serve.qos", MISS),
    # wall-clock latencies, demoted from end-to-end: ISSUE 13's
    # serve_p50_ms, serve_p95_ms, serve_open_p50_ms, serve_open_p95_ms
    _m("serve.closed_p50_ms", "ms", "lower", "serve", P50),
    _m("serve.closed_p95_ms", "ms", "lower", "serve", f"{P50}, {MISS}"),
    _m("serve.p99_ms", "ms", "lower", "serve", MISS),
    _m("serve.open_p50_ms", "ms", "lower", "serve", P50),
    _m("serve.open_p95_ms", "ms", "lower", "serve", f"{P50}, {MISS}"),
    _m("serve.generator_late_ms_p95", "ms", "lower", "benchmark",
       "none (validity of the open loop)"),
    # fs.changelog, core.changefeed
    _m("changelog.emit_us_per_mutation", "us", "lower", "fs.changelog", CYCLE),
    _m("changelog.coalesced_ratio", "ratio", "higher", "fs.changelog", APPLY),
    _m("changefeed.apply_s", "s", "lower", "core.changefeed",
       f"{APPLY}, {CYCLE}"),
    _m("changefeed.apply_no_tsummary_s", "s", "lower", "core.changefeed",
       f"{APPLY}, {CYCLE}"),
    _m("changefeed.dirs_rebuilt_per_event", "ratio", "lower",
       "core.changefeed", APPLY),
    # cli
    _m("cli.format_us_per_row", "us", "lower", "cli", SWEEP),
    _m("cli.q1_root_cold_s", "s", "lower", "cli", SWEEP),
    _m("cli.q2_root_cold_s", "s", "lower", "cli", SWEEP),
    _m("cli.q3_root_cold_s", "s", "lower", "cli", SWEEP),
    _m("cli.q1_user_cold_s", "s", "lower", "cli", SWEEP_U),
    _m("cli.q2_user_cold_s", "s", "lower", "cli", SWEEP_U),
    _m("cli.q3_user_cold_s", "s", "lower", "cli", SWEEP_U),
    # scaling: log-log slope over three namespace sizes (1.0 = linear)
    _m("scale.ingest_exponent", "ratio", "lower", "core.build", ING),
    _m("scale.q1_root_exponent", "ratio", "lower", "core.engine", SWEEP),
    _m("scale.q2_root_exponent", "ratio", "lower", "core.engine", SWEEP),
    # the benchmark itself: the unit as the host delivered it (the
    # reported unit_ms is scaled), how fast the host ran, and what
    # recording spans costs
    _m("bench.unit_wall_ms", "ms", "lower", "benchmark",
       "the traced workload's unit_ms, in wall clock"),
    _m("bench.unit_cpu_ms", "ms", "lower", "benchmark",
       "the traced workload's unit_ms, before scaling"),
    _m("bench.host_speed", "ratio", "higher", "benchmark",
       "none (nominal / measured time of the reference job)"),
    _m("trace.overhead_ratio", "ratio", "lower", "benchmark",
       "none (traced unit / untraced unit, same run)"),
    _m("budget.unattributed_ratio", "ratio", "lower", "benchmark",
       "none (share of unit time under no layer span)"),
]

#: layers a span's self time is attributed to (``budget.<layer>_s``
#: per unit of the workload that ran, 0 where the workload bypasses it)
BUDGET_LAYERS = [
    "cli", "scan", "core.build", "store", "core.rollup", "core.tsummary",
    "core.index", "core.engine", "core.engine.resultcache", "core.plan",
    "core.session", "core.tools", "core.server", "serve", "fs.changelog",
    "core.changefeed",
]
PER_LAYER += [
    _m(f"budget.{layer}_s", "s", "lower", layer,
       "the unit_ms of the workload that ran")
    for layer in BUDGET_LAYERS
]

def notes(workload: str) -> dict[str, str]:
    """What the metric table prints beside a value: what a generic
    end-to-end metric means on this workload, and which end-to-end
    numbers a per-layer metric should move."""
    w = next(w for w in WORKLOADS if w.name == workload)
    out = {"unit_ms": w.unit, "part_ms": w.part, "work_per_s": w.work}
    out.update((m.name, f"{m.layer} -> {m.moves}") for m in PER_LAYER)
    return out


def render(metrics: list[Metric], values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of the list.

    An end-to-end metric that is missing is an error. A per-layer value
    of ``None`` — its layer's entry point is gone — is NaN: not a number
    a reader could take for a measurement."""
    out = {}
    for m in metrics:
        v = values.get(m.name)
        if v is None:
            if m.bound is not None:
                raise KeyError(f"end-to-end metric {m.name} was not measured")
            v = math.nan
        out[m.name] = {"value": float(v), "unit": m.unit}
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def main(argv: list[str]) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in argv:
        target = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
