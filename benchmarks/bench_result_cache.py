"""Microbenchmark for the materialized query-result cache.

Measures repeated queries two ways on a dataset-2-scaled index:

* **uncached** — one persistent session (warm DirMeta cache, pooled
  connections, registered SQL functions) *without* a result cache:
  the best the warm path could do before materialization, paying the
  full permission-gated traversal every repetition;
* **cached** — the same session with a :class:`ResultCache`: the
  first run captures, every later repetition is an O(validity-token)
  revalidation plus replay instead of an O(traversal) walk.

Every case asserts byte-identical rows between the two modes; the
repeated selective queries must be >=5x faster cached. ``--smoke``
guards the hit itself against the recorded ``BENCH_result_cache.json``
baseline instead of overwriting it: when unarmed (no inotify write
clock over the index tree), a hit is two ``os.stat`` calls per
recorded directory plus handing the rows over, so its cost is compared
with those stats alone, timed in the same seconds (``hit_over_stats``;
an armed hit makes one ``stat`` and lands well under the baseline)
— a ratio that moves neither with the host's speed nor with how fast
a walk happens to be (the guard used to be hit ÷ walk, and failed the
day the walk got faster). It then prints a Prometheus dump carrying
the ``gufi_result_cache_*`` metric names CI greps for.

Run standalone:  PYTHONPATH=src python benchmarks/bench_result_cache.py
Run via pytest:  pytest benchmarks/bench_result_cache.py
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_helpers import (
    DS2_SCALE,
    NTHREADS,
    load_bench_baseline,
    save_bench_report,
)

from repro import obs
from repro.core.build import BuildOptions, build_from_stanzas
from repro.core.engine import QueryEngine, ResultCache
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_PATHS,
    Q3_DU_SUMMARIES,
    QuerySpec,
)
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.gen.datasets import dataset2
from repro.scan.scanners import TreeWalkScanner

REPS = 7

#: repeated selective queries must be at least this much faster cached
SPEEDUP_TARGET = 5.0

#: --smoke: a hit's cost over its stats may rise at most this
#: fraction above the recorded baseline ratio before it counts as a
#: regression
HIT_TOLERANCE = 0.10

#: --smoke: re-measure still-failing cases this many times before
#: declaring a regression — a real one fails every attempt
SMOKE_RETRIES = 2

#: a selective scan: most directories contribute nothing, but the
#: traversal still has to prove that for every one of them
SELECTIVE_SPEC = QuerySpec(
    E="SELECT rpath(dname, d_isroot, name), size FROM vrpentries "
    "WHERE size >= 900000000"
)


def _times(fn, reps: int = REPS) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.monotonic()
        fn()
        out.append(time.monotonic() - t0)
    return out


def _measure_case(index_root, spec, creds, start: str, reps: int = REPS) -> dict:
    """Median uncached-vs-cached repetition times for one (query, user),
    both on fully warm sessions, plus the identical-rows proof."""
    idx = GUFIIndex.open(index_root)
    q = QueryEngine(idx, creds=creds, nthreads=NTHREADS)
    try:
        q.run(spec, start)  # untimed: warm pool + DirMeta cache
        uncached = _times(lambda: q.run(spec, start), reps)
        uncached_rows = sorted(q.run(spec, start).rows)
    finally:
        q.close()

    idx = GUFIIndex.open(index_root)
    cache = ResultCache()
    q = QueryEngine(idx, creds=creds, nthreads=NTHREADS, result_cache=cache)
    try:
        q.run(spec, start)  # warm pool (miss)
        first = q.run(spec, start)  # capture validated: a hit
        assert first.cached, "second run did not hit the result cache"
        cached = _times(lambda: q.run(spec, start), reps)
        final = q.run(spec, start)
        assert final.cached
        cached_rows = sorted(final.rows)
        stats = cache.stats()
        # what no hit can do without: the validity token's two stats
        # per recorded directory (any directories cost the same)
        recorded = [
            str(d)
            for d in itertools.islice(idx.iter_index_dirs(), final.dirs_visited)
        ]
        assert len(recorded) == final.dirs_visited

        def stat_recorded() -> None:
            for d in recorded:
                os.stat(f"{d}/db.db")
                os.stat(d)

        stat_floor = _times(stat_recorded, reps)
    finally:
        q.close()

    assert cached_rows == uncached_rows, (
        "cached rows diverged from the uncached traversal"
    )

    uncached_med = statistics.median(uncached)
    cached_med = statistics.median(cached)
    return {
        "uncached_median_s": uncached_med,
        "uncached_min_s": min(uncached),
        "cached_median_s": cached_med,
        "cached_min_s": min(cached),
        "speedup": uncached_med / cached_med if cached_med > 0 else float("inf"),
        # min-over-min: far less run-to-run noise for sub-ms replays
        "speedup_min": min(uncached) / min(cached)
        if min(cached) > 0
        else float("inf"),
        "stat_floor_min_s": min(stat_floor),
        # the --smoke baseline guard compares this ratio
        "hit_over_stats": min(cached) / min(stat_floor),
        "rows": len(cached_rows),
        "reps": reps,
        "cache": stats,
    }


def build_bench_index(tmp_root: Path):
    """dataset-2-shaped namespace -> non-rolled index + root tsummary."""
    ns = dataset2(scale=DS2_SCALE)
    stanzas = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/").stanzas
    built = build_from_stanzas(
        stanzas, tmp_root / "idx", BuildOptions(nthreads=NTHREADS)
    )
    build_tsummary(built.index, "/")
    return ns, built.index


def result_cache_cases(ns) -> dict:
    """name -> (spec, creds, start, selective)."""
    root = Credentials(uid=0, gid=0)
    area, policy = next(iter(sorted(ns.area_roots.items())))
    user = Credentials(uid=policy.uid, gid=policy.gid)

    return {
        # selective scans: tiny result, full traversal — replay wins big
        "selective_root": (SELECTIVE_SPEC, root, "/", True),
        "selective_user": (SELECTIVE_SPEC, user, "/", True),
        # aggregate: J/G reduction repeated verbatim (canned dashboards)
        "du_root": (Q3_DU_SUMMARIES, root, "/", True),
        # full listing: large result set, replay throughput recorded
        # but not targeted (row volume dominates both modes)
        "q1_paths_root": (Q1_LIST_PATHS, root, "/", False),
    }


def run_result_cache_bench(ns, index) -> dict:
    cases = result_cache_cases(ns)
    results = {}
    for name, (spec, creds, start, selective) in cases.items():
        results[name] = _measure_case(index.root, spec, creds, start)
        results[name]["selective"] = selective
        print(
            f"{name:18s} uncached {results[name]['uncached_median_s'] * 1e3:8.2f}ms"
            f"  cached {results[name]['cached_median_s'] * 1e3:8.2f}ms"
            f"  speedup {results[name]['speedup']:7.2f}x"
            f"  hit/stats {results[name]['hit_over_stats']:5.2f}x"
        )

    return {
        "scale": DS2_SCALE,
        "nthreads": NTHREADS,
        "namespace": {"dirs": len(ns.dirs), "entries": len(ns.files)},
        "cases": results,
    }


def check_targets(report: dict) -> None:
    for name, case in report["cases"].items():
        if case["selective"]:
            assert case["speedup_min"] >= SPEEDUP_TARGET, (
                f"{name}: replay only {case['speedup_min']:.2f}x faster "
                f"than the uncached warm path (target {SPEEDUP_TARGET}x)"
            )
        else:
            # replay may never lose to re-traversal, even on row-heavy
            # listings where emit volume dominates
            assert case["speedup_min"] >= 1.0, (
                f"{name}: replay slower than the walk "
                f"({case['speedup_min']:.2f}x)"
            )


def baseline_failures(
    report: dict, baseline: dict, tolerance: float = HIT_TOLERANCE
) -> dict:
    failures = {}
    for name, case in report["cases"].items():
        base = baseline["cases"].get(name)
        if base is None:
            continue
        ceiling = base["hit_over_stats"] * (1.0 + tolerance)
        if case["hit_over_stats"] > ceiling:
            failures[name] = (
                f"{name}: a hit costs {case['hit_over_stats']:.2f}x its "
                f"stats, above {ceiling:.2f}x (baseline "
                f"{base['hit_over_stats']:.2f}x + {tolerance:.0%})"
            )
    return failures


def smoke_check(ns, index, report, baseline, tolerance) -> None:
    failures = baseline_failures(report, baseline, tolerance)
    cases = result_cache_cases(ns)
    for attempt in range(SMOKE_RETRIES):
        if not failures:
            break
        for name in list(failures):
            spec, creds, start, selective = cases[name]
            fresh = _measure_case(index.root, spec, creds, start, reps=REPS * 3)
            fresh["selective"] = selective
            if fresh["hit_over_stats"] < report["cases"][name]["hit_over_stats"]:
                report["cases"][name] = fresh
        print(f"retry {attempt + 1}: re-measured {sorted(failures)}")
        failures = baseline_failures(report, baseline, tolerance)
    assert not failures, (
        "result-cache regression vs recorded baseline:\n  "
        + "\n  ".join(failures[name] for name in sorted(failures))
    )


def prometheus_dump(tmp_root: Path) -> str:
    """Exercise every result-cache metric with observability enabled
    and return the Prometheus rendering (CI greps the names)."""
    from repro.obs.export import to_prometheus

    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    from conftest import build_demo_tree

    from repro.core.build import dir2index
    from repro.core.update import update_directory

    tree = build_demo_tree()
    index = dir2index(
        tree, tmp_root / "obs_idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index
    with obs.enabled(metrics=True):
        cache = ResultCache(max_entries=1)
        with QueryEngine(index, nthreads=NTHREADS, result_cache=cache) as q:
            q.run(Q1_LIST_PATHS, "/public")  # miss + store
            assert q.run(Q1_LIST_PATHS, "/public").cached  # hit (+validate)
            # a one-directory update: push invalidation, and a re-read
            # that takes the other directories' rows from the stale entry
            tree.create_file("/public/xonly/fresh.txt", size=1)
            update_directory(index, tree, "/public/xonly")
            reread = q.run(Q1_LIST_PATHS, "/public")  # re-capture
            with QueryEngine(index, nthreads=NTHREADS) as plain:
                uncached = plain.run(Q1_LIST_PATHS, "/public")
            assert sorted(reread.rows) == sorted(uncached.rows)
            assert not reread.cached and cache.stats()["dirs_reused"] > 0
            q.run(Q1_LIST_PATHS, "/home")  # max_entries=1: eviction
        text = to_prometheus(obs.snapshot())
    for metric in (
        "gufi_result_cache_hits_total",
        "gufi_result_cache_misses_total",
        "gufi_result_cache_invalidations_total",
        "gufi_result_cache_evictions_total",
        "gufi_result_cache_dirs_reused_total",
        "gufi_result_cache_validate_seconds",
        "gufi_result_cache_validations_total",
        "gufi_session_cache_validations_total",
        "gufi_index_watch_armed",
    ):
        assert metric in text, f"missing metric: {metric}"
    return text


def save_report(report: dict) -> Path:
    return save_bench_report("result_cache", report)


def bench_result_cache(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    ns, index = build_bench_index(tmp_path_factory.mktemp("rcache"))
    report = run_result_cache_bench(ns, index)
    print(f"saved {save_report(report)}")
    check_targets(report)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="compare against the recorded BENCH_result_cache.json "
        "instead of overwriting it, and print the Prometheus dump "
        "(CI regression + metric-name guard)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=HIT_TOLERANCE,
        help="allowed fractional rise of a hit's cost over its stats "
        "above the baseline's (--smoke)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gufi_rcache_") as td:
        ns, index = build_bench_index(Path(td))
        report = run_result_cache_bench(ns, index)
        check_targets(report)
        if args.smoke:
            baseline = load_bench_baseline("result_cache")
            assert baseline is not None, "no recorded BENCH_result_cache.json"
            smoke_check(ns, index, report, baseline, args.tolerance)
            print(prometheus_dump(Path(td)))
            print(
                "smoke ok: hit cost within tolerance of baseline",
                file=sys.stderr,
            )
        else:
            print(f"saved {save_report(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
