"""Microbenchmark for the persistent-session hot path.

Measures repeated queries two ways on a dataset-2-scaled index:

* **cold** — a fresh :class:`GUFIIndex` handle and a fresh
  :class:`QueryEngine` per repetition (empty DirMeta cache, new scratch
  database, new connections, SQL functions re-registered), which is
  what every CLI invocation paid before sessions existed;
* **warm** — one session reused across repetitions, the tentpole's
  intended mode.

Covered: Q1-Q4 as root, Q1 as an unprivileged user, and two "small"
queries where fixed setup dominates the work — Q4 (tsummary prunes at
the root, one directory touched) and Q1 over a deep leaf subtree. The
target from the issue: >=3x warm-over-cold on the repeated small
queries and no regression on cold full scans (cold medians are
recorded in ``BENCH_query_hotpath.json`` so later runs can compare).

Run standalone:  PYTHONPATH=src python benchmarks/bench_query_hotpath.py
Run via pytest:  pytest benchmarks/bench_query_hotpath.py
"""

from __future__ import annotations

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

from repro.core.build import BuildOptions, build_from_stanzas
from repro.core.engine import QueryEngine
from repro.core.index import GUFIIndex
from repro.core.query import (
    Q1_LIST_NAMES,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
)
from repro.core.tsummary import build_tsummary
from repro.fs.permissions import Credentials
from repro.gen.datasets import dataset2
from repro.scan.scanners import TreeWalkScanner

REPS = 7

#: repeated small queries must be at least this much faster warm
SMALL_QUERY_TARGET = 3.0

#: --smoke: a small-query speedup may fall at most this fraction below
#: the recorded baseline ratio before it counts as a regression
SPEEDUP_TOLERANCE = 0.10

#: --smoke: re-measure still-failing small cases this many times (with
#: extra repetitions) before declaring a regression — a real one fails
#: every attempt, scheduler noise does not
SMOKE_RETRIES = 2


def _times(fn, reps: int = REPS) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.monotonic()
        fn()
        out.append(time.monotonic() - t0)
    return out


def _measure_case(
    index_root, spec, creds, start: str, single: bool, reps: int = REPS
) -> dict:
    """Median cold-vs-warm repetition times for one (query, user).

    ``single`` uses :meth:`QueryEngine.run_single` — the per-directory
    API a repeated point query hits; otherwise the parallel walker
    (whose per-run thread spawn is paid warm and cold alike).
    """

    def exec_query(q):
        if single:
            q.run_single(spec, start)
        else:
            q.run(spec, start)

    def cold_once():
        idx = GUFIIndex.open(index_root)
        q = QueryEngine(idx, creds=creds, nthreads=NTHREADS)
        try:
            exec_query(q)
        finally:
            q.close()

    cold = _times(cold_once, reps)

    idx = GUFIIndex.open(index_root)
    q = QueryEngine(idx, creds=creds, nthreads=NTHREADS)
    try:
        exec_query(q)  # untimed warm-up populates pool + caches
        warm = _times(lambda: exec_query(q), reps)
        cache = dict(idx.cache.stats())
    finally:
        q.close()

    cold_med = statistics.median(cold)
    warm_med = statistics.median(warm)
    return {
        "cold_median_s": cold_med,
        "cold_min_s": min(cold),
        "warm_median_s": warm_med,
        "warm_min_s": min(warm),
        "speedup": cold_med / warm_med if warm_med > 0 else float("inf"),
        # min-over-min is far less noisy than median-over-median for
        # sub-millisecond queries; the --smoke baseline guard uses it
        "speedup_min": min(cold) / min(warm) if min(warm) > 0 else float("inf"),
        "reps": reps,
        "cache": cache,
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


def hotpath_cases(ns) -> dict:
    """name -> (spec, creds, start, small_query, single)."""
    root = Credentials(uid=0, gid=0)
    area, policy = next(iter(sorted(ns.area_roots.items())))
    user = Credentials(uid=policy.uid, gid=policy.gid)
    leaf = max(ns.dirs, key=lambda d: (d.count("/"), d))

    return {
        # full scans: every visible directory is attached either way,
        # so warm wins only the fixed setup — must at least not lose
        "q1_root_full": (Q1_LIST_NAMES, root, "/", False, False),
        "q2_root_full": (Q2_DIR_SIZES, root, "/", False, False),
        "q3_root_full": (Q3_DU_SUMMARIES, root, "/", False, False),
        "q1_user_full": (Q1_LIST_NAMES, user, "/", False, False),
        "q4_root_tsummary": (Q4_DU_TSUMMARY, root, "/", False, False),
        # small queries: fixed setup dominates, sessions must win big
        "q4_root_single": (Q4_DU_TSUMMARY, root, "/", True, True),
        "q1_leaf_subtree": (Q1_LIST_NAMES, root, leaf, True, False),
    }


def run_hotpath_bench(ns, index) -> dict:
    cases = hotpath_cases(ns)
    leaf = cases["q1_leaf_subtree"][2]
    user = cases["q1_user_full"][1]

    results = {}
    for name, (spec, creds, start, small, single) in cases.items():
        results[name] = _measure_case(index.root, spec, creds, start, single)
        results[name]["small_query"] = small
        print(
            f"{name:20s} cold {results[name]['cold_median_s'] * 1e3:8.2f}ms"
            f"  warm {results[name]['warm_median_s'] * 1e3:8.2f}ms"
            f"  speedup {results[name]['speedup']:6.2f}x"
        )

    return {
        "scale": DS2_SCALE,
        "nthreads": NTHREADS,
        "namespace": {
            "dirs": len(ns.dirs),
            "entries": len(ns.files),
            "leaf": leaf,
            "user_uid": user.uid,
        },
        "cases": results,
    }


def check_targets(report: dict) -> None:
    for name, case in report["cases"].items():
        if case["small_query"]:
            assert case["speedup"] >= SMALL_QUERY_TARGET, (
                f"{name}: warm sessions only {case['speedup']:.2f}x faster "
                f"(target {SMALL_QUERY_TARGET}x)"
            )
        else:
            # warm full scans may not regress past noise: same walk,
            # minus setup — anything slower means the pool leaks work
            assert case["warm_median_s"] <= case["cold_median_s"] * 1.25, (
                f"{name}: warm {case['warm_median_s']:.4f}s vs "
                f"cold {case['cold_median_s']:.4f}s"
            )


def baseline_failures(
    report: dict, baseline: dict, tolerance: float = SPEEDUP_TOLERANCE
) -> dict:
    """Warm-path guard: the repeated-small-query speedup ratios must
    stay within ``tolerance`` of the recorded baseline ratios. The
    comparison uses the min-over-min ratio (``speedup_min``): medians
    of sub-millisecond repetitions swing far more run-to-run than best
    times do, and a guard that trips on scheduler noise is useless.
    Full scans are covered by :func:`check_targets` (warm may not lose
    to cold past noise); their ratios hover near 1x.

    Returns ``{case name: failure message}`` for cases below the floor.
    """
    failures = {}
    for name, case in report["cases"].items():
        base = baseline.get("cases", {}).get(name)
        if base is None or not case.get("small_query"):
            continue
        got = case.get("speedup_min", case["speedup"])
        ref = base.get("speedup_min", base["speedup"])
        floor = ref * (1.0 - tolerance)
        if got < floor:
            failures[name] = (
                f"{name}: {got:.2f}x < {floor:.2f}x "
                f"(recorded baseline {ref:.2f}x)"
            )
        else:
            print(
                f"{name:20s} speedup_min {got:6.2f}x >= "
                f"{floor:.2f}x floor (baseline {ref:.2f}x) ok"
            )
    return failures


def smoke_check(ns, index, report: dict, baseline: dict, tolerance: float) -> None:
    """Assert no warm-path regression, re-measuring failing cases up
    to :data:`SMOKE_RETRIES` times (with triple the repetitions) so one
    unlucky scheduling window cannot fail CI — a genuine regression
    stays below the floor on every attempt."""
    failures = baseline_failures(report, baseline, tolerance)
    for attempt in range(SMOKE_RETRIES):
        if not failures:
            break
        cases = hotpath_cases(ns)
        for name in failures:
            spec, creds, start, small, single = cases[name]
            fresh = _measure_case(
                index.root, spec, creds, start, single, reps=REPS * 3
            )
            fresh["small_query"] = small
            if fresh["speedup_min"] > report["cases"][name]["speedup_min"]:
                report["cases"][name] = fresh
        print(f"retry {attempt + 1}: re-measured {sorted(failures)}")
        failures = baseline_failures(report, baseline, tolerance)
    assert not failures, (
        "warm-path regression vs recorded baseline:\n  "
        + "\n  ".join(failures[name] for name in sorted(failures))
    )


def save_report(report: dict) -> Path:
    return save_bench_report("query_hotpath", report)


def bench_query_hotpath(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    ns, index = build_bench_index(tmp_path_factory.mktemp("hotpath"))
    report = run_hotpath_bench(ns, index)
    print(f"saved {save_report(report)}")
    check_targets(report)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="compare against the recorded BENCH_query_hotpath.json "
        "instead of overwriting it (CI regression guard)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=SPEEDUP_TOLERANCE,
        help="allowed fractional drop below baseline speedups (--smoke)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gufi_hotpath_") as td:
        ns, index = build_bench_index(Path(td))
        report = run_hotpath_bench(ns, index)
        check_targets(report)
        if args.smoke:
            baseline = load_bench_baseline("query_hotpath")
            assert baseline is not None, "no recorded BENCH_query_hotpath.json"
            smoke_check(ns, index, report, baseline, args.tolerance)
            print("smoke ok: warm-path ratios within tolerance of baseline")
        else:
            print(f"saved {save_report(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
