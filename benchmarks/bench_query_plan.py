"""Benchmark for summary-statistics query planning.

A *selective* warm query (``size>>1g newer:7d`` — under 5% of
directories hold a matching file) is run with planning on and off
against the same warm session. With planning, directories whose cached
summary statistics prove them unmatchable never attach their database
at all; without it, every permitted directory is attached and its
entries scanned.

Acceptance targets (asserted here and re-checked in CI smoke mode):

* planning opens **>=5x fewer** databases than the unplanned run;
* the planned warm run is **>=2x faster**;
* the two runs return **byte-identical rows** (pruning is
  conservative — see :mod:`repro.core.plan`).

Run standalone:  PYTHONPATH=src python benchmarks/bench_query_plan.py
CI smoke mode:   PYTHONPATH=src python benchmarks/bench_query_plan.py --smoke
Run via pytest:  pytest benchmarks/bench_query_plan.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_helpers import NTHREADS, save_bench_report

from repro.core.build import BuildOptions, dir2index
from repro.core.engine import QueryEngine
from repro.core.search import parse
from repro.fs.tree import VFSTree

REPS = 7
NOW = 1_700_000_000
DAY = 86400
QUERY = "size>>1g newer:7d"

#: acceptance targets from the issue
OPENS_RATIO_TARGET = 5.0
SPEEDUP_TARGET = 2.0


def build_namespace(
    groups: int = 25, dirs_per_group: int = 18, match_every: int = 24
) -> VFSTree:
    """A two-level project namespace where ~1/match_every of the leaf
    directories hold one large, recently-modified file; everything
    else is small and old. Deterministic — no RNG, no wall clock."""
    tree = VFSTree()
    tree.mkdir("/proj", mode=0o755, uid=0, gid=0)
    n = 0
    for g in range(groups):
        gdir = f"/proj/g{g:02d}"
        tree.mkdir(gdir, mode=0o755, uid=0, gid=0)
        for d in range(dirs_per_group):
            leaf = f"{gdir}/d{d:03d}"
            tree.mkdir(leaf, mode=0o755, uid=1001, gid=1001)
            for f in range(4):
                tree.create_file(
                    f"{leaf}/small{f}.dat",
                    size=1024 * (1 + (n + f) % 64),
                    mode=0o644,
                    uid=1001,
                    gid=1001,
                    mtime=NOW - 100 * DAY - n,
                )
            if n % match_every == 0:
                tree.create_file(
                    f"{leaf}/checkpoint.h5",
                    size=2 * 2**30 + n,
                    mode=0o644,
                    uid=1001,
                    gid=1001,
                    mtime=NOW - 1 * DAY - n,
                )
            n += 1
    return tree


def _times(fn, reps: int = REPS) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.monotonic()
        fn()
        out.append(time.monotonic() - t0)
    return out


def run_plan_bench(index, reps: int = REPS) -> dict:
    parsed = parse(QUERY, now=NOW)
    spec = parsed.to_spec()
    plan = parsed.to_plan()

    q = QueryEngine(index, nthreads=NTHREADS)
    try:
        # untimed warm-up — the planned run: it populates the DirMeta
        # cache with the bounds elision reads, which a plan-less run
        # (the lean record) neither reads nor caches
        q.run(spec, plan=plan)
        off = q.run(spec)
        on = q.run(spec, plan=plan)
        off_times = _times(lambda: q.run(spec), reps)
        on_times = _times(lambda: q.run(spec, plan=plan), reps)
    finally:
        q.close()

    off_med = statistics.median(off_times)
    on_med = statistics.median(on_times)
    assert sorted(on.rows) == sorted(off.rows), (
        "planned and unplanned runs disagree — the plan is not "
        "conservative"
    )
    return {
        "query": QUERY,
        "nthreads": NTHREADS,
        "reps": reps,
        "matches": len(on.rows),
        "dirs_visited": off.dirs_visited,
        "dbs_opened_off": off.dbs_opened,
        "dbs_opened_on": on.dbs_opened,
        "dirs_pruned_by_plan": on.dirs_pruned_by_plan,
        "attaches_elided": on.attaches_elided,
        "opens_ratio": (
            off.dbs_opened / on.dbs_opened
            if on.dbs_opened
            else float("inf")
        ),
        "off_median_s": off_med,
        "off_min_s": min(off_times),
        "on_median_s": on_med,
        "on_min_s": min(on_times),
        "speedup": off_med / on_med if on_med > 0 else float("inf"),
    }


def check_targets(report: dict, smoke: bool = False) -> None:
    assert report["dirs_pruned_by_plan"] > 0, "plan pruned nothing"
    assert report["attaches_elided"] > 0, "plan elided no attaches"
    if smoke:
        # CI runs on a tiny namespace where timing is all noise: the
        # correctness + counter assertions above are the smoke gate.
        return
    assert report["opens_ratio"] >= OPENS_RATIO_TARGET, (
        f"planning opened only {report['opens_ratio']:.1f}x fewer dbs "
        f"(target {OPENS_RATIO_TARGET}x): "
        f"{report['dbs_opened_on']} vs {report['dbs_opened_off']}"
    )
    assert report["speedup"] >= SPEEDUP_TARGET, (
        f"planned warm run only {report['speedup']:.2f}x faster "
        f"(target {SPEEDUP_TARGET}x)"
    )


def save_report(report: dict) -> Path:
    return save_bench_report("query_plan", report)


def _build_index(tmp_root: Path, smoke: bool):
    if smoke:
        tree = build_namespace(groups=4, dirs_per_group=5, match_every=7)
    else:
        tree = build_namespace()
    return dir2index(
        tree, tmp_root / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


def bench_query_plan(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    index = _build_index(tmp_path_factory.mktemp("plan"), smoke=False)
    report = run_plan_bench(index)
    _print(report)
    print(f"saved {save_report(report)}")
    check_targets(report)


def _print(report: dict) -> None:
    print(
        f"planning off: {report['dbs_opened_off']:5d} dbs opened, "
        f"{report['off_median_s'] * 1e3:8.2f}ms median"
    )
    print(
        f"planning on:  {report['dbs_opened_on']:5d} dbs opened, "
        f"{report['on_median_s'] * 1e3:8.2f}ms median "
        f"({report['dirs_pruned_by_plan']} pruned, "
        f"{report['attaches_elided']} attaches elided)"
    )
    print(
        f"-> {report['opens_ratio']:.1f}x fewer opens, "
        f"{report['speedup']:.2f}x faster, "
        f"{report['matches']} identical rows"
    )


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="tiny namespace; assert pruning + identical rows only",
    )
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="gufi_plan_") as td:
        index = _build_index(Path(td), smoke=args.smoke)
        report = run_plan_bench(index, reps=3 if args.smoke else REPS)
    _print(report)
    if not args.smoke:
        print(f"saved {save_report(report)}")
    check_targets(report, smoke=args.smoke)
    print("planning smoke OK" if args.smoke else "targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
