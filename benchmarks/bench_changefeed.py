"""Changefeed incremental indexing: O(changes), not O(tree).

The paper's pull-interval refresh pays a full rebuild per cycle no
matter how little changed (§III-A4). The changefeed consumer
(:func:`repro.core.changefeed.changefeed2index`) pays for the *delta*:
this bench applies a fixed-size mutation batch to namespaces of
doubling size and records the incremental apply time next to a full
``dir2index`` rebuild of the same mutated tree — the rebuild cost
grows with the tree, the apply cost stays flat with the batch.

Correctness gates the timing claim: at every scale the incrementally
updated index must answer Q1 byte-identically to the from-scratch
rebuild before any number is reported, and the root tree summary the
applies refreshed on their one warm handle — folding contributions the
rebuilds handed over — must equal ``bfti`` on a fresh handle.

Honesty matters more than the headline: the report records the CPUs
this process may run on, the thread-pool width, and the batch size.
The speedup target is only asserted at the largest scale of the full
run — a smoke run on a tiny tree asserts equivalence, not timing.

Run standalone:  PYTHONPATH=src python benchmarks/bench_changefeed.py
CI smoke:        PYTHONPATH=src python benchmarks/bench_changefeed.py --smoke
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_helpers import NTHREADS, save_bench_report

from repro.core.build import BuildOptions, dir2index
from repro.core.changefeed import changefeed2index
from repro.core.engine import QueryEngine
from repro.core.index import GUFIIndex
from repro.core.query import Q1_LIST_PATHS
from repro.core.tsummary import build_tsummary
from repro.fs.changelog import ChangeJournal
from repro.gen.datasets import dataset2
from repro.gen.namespace import NamespaceMutator
from repro.scan.walker import default_worker_count

#: mutations per applied batch — the "changes" in O(changes)
BATCH = 40
#: batches applied per scale; the median apply time is reported
BATCHES = 3
SCALES = (0.0002, 0.0004, 0.0008)
SMOKE_SCALES = (0.0001, 0.0002)
#: full-run target: incremental apply beats the full rebuild by this
#: factor at the largest scale
SPEEDUP_TARGET = 2.0


def query_rows(index) -> list:
    q = QueryEngine(index, nthreads=NTHREADS)
    try:
        return sorted(q.run(Q1_LIST_PATHS).rows)
    finally:
        q.close()


def root_tsummary_rows(index_root: Path) -> list:
    conn = GUFIIndex(index_root).store("/").open_ro()
    try:
        return sorted(conn.execute("SELECT * FROM tsummary"))
    finally:
        conn.close()


def tsummary_matches_fresh(index: GUFIIndex) -> bool:
    """The root tree summary the applies left on ``index`` (a warm
    handle) equals what ``bfti`` writes through a fresh one — a wrong
    memoised contribution shows here."""
    warm = root_tsummary_rows(index.root)
    build_tsummary(GUFIIndex.open(index.root), "/")
    return bool(warm) and warm == root_tsummary_rows(index.root)


def bench_one_scale(tmp_root: Path, scale: float, seed: int = 7) -> dict:
    opts = BuildOptions(nthreads=NTHREADS)
    ns = dataset2(scale=scale, seed=seed)
    index = dir2index(ns.tree, tmp_root / "idx", opts=opts).index
    # a root tree summary, refreshed by every apply on this handle
    build_tsummary(index, "/")
    journal = ChangeJournal()
    ns.tree.set_changelog(journal)
    mut = NamespaceMutator(ns, seed=seed)

    apply_times: list[float] = []
    events_applied = dirs_rebuilt = 0
    for _ in range(BATCHES):
        mut.mutate(BATCH)
        t0 = time.monotonic()
        result = changefeed2index(index, ns.tree, journal, opts=opts)
        apply_times.append(time.monotonic() - t0)
        events_applied += result.events_applied
        dirs_rebuilt += result.dirs_rebuilt

    # full rebuild of the *same* mutated tree — the O(tree) baseline
    rebuild_times: list[float] = []
    fresh_index = None
    for i in range(BATCHES):
        t0 = time.monotonic()
        fresh_index = dir2index(
            ns.tree, tmp_root / f"fresh{i}", opts=opts
        ).index
        rebuild_times.append(time.monotonic() - t0)

    identical = query_rows(index) == query_rows(fresh_index)
    assert identical, f"scale {scale}: incremental index diverged"
    assert tsummary_matches_fresh(index), (
        f"scale {scale}: refreshed root tsummary differs from a fresh bfti"
    )

    inc = statistics.median(apply_times)
    full = statistics.median(rebuild_times)
    row = {
        "dirs": len(ns.dirs),
        "files": len(ns.files),
        "events_applied": events_applied,
        "dirs_rebuilt": dirs_rebuilt,
        "incremental_median_s": inc,
        "full_rebuild_median_s": full,
        "speedup": full / inc if inc > 0 else float("inf"),
        "identical_rows": identical,
    }
    print(
        f"scale {scale:<7} {row['dirs']:>5} dirs  "
        f"apply {inc * 1e3:8.1f}ms  rebuild {full * 1e3:8.1f}ms  "
        f"speedup {row['speedup']:6.2f}x  rows identical"
    )
    return row


def run_bench(tmp_root: Path, scales) -> dict:
    report = {
        "cpus": default_worker_count(),
        "nthreads": NTHREADS,
        "batch_mutations": BATCH,
        "batches": BATCHES,
        "scales": {},
    }
    for scale in scales:
        sub = tmp_root / f"s{scale}"
        sub.mkdir(parents=True, exist_ok=True)
        report["scales"][str(scale)] = bench_one_scale(sub, scale)
    return report


def check_targets(report: dict, smoke: bool) -> None:
    rows = list(report["scales"].values())
    for row in rows:
        assert row["identical_rows"]
    if smoke or len(rows) < 2:
        return
    smallest, largest = rows[0], rows[-1]
    # O(tree): the rebuild grows with the namespace...
    growth_full = (
        largest["full_rebuild_median_s"]
        / smallest["full_rebuild_median_s"]
    )
    # ...O(changes): the apply must grow strictly slower
    growth_inc = (
        largest["incremental_median_s"]
        / smallest["incremental_median_s"]
    )
    assert growth_inc < growth_full, (
        f"apply cost grew {growth_inc:.2f}x vs rebuild {growth_full:.2f}x "
        "— incremental path is not O(changes)"
    )
    assert largest["speedup"] >= SPEEDUP_TARGET, (
        f"{largest['speedup']:.2f}x at the largest scale "
        f"(target {SPEEDUP_TARGET}x)"
    )


def save_report(report: dict) -> Path:
    return save_bench_report("changefeed", report)


def bench_changefeed(tmp_path_factory):
    """pytest entry point (collected by the bench_* convention)."""
    report = run_bench(
        tmp_path_factory.mktemp("changefeed"), SMOKE_SCALES
    )
    check_targets(report, smoke=True)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two tiny scales, correctness-only: identical rows after "
        "every applied batch; timing recorded but not asserted",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    with tempfile.TemporaryDirectory(prefix="gufi_changefeed_") as td:
        report = run_bench(Path(td), scales)
        check_targets(report, smoke=args.smoke)
        if args.smoke:
            print(
                "smoke ok: incremental apply identical to full rebuild "
                f"at every scale ({BATCHES}x{BATCH} mutations each), "
                "root tsummary equal to a fresh bfti"
            )
        else:
            print(f"saved {save_report(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
