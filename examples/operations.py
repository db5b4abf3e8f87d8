#!/usr/bin/env python
"""Operations lifecycle: the 4-hour refresh loop, compressed (§III-A4).

What the paper's deployment does continuously, run end to end:

1. an :class:`IndexRefresher` builds version 0 from a consistent
   snapshot of the source system and publishes it by pointing the
   ``current`` symlink at it;
2. batch jobs mutate the source; queries keep answering from the
   published (slightly stale) version — "users are aware that even on
   live file systems namespace queries include out-of-date data";
3. the next refresh builds version 1 and swaps the link atomically;
   in-flight readers of v0 are undisturbed;
4. with two complete namespace snapshots on disk, the data-movement
   question ("what changed since last night?") is answered from the
   indexes alone — no source file system access;
5. the index is validated, rolled up, and characterised
   (``gufi_stats``) for the morning report.

Run:  python examples/operations.py
"""

from __future__ import annotations

import tempfile

from repro.core import (
    BuildOptions,
    QueryEngine,
    IndexRefresher,
    Q1_LIST_PATHS,
    collect_stats,
    render_stats,
    rollup,
    visible_db_count,
)
from repro.gen import Sampler, dataset2
from repro.store.doctor import doctor

NTHREADS = 4


def main() -> None:
    ns = dataset2(scale=0.0002, seed=97)
    tree = ns.tree
    pub = tempfile.mkdtemp(prefix="gufi_ops_")
    refresher = IndexRefresher(
        tree, pub, opts=BuildOptions(nthreads=NTHREADS), keep_versions=2
    )

    # --- cycle 1 -------------------------------------------------------
    rec0 = refresher.refresh()
    print(f"published v{rec0.version}: {rec0.dirs} dirs / {rec0.entries} "
          f"entries in {rec0.seconds:.1f}s -> {refresher.current_path}")

    # --- the data center runs ------------------------------------------
    sampler = Sampler(5)
    owner_uid = ns.spec.population.uids[0]
    tree.mkdir(f"/scratch/u{owner_uid}/run-0042", mode=0o700,
               uid=owner_uid, gid=owner_uid)
    for i in range(40):
        tree.create_file(
            f"/scratch/u{owner_uid}/run-0042/ts{i:04d}.ckpt",
            size=sampler.file_size(median=64 * 2**20, sigma=0.5),
            mode=0o600, uid=owner_uid, gid=owner_uid,
        )
    purged = ns.files[:25]
    for path in purged:
        tree.unlink(path)
    print(f"\nbatch jobs wrote 40 checkpoints; purge removed {len(purged)} files")

    # stale-but-consistent queries keep working against v0
    stale_rows = QueryEngine(refresher.current(), nthreads=NTHREADS).run(
        Q1_LIST_PATHS
    ).rows
    print(f"queries against published v0 still see {len(stale_rows)} entries "
          f"(stale by design until the next pull)")

    # --- cycle 2: build + atomic swap ----------------------------------
    rec1 = refresher.refresh()
    fresh_rows = QueryEngine(refresher.current(), nthreads=NTHREADS).run(
        Q1_LIST_PATHS
    ).rows
    print(f"\npublished v{rec1.version}; queries now see {len(fresh_rows)} "
          f"entries")
    assert len(fresh_rows) == len(stale_rows) + 40 - len(purged)

    # --- dual-snapshot data-movement report ----------------------------
    diff = refresher.diff_latest()
    print(f"\nsince last refresh: +{len(diff.created)} files, "
          f"-{len(diff.removed)}, {len(diff.resized)} resized, "
          f"net {diff.bytes_delta:+,} bytes")
    ckpts = [p for p in diff.created if "run-0042" in p]
    print(f"  (the new campaign accounts for {len(ckpts)} of the creations)")

    # --- morning hygiene -------------------------------------------------
    current = refresher.current()
    report = doctor(current)
    assert report.healthy
    stats_before = visible_db_count(current)
    rollup(current, limit=rec1.entries // 10, nthreads=NTHREADS)
    print(f"\nvalidated {report.dirs_seen} dirs; rollup "
          f"{stats_before} -> {visible_db_count(current)} visible DBs")
    stats = collect_stats(current, nthreads=NTHREADS)
    print()
    print(render_stats(stats))
    print("\nOK")


if __name__ == "__main__":
    main()
