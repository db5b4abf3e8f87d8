#!/usr/bin/env python
"""Administrator reporting: the nightly-jobs workload (§II) without
touching the production file system.

Demonstrates the admin-side features:

1. per-user / per-group space accounting (quota enforcement);
2. purge-policy candidates: large files untouched past a threshold;
3. tree summaries (``bfti``) making whole-tree questions one-row reads;
4. dual-snapshot churn measurement (§III-A4): what moved between two
   index builds;
5. schema extensibility (§III-B): an admin adds a custom table to a
   copied index and queries it — "the same tools that query the index
   can be used to add tables and views".

Run:  python examples/admin_reports.py
"""

from __future__ import annotations

import sqlite3
import tempfile

from repro.core import (
    BuildOptions,
    QueryEngine,
    GUFITools,
    QuerySpec,
    build_tsummary,
    dir2index,
    rollup,
)
from repro.fs import diff_snapshots, snapshot
from repro.gen import dataset2
from repro.store import connect

NTHREADS = 4
HORIZON = 3 * 365 * 86400  # generator's "now"


def main() -> None:
    print("generating production-like scratch namespace...")
    ns = dataset2(scale=0.0003, seed=41)
    tree = ns.tree
    snap_nightly = snapshot(tree)  # last night's scan

    index_root = tempfile.mkdtemp(prefix="gufi_admin_")
    built = dir2index(snap_nightly, index_root,
                      opts=BuildOptions(nthreads=NTHREADS))
    rollup(built.index, limit=built.entries_inserted // 10, nthreads=NTHREADS)
    idx = built.index
    tools = GUFITools(idx, nthreads=NTHREADS)

    # 1. Space accounting --------------------------------------------
    usage = tools.space_by_user("/")
    print("\n== space by user (top 5) ==")
    for uid, nbytes in sorted(usage.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  u{uid:<6} {nbytes:>16,} bytes")

    # 2. Purge candidates ---------------------------------------------
    cutoff = HORIZON - 365 * 86400  # untouched for a year
    purge_spec = QuerySpec(
        I="CREATE TABLE stale (p TEXT, uid INTEGER, size INTEGER)",
        E=(
            "INSERT INTO stale "
            "SELECT rpath(dname, d_isroot, name), uid, size FROM vrpentries "
            f"WHERE type='f' AND mtime < {cutoff} AND size > 1048576"
        ),
        J="INSERT INTO aggregate.stale SELECT p, uid, size FROM stale",
        G="SELECT uid, COUNT(*), TOTAL(size) FROM stale GROUP BY uid "
          "ORDER BY TOTAL(size) DESC LIMIT 5",
    )
    result = QueryEngine(idx, nthreads=NTHREADS).run(purge_spec)
    print("\n== purge candidates: >1MiB files idle for a year, by user ==")
    for uid, count, nbytes in result.rows:
        print(f"  u{int(uid):<6} {int(count):>6} files  {int(nbytes):>16,} bytes")

    # 3. Tree summaries ------------------------------------------------
    ts = build_tsummary(idx, "/")
    whole_tree = QueryEngine(idx, nthreads=NTHREADS).run(
        QuerySpec(T="SELECT totfiles, totsubdirs, totsize FROM tsummary "
                    "WHERE rectype = 0")
    )
    files, dirs, size = whole_tree.rows[0]
    print(f"\n== tree summary (built in {ts.seconds:.2f}s, answered from "
          f"{whole_tree.dirs_visited} database) ==")
    print(f"  {files:,} files, {dirs:,} dirs, {int(size):,} bytes")

    # 4. Churn between snapshots ---------------------------------------
    # batch jobs mutate the live tree after the nightly scan...
    tree.mkdir("/scratch/new-campaign", mode=0o755, uid=1001, gid=1001)
    for i in range(25):
        tree.create_file(f"/scratch/new-campaign/step{i:03d}.ckpt",
                         size=50 * 1024 * 1024, uid=1001, gid=1001)
    for path in ns.files[:15]:
        tree.unlink(path)
    snap_tonight = snapshot(tree)
    diff = diff_snapshots(snap_nightly, snap_tonight)
    print("\n== churn since last index build (dual-snapshot diff) ==")
    print(f"  created {len(diff.created)}, removed {len(diff.removed)}, "
          f"changed {len(diff.changed)}; net {diff.bytes_delta:+,} bytes")

    # 5. Schema extensibility ------------------------------------------
    # Admins may open databases read-write and extend the schema; here
    # we tag the root database with a scan-provenance table, exactly
    # the "copy, modify schema, adopt" flow §III-B describes.
    conn = connect.open_rw(idx.db_path("/"))
    conn.execute("CREATE TABLE IF NOT EXISTS provenance "
                 "(scanner TEXT, scanned_at INTEGER, churn INTEGER)")
    conn.execute("INSERT INTO provenance VALUES (?,?,?)",
                 ("treewalk", HORIZON, diff.total_mutations))
    conn.close()
    check = sqlite3.connect(f"file:{idx.db_path('/')}?mode=ro", uri=True)
    row = check.execute("SELECT scanner, churn FROM provenance").fetchone()
    check.close()
    print(f"\n== custom schema extension == provenance row: {row}")
    print("\nOK")


if __name__ == "__main__":
    main()
