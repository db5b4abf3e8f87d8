#!/usr/bin/env python
"""Quickstart: build a GUFI index and query it as root and as a user.

This walks the library's core loop end to end:

1. generate a small multi-user namespace (stands in for a production
   file system — see ``repro.fs`` / ``repro.gen``);
2. scan it and build the per-directory SQLite index (``dir2index``);
3. run the paper's flagship queries as an administrator;
4. run the same queries as an unprivileged user and watch both the
   results *and the work performed* shrink to what that user may see;
5. roll the index up and confirm queries get faster, not different.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.core import (
    BuildOptions,
    QueryEngine,
    GUFITools,
    Q1_LIST_PATHS,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    build_tsummary,
    dir2index,
    rollup,
    visible_db_count,
)
from repro.fs import Credentials
from repro.gen import dataset2

NTHREADS = 4


def main() -> None:
    # 1. A scratch-file-system-shaped namespace: ~600 dirs, ~18K files,
    #    heavy-tailed ownership across a dozen users.
    print("generating namespace...")
    ns = dataset2(scale=0.0003)
    tree = ns.tree
    print(f"  {tree.num_dirs} dirs, {tree.num_files} files, "
          f"{tree.num_symlinks} symlinks")

    # 2. Build the index: one SQLite database per directory, mirroring
    #    the source tree's structure, owners, and permission bits.
    index_root = tempfile.mkdtemp(prefix="gufi_quickstart_")
    print(f"building index at {index_root} ...")
    built = dir2index(tree, index_root, opts=BuildOptions(nthreads=NTHREADS))
    print(f"  {built.dirs_created} databases, "
          f"{built.entries_inserted} entries, {built.seconds:.1f}s")

    # 3. Administrator queries.
    admin = QueryEngine(built.index, nthreads=NTHREADS)
    r1 = admin.run(Q1_LIST_PATHS)
    print(f"\nadmin: {len(r1.rows)} entries listed in {r1.elapsed:.2f}s "
          f"({r1.dirs_visited} databases)")
    r3 = admin.run(Q3_DU_SUMMARIES)
    print(f"admin: total space {int(r3.rows[-1][0]):,} bytes "
          f"(du via summary tables, {r3.elapsed:.2f}s)")

    # 4. The same query as an unprivileged user: the engine descends
    #    only directories the user could traverse on the real file
    #    system, so both the answer and the cost shrink.
    uid = ns.spec.population.uids[0]
    user = Credentials(uid=uid, gid=uid)
    uq = QueryEngine(built.index, creds=user, nthreads=NTHREADS)
    ru = uq.run(Q1_LIST_PATHS)
    print(f"\nuser u{uid}: {len(ru.rows)} entries visible "
          f"({ru.dirs_visited} databases read, {ru.dirs_denied} denied)")

    tools = GUFITools(built.index, creds=user, nthreads=NTHREADS)
    print(f"user u{uid}: 3 largest files:")
    for path, size in tools.largest_files(limit=3):
        print(f"  {size:>14,}  {path}")

    # 5. Rollup: merge permission-compatible subtrees so queries open
    #    far fewer databases — answers must not change.
    print("\nrolling up ...")
    stats = rollup(built.index, limit=built.entries_inserted // 10,
                   nthreads=NTHREADS)
    print(f"  {stats.rolled} dirs absorbed children "
          f"({stats.blocked_perms} blocked by permissions); "
          f"visible databases: {built.dirs_created} -> "
          f"{visible_db_count(built.index)}")
    r1b = admin.run(Q1_LIST_PATHS)
    assert sorted(r1b.rows) == sorted(r1.rows), "rollup changed results!"
    print(f"  same {len(r1b.rows)} rows from {r1b.dirs_visited} databases "
          f"in {r1b.elapsed:.2f}s")

    # Bonus: build the tree summary and answer du from a single row.
    build_tsummary(built.index, "/")
    r4 = admin.run(Q4_DU_TSUMMARY)
    print(f"\ndu via tsummary: {int(r4.rows[0][0]):,} bytes from "
          f"{r4.dirs_visited} database read (the paper's 230x query)")
    assert int(r4.rows[0][0]) == int(r3.rows[-1][0])
    print("\nOK — see examples/user_search.py and examples/admin_reports.py")


if __name__ == "__main__":
    main()
