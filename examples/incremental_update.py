#!/usr/bin/env python
"""Incremental index updates and the emergency-visibility-fix flow.

The index is normally rebuilt on a schedule (the paper's site: every
4 hours), so it is minutes-to-hours stale. Two situations need the
single-directory update tool (§III-A3):

* a data-transfer tool just rewrote a directory and wants the index
  current *now*;
* a user exposed sensitive information in file names/metadata and
  must make it invisible immediately — waiting for the next rebuild
  is not acceptable.

This example also shows the interaction with rollup: updating a
directory that was merged into an ancestor undoes only the rollups on
the root-to-target path (each directory's rollup is independently
reversible, §III-C3), leaving sibling subtrees merged.

Run:  python examples/incremental_update.py
"""

from __future__ import annotations

import tempfile

from repro.core import (
    BuildOptions,
    QueryEngine,
    QuerySpec,
    dir2index,
    rollup,
    update_directory,
    visible_db_count,
)
from repro.fs import Credentials
from repro.gen import dataset2

NTHREADS = 4
FIND_NAMES = QuerySpec(E="SELECT rpath(dname, d_isroot, name) FROM vrpentries")


def main() -> None:
    ns = dataset2(scale=0.0002, seed=61)
    tree = ns.tree
    index_root = tempfile.mkdtemp(prefix="gufi_update_")
    built = dir2index(tree, index_root, opts=BuildOptions(nthreads=NTHREADS))
    idx = built.index
    rollup(idx, limit=built.entries_inserted // 10, nthreads=NTHREADS)
    print(f"index built and rolled up: {visible_db_count(idx)} visible "
          f"databases for {built.dirs_created} directories")

    pop = ns.spec.population
    victim_uid = pop.uids[0]
    victim = Credentials(uid=victim_uid, gid=pop.primary_gid[victim_uid])
    snoop_uid = pop.uids[1]
    snoop = Credentials(uid=snoop_uid, gid=pop.primary_gid[snoop_uid])

    # The victim accidentally creates a world-visible directory whose
    # *file names* leak a secret (names are metadata — visible to
    # anyone who can list the directory, §III-A1).
    leak_dir = f"/scratch/u{victim_uid}/oops-public"
    tree.mkdir(leak_dir, mode=0o755, uid=victim_uid, gid=victim_uid)
    tree.create_file(f"{leak_dir}/merger-target-ACME.docx", size=100,
                     mode=0o600, uid=victim_uid, gid=victim_uid)
    # ... and their home area must be listable for the leak to matter
    tree.chmod(f"/scratch/u{victim_uid}", 0o755, victim)
    update_directory(idx, tree, f"/scratch/u{victim_uid}")
    result = update_directory(idx, tree, leak_dir)
    print(f"\nleak indexed (unrolled {len(result.unrolled_dirs)} dirs on "
          f"the path): {result.unrolled_dirs}")

    q_snoop = QueryEngine(idx, creds=snoop, nthreads=NTHREADS)
    leaked = [r[0] for r in q_snoop.run(FIND_NAMES).rows if "ACME" in r[0]]
    print(f"snoop u{snoop_uid} can see: {leaked}")
    assert leaked, "the leak should be visible before the fix"

    # --- the emergency fix -------------------------------------------
    # The victim chmods the directory private on the source file system
    # and requests an immediate index update for that one directory.
    tree.chmod(leak_dir, 0o700, victim)
    result = update_directory(idx, tree, leak_dir)
    print(f"\nfix applied in {result.seconds * 1000:.0f} ms "
          f"(re-indexed {result.entries_indexed} entries, one directory)")

    leaked = [r[0] for r in q_snoop.run(FIND_NAMES).rows if "ACME" in r[0]]
    print(f"snoop u{snoop_uid} can now see: {leaked}")
    assert not leaked, "the fix must take effect immediately"

    # The owner still sees their own file, of course.
    q_victim = QueryEngine(idx, creds=victim, nthreads=NTHREADS)
    mine = [r[0] for r in q_victim.run(FIND_NAMES).rows if "ACME" in r[0]]
    assert mine
    print(f"owner u{victim_uid} still sees: {mine}")

    # --- data-transfer refresh ----------------------------------------
    # A transfer tool rewrites a directory wholesale and refreshes it.
    xfer_dir = ns.dirs[len(ns.dirs) // 3]
    owner = tree.get_inode(xfer_dir)
    for i in range(5):
        tree.create_file(f"{xfer_dir}/transferred-{i}.dat", size=2**20,
                         uid=owner.uid, gid=owner.gid)
    update_directory(idx, tree, xfer_dir)
    q = QueryEngine(idx, nthreads=NTHREADS)
    fresh = [r[0] for r in q.run(FIND_NAMES).rows if "transferred-" in r[0]]
    print(f"\ntransfer refresh: {len(fresh)} new files visible immediately")
    assert len(fresh) == 5
    print("\nOK")


if __name__ == "__main__":
    main()
