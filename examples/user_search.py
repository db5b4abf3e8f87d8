#!/usr/bin/env python
"""Unprivileged user search, including secure xattr-tag search.

The paper's motivating user story (§II): a researcher needs to find
their own files — by name, by age, by size, by data-label — across a
huge shared scratch system, interactively, without being able to see
anyone else's private data and without burning compute-node hours on
parallel `find`.

This example:

1. builds a scratch namespace where files carry ``user.experiment``
   xattr labels (AI data-labelling, §III-A2 motivation);
2. shows a user searching *their* world by name, size, and staleness;
3. shows xattr-label search through the per-user/per-group sharded
   xattr databases — another user's private labels stay invisible;
4. demonstrates that query cost tracks the user's accessible data,
   not index size.

Run:  python examples/user_search.py
"""

from __future__ import annotations

import tempfile

from repro.core import (
    BuildOptions,
    FindFilters,
    QueryEngine,
    GUFITools,
    Q1_LIST_NAMES,
    dir2index,
)
from repro.fs import Credentials
from repro.gen import Sampler, dataset2

NTHREADS = 4


def main() -> None:
    print("generating labelled scratch namespace...")
    ns = dataset2(scale=0.0002, seed=5)
    tree = ns.tree

    # Label ~30% of files with an experiment tag, owned per-file.
    sampler = Sampler(99)
    labelled = 0
    for path in ns.files:
        if sampler.rng.random() < 0.3:
            ino = tree.get_inode(path)
            exp = f"exp-{sampler.rng.randint(1, 5):03d}"
            tree.setxattr(path, "user.experiment", exp.encode())
            labelled += 1
    print(f"  {labelled} files labelled with user.experiment tags")

    index_root = tempfile.mkdtemp(prefix="gufi_usersearch_")
    built = dir2index(tree, index_root, opts=BuildOptions(nthreads=NTHREADS))
    print(f"  indexed {built.entries_inserted} entries "
          f"({built.side_dbs_created} per-user/group xattr side databases)")

    pop = ns.spec.population
    uid = pop.uids[0]
    me = Credentials(uid=uid, gid=pop.primary_gid[uid])
    tools = GUFITools(built.index, creds=me, nthreads=NTHREADS)

    # --- name search -------------------------------------------------
    hits = tools.find("/", FindFilters(name_like="%.h5"))
    print(f"\n[u{uid}] *.h5 files I can see: {len(hits.rows)}")

    # --- large-and-stale search (purge-policy self-audit, §II) -------
    horizon = 3 * 365 * 86400
    stale = tools.find(
        "/",
        FindFilters(uid=uid, min_size=10 * 1024 * 1024,
                    mtime_before=horizon - 180 * 86400),
    )
    total = sum(r[2] for r in stale.rows)
    print(f"[u{uid}] my files >10MiB untouched for 180 days: "
          f"{len(stale.rows)} ({total:,} bytes at purge risk)")

    # --- xattr label search ------------------------------------------
    result = tools.xattr_search("exp-001")
    print(f"[u{uid}] files labelled exp-001 that I may see: "
          f"{len(result.rows)}")

    # --- security: another user's labels stay invisible --------------
    other_uid = pop.uids[1]
    other = Credentials(uid=other_uid, gid=pop.primary_gid[other_uid])
    mine = {r[0] for r in tools.xattr_search("exp-").rows}
    theirs = {
        r[0]
        for r in GUFITools(built.index, creds=other, nthreads=NTHREADS)
        .xattr_search("exp-").rows
    }
    admin = {
        r[0]
        for r in GUFITools(built.index, nthreads=NTHREADS)
        .xattr_search("exp-").rows
    }
    print(f"\nlabel visibility: admin {len(admin)}, "
          f"u{uid} {len(mine)}, u{other_uid} {len(theirs)}")
    assert mine <= admin and theirs <= admin

    # --- cost proportionality (§III-C2) -------------------------------
    q_admin = QueryEngine(built.index, nthreads=NTHREADS)
    q_me = QueryEngine(built.index, creds=me, nthreads=NTHREADS)
    ra = q_admin.run(Q1_LIST_NAMES)
    rm = q_me.run(Q1_LIST_NAMES)
    print(f"\nquery cost: admin read {ra.dirs_visited} databases, "
          f"u{uid} read {rm.dirs_visited} — user queries cost what the "
          f"user can see, not what the index holds")
    assert rm.dirs_visited <= ra.dirs_visited
    print("\nOK")


if __name__ == "__main__":
    main()
