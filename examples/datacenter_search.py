#!/usr/bin/env python
"""Data-center-wide search: multiple file systems, one index, one
restricted access point (paper Figs 2-4).

The full deployment story in one script:

1. three source "file systems" (home NFS, Lustre scratch, a kernel
   source mirror) are each scanned with the scanner suited to them
   and indexed separately;
2. the per-filesystem indexes are **grafted** under one data-center
   /Search root (the index is composable — §I);
3. a :class:`GUFIServer` fronts the unified index behind an LDAP-like
   identity provider and a restricted tool whitelist (Fig 4);
4. users query through the server — raw SQL, the web portal's canned
   reports and its search bar alike: cross-filesystem,
   permission-gated, re-authenticated per query;
5. one file system is decommissioned and **pruned** from the index.

Run:  python examples/datacenter_search.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import (
    BuildOptions,
    GUFIServer,
    IdentityProvider,
    Q1_LIST_PATHS,
    ToolNotAllowed,
    dir2index,
    graft,
    prune,
    rollup,
)
from repro.gen import dataset1, dataset2, linux_kernel_tree
from repro.scan import LesterScanner
from repro.store.doctor import doctor
from repro.core.build import build_from_stanzas

NTHREADS = 4


def main() -> None:
    base = Path(tempfile.mkdtemp(prefix="gufi_dc_"))

    # 1. Index each source system with its appropriate scanner.
    print("indexing three source file systems...")
    home = dataset1(scale=0.0002, seed=7)
    home_idx = dir2index(home.tree, base / "idx-home",
                         opts=BuildOptions(nthreads=NTHREADS))
    scratch = dataset2(scale=0.0002, seed=8)
    # Lustre: use the fast inode-table (Lester) scan, then ingest.
    stanzas = LesterScanner(scratch.tree).scan("/").stanzas
    scratch_idx = build_from_stanzas(stanzas, base / "idx-scratch",
                                     BuildOptions(nthreads=NTHREADS))
    kernel = linux_kernel_tree(scale=0.05)
    kernel_idx = dir2index(kernel.tree, base / "idx-kernel",
                           opts=BuildOptions(nthreads=NTHREADS))
    for label, built in (("home", home_idx), ("scratch", scratch_idx),
                         ("kernel", kernel_idx)):
        print(f"  {label}: {built.dirs_created} dirs, "
              f"{built.entries_inserted} entries")

    # 2. Compose them under one /Search root.
    from repro.core import GUFIIndex

    search = GUFIIndex.create(base / "search", source_name="datacenter")
    graft(search, home_idx.index, src_subtree="/home", at="/nfs-home/home")
    graft(search, scratch_idx.index, src_subtree="/scratch",
          at="/lustre-scratch/scratch")
    graft(search, kernel_idx.index, src_subtree="/linux",
          at="/mirrors/linux")
    from repro.core.compose import ensure_dir_db

    ensure_dir_db(search, "/")
    rollup(search, nthreads=NTHREADS)
    report = doctor(search)
    print(f"\nunified index: {report.dirs_seen} directories, "
          f"{'healthy' if report.healthy else report}")

    # 3. Access layer.
    idp = IdentityProvider()
    pop = home.spec.population
    for uid in pop.uids[:6]:
        idp.add_user(f"user{uid}", uid=uid, gid=pop.primary_gid[uid])
    idp.add_user("admin", uid=0, gid=0)
    server = GUFIServer(search, idp, nthreads=NTHREADS)

    # 4. Queries through the restricted shell.
    username = f"user{pop.uids[0]}"
    mine = server.invoke(username, "query", spec=Q1_LIST_PATHS)
    admin_all = server.invoke("admin", "query", spec=Q1_LIST_PATHS)
    print(f"\n{username} sees {len(mine.rows)} entries across the data "
          f"center (admin sees {len(admin_all.rows)})")
    fs_hit = {p.split('/')[1] for p, in mine.rows}
    print(f"  file systems with hits for {username}: {sorted(fs_hit)}")
    top = server.invoke(username, "largest_files", limit=3)
    print(f"  portal 'my largest files': {[(s, p) for p, s in top]}")
    found = server.invoke(username, "search", query="type:f size>>1k")
    print(f"  portal search 'type:f size>>1k': {len(found.rows)} matches")

    try:
        server.invoke(username, "rollup")
    except ToolNotAllowed as exc:
        print(f"  restricted shell refused admin tool: {exc}")

    # 5. Decommission the kernel mirror.
    prune(search, "/mirrors")
    after = server.invoke("admin", "query", spec=Q1_LIST_PATHS)
    assert not any(p.startswith("/mirrors") for p, in after.rows)
    print(f"\npruned /mirrors: admin now sees {len(after.rows)} entries")
    print(f"audit log holds {len(server.audit_log)} invocations")
    print("\nOK")


if __name__ == "__main__":
    main()
