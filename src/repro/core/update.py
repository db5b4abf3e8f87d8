"""Incremental index updates (paper §III-A3/§III-A4).

The index is rebuilt wholesale on a schedule (the paper's site uses a
4-hour pull interval), but two situations need immediate, surgical
updates:

* a file-transfer tool just rewrote one directory and wants the index
  to reflect it now;
* a user realises they exposed sensitive names/metadata and needs a
  visibility change honoured *immediately* (the security use the
  paper highlights).

:func:`update_directory` re-scans a single source directory and
replaces that directory's index database (entries, summary, xattr
shards, preserved permissions). If the directory's data was rolled up
into an ancestor, the rollups on the root-to-target path are undone
first — each directory's rollup is independently reversible, so only
the path is touched, not the whole subtree (§III-C3).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro.fs.inode import FileType
from repro.fs.tree import VFSTree
from repro.scan.scanners import record_from_inode

from .build import BuildOptions, DirRows, build_dir_db, dir_rows
from .index import GUFIIndex
from .rollup import unrollup_dir


@dataclass
class UpdateResult:
    seconds: float
    unrolled_dirs: list[str]
    entries_indexed: int


def unroll_path_to(
    index: GUFIIndex,
    target: str,
    checked: set[str] | None = None,
    faults: Any | None = None,
) -> list[str]:
    """Undo rollups on every directory from the root down to (and
    including) ``target`` so the target's database is authoritative
    again. Off-path siblings keep their rollups.

    ``checked`` is a caller-owned set of directories already known not
    to be rolled up: members are skipped and every directory verified
    (or unrolled) here is added, so a batch of targets checks each
    shared ancestor once. The caller empties it when it moves or
    removes a directory. ``faults`` is threaded into
    :func:`~repro.core.rollup.unrollup_dir` (site ``"unrollup_dir"``).
    """
    parts = [p for p in target.split("/") if p]
    unrolled = []
    paths = ["/"] + [
        "/" + "/".join(parts[: i + 1]) for i in range(len(parts))
    ]
    for sp in paths:
        if checked is not None and sp in checked:
            continue
        db_path = index.db_path(sp)
        if not db_path.exists():
            continue
        meta = index.dir_meta(sp)
        if meta.rolledup:
            unrollup_dir(index, sp, faults)
            unrolled.append(sp)
        if checked is not None:
            checked.add(sp)
    return unrolled


def update_directory(
    index: GUFIIndex,
    tree: VFSTree,
    source_path: str,
    opts: BuildOptions | None = None,
    recursive: bool = False,
) -> UpdateResult:
    """Re-scan ``source_path`` on the live source tree and replace its
    index database(s).

    Non-recursive (default, matching the paper's tool): only the named
    directory's own entries, permissions, and xattr shards are
    refreshed; existing sub-directory databases are left alone.
    ``recursive=True`` additionally rebuilds the whole subtree
    (removing index directories whose source directories vanished).
    """
    opts = opts or BuildOptions()
    t0 = time.monotonic()
    source_path = "/" + "/".join(p for p in source_path.split("/") if p)
    unrolled = unroll_path_to(index, source_path)

    targets = [source_path]
    if recursive:
        targets = []
        queue = [source_path]
        while queue:
            d = queue.pop()
            targets.append(d)
            prefix = "" if d == "/" else d
            for e in tree.readdir(d):
                if e.ftype is FileType.DIRECTORY:
                    queue.append(f"{prefix}/{e.name}")
        _prune_stale_index_dirs(index, tree, source_path)

    total_entries = 0
    for d in targets:
        stanza = scan_single_dir(tree, d)
        # published over the old database: a reader racing the update
        # (or arriving after a crash inside it) finds one or the other
        n, _ = build_dir_db(index, stanza, opts)
        total_entries += n
        # Invalidate before returning so no warm query session can
        # observe the pre-update mode/uid/gid — the security use case
        # (user exposed something, chmod'd, asked for an update) must
        # be honoured by the very next query.
        index.invalidate_cache(d)
    if recursive:
        index.cache.invalidate_subtree(source_path)
    return UpdateResult(
        seconds=time.monotonic() - t0,
        unrolled_dirs=unrolled,
        entries_indexed=total_entries,
    )


def scan_single_dir(tree: VFSTree, source_path: str) -> DirRows:
    """Rescan one live directory into what
    :func:`~repro.core.build.build_dir_db` writes: the directory's
    record (taken before the listing bumps its atime), then one
    READDIRPLUS whose inodes become ``entries`` rows in the same pass
    (:func:`~repro.core.build.dir_rows`). No trace record is made per
    entry — only for the entries that carry xattrs."""
    directory = record_from_inode(source_path, tree.get_inode(source_path))
    return dir_rows(directory, tree.readdir_plus(source_path))


def _prune_stale_index_dirs(
    index: GUFIIndex, tree: VFSTree, source_path: str
) -> list[str]:
    """Delete index directories whose source directories no longer
    exist (recursive updates only)."""
    import shutil
    from pathlib import Path

    removed = []
    base = index.index_dir(source_path)
    for dirpath, dirnames, _ in os.walk(base, topdown=True):
        keep = []
        for name in sorted(dirnames):
            idx_dir = os.path.join(dirpath, name)
            sp = index.source_path(Path(idx_dir))
            if tree.exists(sp):
                keep.append(name)
            else:
                shutil.rmtree(idx_dir, ignore_errors=True)
                removed.append(sp)
        dirnames[:] = keep
    return removed
