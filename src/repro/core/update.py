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
shards, preserved permissions). It is a changefeed apply
(:func:`~repro.core.changefeed.apply_delta`) of one dirty directory,
so it does what a changefeed does for the same change: the rollups on
the root-to-target path are undone first — each directory's rollup is
independently reversible, so only the path is touched, not the whole
subtree (§III-C3) — the caches hear of the write, and the tree
summaries above the directory are refreshed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.fs.tree import VFSTree
from repro.scan.scanners import record_from_inode

from .build import BuildOptions, DirRows, dir_rows
from .index import GUFIIndex
from .rollup import unrollup_dir

if TYPE_CHECKING:
    from .changefeed import ApplyResult


def unroll_path_to(
    index: GUFIIndex,
    target: str,
    checked: set[str] | None = None,
    faults: Any | None = None,
    watched: bool = False,
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
    Each directory is one lookup through the handle's cache (no stat
    for a clean record when ``watched``, see :meth:`GUFIIndex.sync`):
    a missing database is skipped, an unreadable one raises.
    """
    parts = [p for p in target.split("/") if p]
    unrolled = []
    paths = ["/"] + [
        "/" + "/".join(parts[: i + 1]) for i in range(len(parts))
    ]
    for sp in paths:
        if checked is not None and sp in checked:
            continue
        meta = index.cached_dir_meta(sp, watched)
        if meta is None:  # missing, or unreadable: then this raises
            if not index.db_path(sp).exists():
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
) -> ApplyResult:
    """Re-scan ``source_path`` on the live source tree and replace its
    index database(s).

    Non-recursive (default, matching the paper's tool): only the named
    directory's own entries, permissions, and xattr shards are
    refreshed; existing sub-directory databases are left alone.
    ``recursive=True`` additionally rebuilds the whole subtree. An
    index directory whose source directory vanished is removed.
    """
    from .changefeed import apply_delta

    source_path = "/" + "/".join(p for p in source_path.split("/") if p)
    dirty = {source_path}
    if recursive:
        dirty.update(d for d, _dirs, _files in tree.walk(source_path))
        dirty.update(d for d, _names in index.iter_tree(source_path))
    return apply_delta(index, tree, [], dirty, opts)


def scan_single_dir(tree: VFSTree, source_path: str) -> DirRows:
    """Rescan one live directory into what
    :func:`~repro.core.build.build_dir_db` writes: the directory's
    record (taken before the listing bumps its atime), then one
    READDIRPLUS whose inodes become ``entries`` rows in the same pass
    (:func:`~repro.core.build.dir_rows`). No trace record is made per
    entry — only for the entries that carry xattrs."""
    directory = record_from_inode(source_path, tree.get_inode(source_path))
    return dir_rows(directory, tree.readdir_plus(source_path))
