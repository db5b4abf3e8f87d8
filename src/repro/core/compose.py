"""Index composition (paper §I, contribution list).

"A GUFI index is both composable and decomposable such that any
directory or sub-tree of directories within the index can be trivially
added, updated, or removed as desired by administrators." Because the
index is *just files and directories*, these operations are plain tree
surgery, and the surgery is one changefeed apply
(:func:`~repro.core.changefeed.apply_delta`) of a structural op:

* :func:`graft` — splice another index's tree (or one of its subtrees)
  into this index at a path (e.g. mount a newly indexed file system
  under the data-center-wide /Search root);
* :func:`prune` — remove a subtree from the index (a decommissioned
  file system or project).

The structural health check of the result is
:func:`repro.store.doctor.doctor`.

So a graft or prune does what the changefeed does for a directory
moved in or removed: the rollups on the affected path are undone (each
directory's rollup is independently reversible, §III-C3) so merged
data never goes stale, the absolute depths of a grafted subtree are
shifted to its new place, the caches hear of the change, and the tree
summaries above it are refreshed.
"""

from __future__ import annotations

import shutil

from .changefeed import apply_delta
from .index import GUFIIndex


class CompositionError(Exception):
    """Invalid graft/prune request."""


def graft(
    dst: GUFIIndex,
    src: GUFIIndex,
    src_subtree: str = "/",
    at: str | None = None,
    overwrite: bool = False,
) -> list[str]:
    """Copy ``src``'s subtree into ``dst`` at path ``at``.

    ``at`` defaults to the source subtree's own path. Returns the list
    of destination directories whose rollups were undone. The copied
    databases arrive exactly as they are in ``src`` — including any
    rollups *within* the grafted subtree, which stay valid because
    rollup state never depends on anything above the rolled directory.
    """
    at = at or src_subtree
    at = "/" + "/".join(p for p in at.split("/") if p)
    src_dir = src.index_dir(src_subtree)
    if not src.store(src_subtree).db_path.exists():
        raise CompositionError(f"source has no index at {src_subtree!r}")
    dst_dir = dst.index_dir(at)
    if dst_dir.exists() and any(dst_dir.iterdir()):
        if not overwrite:
            raise CompositionError(
                f"destination {at!r} already indexed (pass overwrite=True)"
            )
        shutil.rmtree(dst_dir)
    dst_dir.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(src_dir, dst_dir)
    # the grafted root must not be skipped by gufi_index.json checks
    meta_file = dst_dir / "gufi_index.json"
    if meta_file.exists():
        meta_file.unlink()
    # Intermediate directories introduced by the graft (e.g. the
    # /fs-kernel in /fs-kernel/linux) need databases of their own or
    # descent would dead-end before reaching the graft.
    parts = [p for p in at.split("/") if p]
    for i in range(len(parts)):
        sp = "/" + "/".join(parts[: i + 1])
        ensure_dir_db(dst, sp)
    # The subtree arrived at ``at`` from elsewhere: a move onto itself
    # skips the rename (the destination exists) and does everything
    # else an arrived subtree needs — unroll above it, shift its
    # absolute depths, tell the caches, refresh the tree summaries
    # above it.
    return apply_delta(dst, None, [("move", at, at)], set()).unrolled_dirs


def ensure_dir_db(index: GUFIIndex, source_path: str) -> None:
    """Create a minimal, root-owned, world-searchable database for a
    structural directory that exists on disk without one."""
    import zlib

    store = index.store(source_path)
    if store.db_path.exists():
        return
    conn = store.stage_primary()
    try:
        name = source_path.rsplit("/", 1)[-1] or "/"
        depth = 0 if source_path == "/" else source_path.count("/")
        # synthetic inode: high bit set so it cannot collide with
        # scanner-allocated inode numbers
        ino = (1 << 62) | zlib.crc32(source_path.encode())
        conn.execute(
            "INSERT INTO summary (name, rectype, isroot, inode, mode, "
            "nlink, uid, gid, size, blksize, blocks, atime, mtime, ctime, "
            "totfiles, totlinks, totsubdirs, totsize, totxattr, rolledup, "
            "rollup_entries, depth) "
            "VALUES (?, 0, 1, ?, 493, 2, 0, 0, 0, 4096, 0, 0, 0, 0, "
            "0, 0, 0, 0, 0, 0, 0, ?)",  # 493 == 0o755
            (name, ino, depth),
        )
    finally:
        conn.close()
    store.publish([])


def prune(dst: GUFIIndex, path: str) -> list[str]:
    """Remove the indexed subtree at ``path`` (the source file system
    was decommissioned, or a project was archived off)."""
    path = "/" + "/".join(p for p in path.split("/") if p)
    if path == "/":
        raise CompositionError("refusing to prune the index root")
    target = dst.index_dir(path)
    if not target.exists():
        raise CompositionError(f"nothing indexed at {path!r}")
    return apply_delta(dst, None, [("remove", path, None)], set()).unrolled_dirs
