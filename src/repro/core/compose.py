"""Index composition (paper §I, contribution list).

"A GUFI index is both composable and decomposable such that any
directory or sub-tree of directories within the index can be trivially
added, updated, or removed as desired by administrators." Because the
index is *just files and directories*, these operations are plain tree
surgery plus a little rollup hygiene:

* :func:`graft` — splice another index's tree (or one of its subtrees)
  into this index at a path (e.g. mount a newly indexed file system
  under the data-center-wide /Search root);
* :func:`prune` — remove a subtree from the index (a decommissioned
  file system or project);
* :func:`validate` — structural health check: every directory carries
  a database with a summary record, rollup flags are consistent with
  pentries materialisation, tracked xattr side databases exist.

Grafting/pruning under a rolled-up ancestor first undoes the rollups
on the affected path (each directory's rollup is independently
reversible, §III-C3) so merged data never goes stale.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

from repro.store import connect, layout

from .index import GUFIIndex
from .rollup import unrollup_dir


class CompositionError(Exception):
    """Invalid graft/prune request."""


def _unroll_ancestors(index: GUFIIndex, path: str) -> list[str]:
    """Undo rollups on every existing directory from the root down to
    (and including) ``path``'s parent, so none of them claims to
    summarise the about-to-change subtree."""
    parts = [p for p in path.split("/") if p]
    unrolled = []
    chain = ["/"] + ["/" + "/".join(parts[: i + 1]) for i in range(len(parts) - 1)]
    for sp in chain:
        if not index.db_path(sp).exists():
            continue
        if index.dir_meta(sp).rolledup:
            unrollup_dir(index, sp)
            unrolled.append(sp)
    return unrolled


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
    unrolled = _unroll_ancestors(dst, at)
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
    return unrolled


def ensure_dir_db(index: GUFIIndex, source_path: str) -> None:
    """Create a minimal, root-owned, world-searchable database for a
    structural directory that exists on disk without one."""
    import zlib

    store = index.store(source_path)
    if store.db_path.exists():
        return
    conn = store.create_primary()
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


def prune(dst: GUFIIndex, path: str) -> list[str]:
    """Remove the indexed subtree at ``path`` (the source file system
    was decommissioned, or a project was archived off)."""
    path = "/" + "/".join(p for p in path.split("/") if p)
    if path == "/":
        raise CompositionError("refusing to prune the index root")
    target = dst.index_dir(path)
    if not target.exists():
        raise CompositionError(f"nothing indexed at {path!r}")
    unrolled = _unroll_ancestors(dst, path)
    shutil.rmtree(target)
    return unrolled


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`."""

    dirs_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(index: GUFIIndex, start: str = "/") -> ValidationReport:
    """Structural health check over the on-disk index."""
    report = ValidationReport()
    base = index.index_dir(start)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        rel = os.path.relpath(dirpath, index.root)
        sp = "/" if rel == "." else "/" + rel.replace(os.sep, "/")
        if layout.DB_NAME not in filenames:
            report.problems.append(f"{sp}: missing {layout.DB_NAME}")
            continue
        report.dirs_checked += 1
        conn = connect.open_ro(os.path.join(dirpath, layout.DB_NAME))
        try:
            try:
                meta = index.read_dir_meta(conn)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                report.problems.append(f"{sp}: unreadable summary ({exc})")
                continue
            (kind,) = conn.execute(
                "SELECT type FROM sqlite_master WHERE name = 'pentries'"
            ).fetchone()
            if meta.rolledup and kind != "table":
                report.problems.append(
                    f"{sp}: rolledup flag set but pentries is a {kind}"
                )
            if not meta.rolledup and kind != "view":
                report.problems.append(
                    f"{sp}: not rolled up but pentries is a {kind}"
                )
            for (filename,) in conn.execute(
                "SELECT filename FROM xattrs_avail"
            ):
                if not os.path.exists(os.path.join(dirpath, filename)):
                    report.problems.append(
                        f"{sp}: tracked xattr side db {filename} missing"
                    )
        finally:
            conn.close()
    return report
