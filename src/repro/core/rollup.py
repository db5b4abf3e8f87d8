"""Permissions-based index rollup (paper §III-C3).

A database per directory makes permission enforcement trivial but
yields millions of tiny databases — each open costs time and even an
empty SQLite file is ~12 KB of reads. Rollup merges a sub-tree's data
upward into its top directory's database *when and only when doing so
cannot widen visibility*: every target/sub-directory pair must satisfy
one of four permission-compatibility conditions, and every
sub-directory below the target must itself already be rolled up
(leaves are rolled up by definition).

Mechanics per rolled directory (paper's exact sequence, applied to a
*staged copy* of the directory's databases and published by rename —
the builders' commit protocol — so a directory is exactly un-rolled or
exactly rolled at every instant, whatever kills the pass):

1. drop the ``pentries`` view and materialise a ``pentries`` *table*
   seeded from the directory's own ``entries`` rows; ``vrpentries``
   becomes the view that finds each row's directory by a join (an
   un-rolled database's views describe one directory —
   :func:`repro.store.schema.view_ddl`);
2. copy each child's ``pentries`` rows in (children were rolled first,
   so this captures their whole sub-trees) — ``entries`` is never
   touched, preserving the original data;
3. copy each child's ``summary`` rows in, path-prefixed and marked
   ``isroot=0``;
4. merge xattr stores the same way (main-db rows and per-user /
   per-group side databases, all marked ``isroot=0``);
5. flag the directory ``rolledup`` with its merged entry count.

Rolled-up children stay on disk, so queries may start anywhere and
rollups can be undone per-directory (:func:`unrollup_dir`, staged and
published the same way) without touching any other directory — the
property the incremental update tool relies on.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.scan.walker import ParallelTreeWalker
from repro.store import connect, layout, schema
from repro.store.attach import attached
from repro.store.layout import DirStore, is_side_artifact

from .index import GUFIIndex, IndexError_


# ----------------------------------------------------------------------
# Permission-compatibility conditions (§III-C3, verbatim)
# ----------------------------------------------------------------------

def _reader_set_included(
    p_mode: int, p_uid: int, p_gid: int, c_mode: int, c_uid: int, c_gid: int
) -> bool:
    """Exact safety predicate: every credential that may read+search
    the parent may also read+search the child, for *all* possible
    credentials. Access depends only on the predicates ``uid == x``
    and ``gid ∈ groups``, so enumerating representative credentials —
    each relevant uid plus a fresh one, against every subset of the
    relevant gids — is exhaustive."""
    from repro.fs.permissions import Credentials, can_read_dir, can_search_dir

    fresh_uid = max(p_uid, c_uid) + 1
    fresh_gid = max(p_gid, c_gid) + 1
    gid_pool = {p_gid, c_gid}
    subsets = [set(), {p_gid}, {c_gid}, set(gid_pool)]
    for uid in (p_uid, c_uid, fresh_uid):
        if uid == 0:
            continue  # root reads everything everywhere
        for groups in subsets:
            creds = Credentials(
                uid=uid, gid=next(iter(groups), fresh_gid),
                groups=frozenset(groups),
            )
            parent_ok = can_read_dir(
                p_mode, p_uid, p_gid, creds
            ) and can_search_dir(p_mode, p_uid, p_gid, creds)
            child_ok = can_read_dir(
                c_mode, c_uid, c_gid, creds
            ) and can_search_dir(c_mode, c_uid, c_gid, creds)
            if parent_ok and not child_ok:
                return False
    return True


def rollup_compatible(
    p_mode: int, p_uid: int, p_gid: int, c_mode: int, c_uid: int, c_gid: int
) -> bool:
    """May a child with (c_mode, c_uid, c_gid) be merged into a parent
    with (p_mode, p_uid, p_gid)?

    The paper's four conditions are the fast path. They are however
    stated in terms of *granted* bits, while POSIX permission classes
    do not fall through: a directory like ``0o705`` denies its group
    what it grants the world, so condition 1 (both ``o+rx``) alone
    would let group members gain access through a merge. The exact
    reader-set-inclusion guard closes that corner; for conventional
    modes it never fires.
    """
    # 1) World readable and executable (o+rx) on both.
    if (p_mode & 0o005) == 0o005 and (c_mode & 0o005) == 0o005:
        return _reader_set_included(p_mode, p_uid, p_gid, c_mode, c_uid, c_gid)
    # 2) Matching permissions (ugo), same user and group.
    if p_mode == c_mode and p_uid == c_uid and p_gid == c_gid:
        return True
    # 3) Matching user+group permissions, ug+rx, same user and group,
    #    and o-rx.
    if (
        (p_mode & 0o770) == (c_mode & 0o770)
        and p_uid == c_uid
        and p_gid == c_gid
        and (p_mode & 0o550) == 0o550
        and (c_mode & 0o550) == 0o550
        and (p_mode & 0o005) == 0
        and (c_mode & 0o005) == 0
    ):
        return True
    # 4) Matching user permissions, u+rx, same user, go-rx.
    if (
        (p_mode & 0o700) == (c_mode & 0o700)
        and p_uid == c_uid
        and (p_mode & 0o500) == 0o500
        and (c_mode & 0o500) == 0o500
        and (p_mode & 0o055) == 0
        and (c_mode & 0o055) == 0
    ):
        return True
    return False


@dataclass
class RollupStats:
    """Outcome of a rollup pass."""

    total_dirs: int = 0
    rolled: int = 0  # directories whose databases absorbed children
    blocked_perms: int = 0
    blocked_limit: int = 0
    blocked_child: int = 0  # an unrolled child blocked the parent
    #: databases a traversal from the pass's start opens afterwards —
    #: :func:`visible_db_count`, from the pass's own decisions
    visible_dbs: int = 0
    elapsed: float = 0.0


@dataclass
class _DirState:
    """Per-directory decision state threaded through the bottom-up pass."""

    rolled: bool  # usable by the parent (leaves: trivially True)
    entry_count: int  # pentries rows the parent would absorb
    rolledup: bool  # the database's flag when the pass ends
    mode: int = 0
    uid: int = 0
    gid: int = 0


_SUMMARY_COPY_COLS = ", ".join(schema.SUMMARY_COLUMNS)
# SELECT list matching SUMMARY_COLUMNS with the copied row's name
# path-prefixed and isroot forced to 0.
_SUMMARY_COPY_SELECT = ", ".join(
    "CASE WHEN isroot = 1 THEN ? ELSE ? || '/' || name END"
    if c == "name"
    else ("0" if c == "isroot" else c)
    for c in schema.SUMMARY_COLUMNS
)


def _merge_child(
    conn: sqlite3.Connection,
    store: DirStore,
    child_name: str,
    sides: list[str],
) -> None:
    """Steps 2–4 for one child, into the staged parent: pentries,
    summary, xattr stores. ``sides`` names the side databases the
    staged parent has so far; the ones this child adds are appended."""
    child_dir = store.index_dir / child_name
    with attached(conn, DirStore(child_dir).db_path, "child"):
        conn.execute("INSERT INTO pentries SELECT * FROM child.pentries")
        conn.execute(
            f"INSERT INTO summary ({_SUMMARY_COPY_COLS}) "
            f"SELECT {_SUMMARY_COPY_SELECT} FROM child.summary",
            (child_name, child_name),
        )
        conn.execute(
            "INSERT INTO xattrs (exinode, exattrs, isroot) "
            "SELECT exinode, exattrs, 0 FROM child.xattrs"
        )
        side_rows = conn.execute(
            "SELECT filename, uid, gid, mode FROM child.xattrs_avail"
        ).fetchall()
    # Per-user / per-group side databases merge into same-protection
    # side databases of the parent (created on demand, tracked with
    # isroot=0 so unrollup can remove them).
    for filename, uid, gid, mode in side_rows:
        src = child_dir / filename
        if not src.exists():
            continue
        staged = store.partial_path(filename)
        if filename in sides:
            dst_conn = connect.open_rw(staged)
        else:
            dst_conn = connect.create_side_db(staged, fresh=True)
        try:
            with attached(dst_conn, src, "src"):
                dst_conn.execute(
                    "INSERT INTO xattrs (exinode, exattrs, isroot) "
                    "SELECT exinode, exattrs, 0 FROM src.xattrs"
                )
        finally:
            dst_conn.close()
        if filename not in sides:
            sides.append(filename)
            conn.execute(
                "INSERT INTO xattrs_avail (filename, uid, gid, mode, isroot) "
                "VALUES (?,?,?,?,0)",
                (filename, uid, gid, mode),
            )


#: fault-injection site fired at every boundary of one directory's
#: rollup (key = source path): on entry, after the seed, after each
#: child's merge, and before the publishing renames
FAULT_SITE = "rollup_dir"

#: the same for one directory's unrollup: on entry, after the primary
#: database is its un-rolled self, after each side database, and
#: before the publishing renames
UNROLLUP_FAULT_SITE = "unrollup_dir"


def rollup_dir(
    index: GUFIIndex,
    source_path: str,
    child_names: list[str],
    faults: Any | None = None,
) -> int:
    """Perform the merge for one directory (conditions already
    verified by the caller). Returns the merged pentries row count.

    All-or-nothing: the merge runs on staged copies of the directory's
    primary and side databases and :meth:`DirStore.publish` renames
    them into place, the primary last. Killed anywhere before that,
    the directory is as it was and the staging files go with the next
    attempt's publish; readers holding the old database keep reading
    it."""

    def boundary() -> None:
        if faults is not None:
            faults.fire(FAULT_SITE, source_path)

    store = DirStore(index.index_path(source_path))
    boundary()
    sides = store.side_artifacts()
    store.stage_copies([layout.DB_NAME, *sides])
    conn = connect.open_rw(store.partial_path(layout.DB_NAME))
    try:
        conn.execute("BEGIN")
        conn.execute("DROP VIEW IF EXISTS pentries")
        conn.execute(schema.compact_ddl(schema.CREATE_PENTRIES_TABLE))
        conn.execute(
            "INSERT INTO pentries SELECT entries.*, "
            "(SELECT inode FROM summary WHERE isroot=1 AND rectype=0) "
            "FROM entries"
        )
        schema.create_views(conn, rolled=True)
        conn.execute("COMMIT")
        boundary()
        for child in child_names:
            _merge_child(conn, store, child, sides)
            boundary()
        (count,) = conn.execute("SELECT COUNT(*) FROM pentries").fetchone()
        conn.execute(
            "UPDATE summary SET rolledup = 1, rollup_entries = ? "
            "WHERE isroot = 1 AND rectype = 0",
            (count,),
        )
    finally:
        conn.close()
    boundary()
    store.publish(sides, faults)
    # the rolledup flag steers query descent — warm sessions must
    # see it immediately, not on the next mtime revalidation
    index.invalidate_cache(source_path)
    return count


def unrollup_dir(
    index: GUFIIndex, source_path: str, faults: Any | None = None
) -> None:
    """Undo one directory's rollup — independent of every other
    directory's rollup state (§III-C3's lightweight-undo property).

    All-or-nothing like :func:`rollup_dir`, by the same protocol: the
    flag steers descent, so a directory still flagged rolled over an
    emptied ``pentries`` would hide its whole sub-tree from every
    answer. The primary and the side databases that stay are edited as
    staged copies and published together; the side databases rollup
    created are simply not in the published set."""

    def boundary() -> None:
        if faults is not None:
            faults.fire(UNROLLUP_FAULT_SITE, source_path)

    store = DirStore(index.index_path(source_path))
    boundary()
    conn = connect.open_ro(store.db_path)
    try:
        if not conn.execute(
            "SELECT rolledup FROM summary WHERE isroot = 1 AND rectype = 0"
        ).fetchone()[0]:
            return  # nothing to undo
        created = {
            filename
            for (filename,) in conn.execute(
                "SELECT filename FROM xattrs_avail WHERE isroot = 0"
            )
        }
    finally:
        conn.close()
    # pre-existing side databases may hold rolled-in rows
    kept = [n for n in store.side_artifacts() if n not in created]
    store.stage_copies([layout.DB_NAME, *kept])
    conn = connect.open_rw(store.partial_path(layout.DB_NAME))
    try:
        conn.execute("BEGIN")
        conn.execute("DROP TABLE pentries")
        schema.create_views(conn, rolled=False)
        for table in ("summary", "xattrs", "xattrs_avail"):
            conn.execute(f"DELETE FROM {table} WHERE isroot = 0")
        conn.execute(
            "UPDATE summary SET rolledup = 0, rollup_entries = 0 "
            "WHERE isroot = 1 AND rectype = 0"
        )
        conn.execute("COMMIT")
    finally:
        conn.close()
    boundary()
    for name in kept:
        side = connect.open_rw(store.partial_path(name))
        try:
            side.execute("DELETE FROM xattrs WHERE isroot = 0")
        finally:
            side.close()
        boundary()
    boundary()
    store.publish(kept, faults)
    index.invalidate_cache(source_path)


#: the pass's per-directory read: the permission triple, the rollup
#: state, and how many entries the directory itself holds
_DIR_SQL = (
    "SELECT mode, uid, gid, rolledup, rollup_entries, "
    "(SELECT COUNT(*) FROM entries) "
    f"FROM summary WHERE isroot = 1 AND rectype = {schema.RECTYPE_OVERALL}"
)


def rollup(
    index: GUFIIndex,
    limit: int | None = None,
    nthreads: int = 8,
    start: str = "/",
    faults: Any | None = None,
) -> RollupStats:
    """Roll up an index bottom-up, bounded by ``limit`` merged entries
    per database (``None`` = unlimited, the paper's MAX; the paper's
    sweet spot for dataset 2 was 250 K).

    Directories at the same depth are independent, so each depth level
    is processed by the thread pool; levels run deepest-first because
    a parent's decision needs its children's outcomes.

    ``faults`` is an optional :class:`~repro.scan.faults.FaultPlan`
    (site :data:`FAULT_SITE`); a simulated process death propagates.
    """
    t0 = time.monotonic()
    stats = RollupStats()
    # the tree, enumerated once: every directory with a database, by
    # depth, with the sub-directory names the decisions below need
    dirs_by_depth: dict[int, list[str]] = {}
    subdirs: dict[str, list[str]] = {}
    for sp, names in index.iter_tree(start):
        depth = 0 if sp == "/" else sp.count("/")
        dirs_by_depth.setdefault(depth, []).append(sp)
        subdirs[sp] = names
    stats.total_dirs = len(subdirs)

    states: dict[str, _DirState] = {}
    lock = threading.Lock()

    def process(source_path: str) -> list:
        conn = connect.open_ro(
            f"{index.index_path(source_path)}/{layout.DB_NAME}"
        )
        try:
            own = conn.execute(_DIR_SQL).fetchone()
        finally:
            conn.close()
        if own is None:
            raise IndexError_("index database has no directory summary record")
        mode, uid, gid, rolledup, rollup_entries, own_entries = own
        children = subdirs[source_path]
        prefix = "" if source_path == "/" else source_path
        ok = True
        reason = None
        total = own_entries
        for name in children:
            cs = states.get(f"{prefix}/{name}")
            if cs is None or not cs.rolled:
                ok, reason = False, "child"
                break
            if not rollup_compatible(mode, uid, gid, cs.mode, cs.uid, cs.gid):
                ok, reason = False, "perms"
                break
            total += cs.entry_count
        if ok and limit is not None and total > limit:
            ok, reason = False, "limit"
        if ok and children:
            if rolledup:
                # idempotent re-run: already rolled; trust stored count
                total = rollup_entries
            else:
                total = rollup_dir(index, source_path, children, faults)
            with lock:
                stats.rolled += 1
        elif not ok:
            with lock:
                if reason == "perms":
                    stats.blocked_perms += 1
                elif reason == "limit":
                    stats.blocked_limit += 1
                else:
                    stats.blocked_child += 1
        # Leaves (no children) are rolled up by definition: usable by
        # the parent without any database modification.
        with lock:
            states[source_path] = _DirState(
                rolled=ok,
                entry_count=total,
                # a blocked directory keeps an earlier pass's rollup
                rolledup=bool(rolledup) or (ok and bool(children)),
                mode=mode,
                uid=uid,
                gid=gid,
            )
        return []

    walker = ParallelTreeWalker(nthreads)
    with obs.tracer().span("rollup.run", start=start):
        for depth in sorted(dirs_by_depth, reverse=True):
            result = walker.walk(dirs_by_depth[depth], process)
            if result.errors:
                item, exc = result.errors[0]
                raise RuntimeError(
                    f"rollup failed at {item!r}: {exc}"
                ) from exc
    # Top-down: a directory is hidden iff a proper ancestor at or below
    # ``start`` ended the pass rolled up (descent stops there).
    start_path = index.source_path(index.index_dir(start))
    visible: set[str] = set()
    for depth in sorted(dirs_by_depth):
        for sp in dirs_by_depth[depth]:
            parent = sp.rsplit("/", 1)[0] or "/"
            if sp == start_path or (
                parent in visible and not states[parent].rolledup
            ):
                visible.add(sp)
    stats.visible_dbs = len(visible)
    stats.elapsed = time.monotonic() - t0
    rec = obs.metrics()
    if rec.enabled:
        rec.counter("gufi_rollup_runs_total")
        rec.counter("gufi_rollup_dirs_total", stats.total_dirs)
        rec.counter("gufi_rollup_rolled_total", stats.rolled)
        rec.counter("gufi_rollup_blocked_total", stats.blocked_perms, reason="perms")
        rec.counter("gufi_rollup_blocked_total", stats.blocked_limit, reason="limit")
        rec.counter("gufi_rollup_blocked_total", stats.blocked_child, reason="child")
        rec.observe("gufi_rollup_seconds", stats.elapsed)
    return stats


def _visible_dirs(index: GUFIIndex, start: str = "/") -> Iterator[str]:
    """Source paths of the directories a full traversal from ``start``
    opens: every directory with a database, descending by the physical
    listing and stopping below a rolled-up one (it already holds its
    subtree)."""
    stack = [start]
    while stack:
        sp = stack.pop()
        if not index.db_path(sp).exists():
            continue
        yield sp
        if index.dir_meta(sp).rolledup:
            continue
        prefix = "" if sp == "/" else sp
        stack.extend(f"{prefix}/{n}" for n in index.subdir_names(sp))


def visible_db_count(index: GUFIIndex, start: str = "/") -> int:
    """Databases a full traversal from ``start`` opens: descent prunes
    beneath rolled-up directories. This is the paper's '386× reduction
    in the number of databases' metric (Fig 8b's x-axis companion)."""
    return sum(1 for _ in _visible_dirs(index, start))


def visible_db_bytes(index: GUFIIndex, start: str = "/") -> int:
    """Bytes a full traversal reads: the database files of every
    visible directory (rolled-up children stay on disk but are never
    opened, so they do not count). This is Fig 8b's space metric —
    per-query read volume — which rollup shrinks by eliminating the
    ~12 KB fixed overhead of thousands of tiny databases."""
    total = 0
    for sp in _visible_dirs(index, start):
        idx_dir = index.index_dir(sp)
        total += layout.artifact_bytes(idx_dir / layout.DB_NAME)
        try:
            names = os.listdir(idx_dir)
        except OSError:
            continue
        total += sum(
            layout.artifact_bytes(idx_dir / name)
            for name in names
            if is_side_artifact(name)
        )
    return total


def largest_visible_db_bytes(index: GUFIIndex, start: str = "/") -> int:
    """Size of the largest database a traversal touches (Fig 8c's
    tail-latency driver)."""
    return max(
        (
            layout.artifact_bytes(index.db_path(sp))
            for sp in _visible_dirs(index, start)
        ),
        default=0,
    )
