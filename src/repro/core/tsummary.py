"""Tree-summary construction (paper §III-B, the ``bfti`` tool).

``tsummary`` tables are not created during index construction; an
administrator triggers them per subtree. The resulting rows summarise
*everything* beneath a directory — sizes, entry counts, user/group
counts, depth — so queries like "space used by this tree" become a
single-row read at the query root (Fig 10's 230× query 4). Overall,
per-user, and per-group records are written, making per-user summary
queries equally cheap.

The builder traverses the index the same way a query does — pruning
beneath rolled-up directories and reading their merged ``pentries`` /
``summary`` rows instead — which is why the paper measures tsummary
construction at 14.8 s on an un-rolled index but 0.368 s after a 250 K
rollup.

A tree summary is a fold over **per-directory contributions**
(:class:`DirContribution`: what one ``db.db`` adds to any tree summary
above it). Contributions are memoised on the index handle's
:class:`~repro.core.index.DirMetaCache`, validated against the
database's file stamp on every use, so a refresh on a long-lived
handle opens only the databases that changed since the last build.
"""

from __future__ import annotations

import sqlite3
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import obs
from repro.store import connect, layout, schema
from repro.store.layout import StampBracket

from .index import GUFIIndex, IndexError_


def _fold(op, acc: int | None, value: int | None) -> int | None:
    """``min``/``max`` over optional bounds: ``None`` is "no bound yet"
    on either side (SQL's aggregate-over-NULL rule)."""
    if value is None:
        return acc
    return value if acc is None else op(acc, value)


@dataclass
class _Agg:
    """Accumulator for one (rectype, uid, gid) bucket."""

    totfiles: int = 0
    totlinks: int = 0
    totsubdirs: int = 0
    totsize: int = 0
    minsize: int | None = None
    maxsize: int | None = None
    minmtime: int | None = None
    maxmtime: int | None = None
    maxdepth: int = 0
    totxattr: int = 0
    uids: set[int] = field(default_factory=set)
    gids: set[int] = field(default_factory=set)

    def add_group(self, group: tuple) -> None:
        """Fold one ``GROUP BY type, uid, gid`` row of ``pentries``
        (see :data:`_GROUPS_SQL`)."""
        ftype, uid, gid, n, size, minsize, maxsize, minmtime, maxmtime, nxattr = group
        if ftype == "f":
            self.totfiles += n
            self.minsize = _fold(min, self.minsize, minsize)
            self.maxsize = _fold(max, self.maxsize, maxsize)
        elif ftype == "l":
            self.totlinks += n
        self.totsize += size
        self.minmtime = _fold(min, self.minmtime, minmtime)
        self.maxmtime = _fold(max, self.maxmtime, maxmtime)
        self.totxattr += nxattr
        self.uids.add(uid)
        self.gids.add(gid)

    def add_dir(
        self, size: int, depth: int, uid: int, gid: int, count_dir: bool = True
    ) -> None:
        """``count_dir=False`` for the start directory itself: its size
        belongs to the tree total but it is not its own sub-directory."""
        if count_dir:
            self.totsubdirs += 1
        self.totsize += size
        self.maxdepth = max(self.maxdepth, depth)
        self.uids.add(uid)
        self.gids.add(gid)

    def row(self, rectype: int, uid: int, gid: int) -> tuple:
        return (
            rectype,
            uid,
            gid,
            self.totfiles,
            self.totlinks,
            self.totsubdirs,
            self.totsize,
            self.minsize,
            self.maxsize,
            self.minmtime,
            self.maxmtime,
            self.maxdepth,
            self.totxattr,
            len(self.uids),
            len(self.gids),
        )


_TS_INSERT = (
    "INSERT INTO tsummary ("
    + ", ".join(schema.TSUMMARY_COLUMNS)
    + ") VALUES ("
    + ", ".join("?" * len(schema.TSUMMARY_COLUMNS))
    + ")"
)


#: ``pentries`` (a directory's own entries plus, when rolled up, every
#: merged sub-directory's) aggregated where the rows live. NULL sizes
#: add nothing and bound nothing; NULL or empty ``xattr_names`` is not
#: xattr-bearing.
_GROUPS_SQL = (
    "SELECT type, uid, gid, COUNT(*), COALESCE(SUM(size), 0), "
    "MIN(size), MAX(size), MIN(mtime), MAX(mtime), "
    "COUNT(CASE WHEN LENGTH(xattr_names) > 0 THEN 1 END) "
    "FROM gufi.pentries GROUP BY type, uid, gid"
)


class DirContribution(NamedTuple):
    """What one directory database adds to any tree summary above it.

    Deliberately excludes the ``tsummary`` table itself: writing a
    result into the start directory's database changes that file's
    stamp (one re-read next time), never the contribution's content.
    """

    #: the directory's own inode (its ``isroot = 1`` summary row)
    inode: int
    rolledup: bool
    #: every rectype-0 summary row — the directory itself plus each
    #: rolled-in one — as ``(size, depth, uid, gid, inode)``
    dirs: tuple[tuple, ...]
    #: :data:`_GROUPS_SQL` rows
    groups: tuple[tuple, ...]


_DIRS_SQL = (
    "SELECT size, depth, uid, gid, inode, isroot, rolledup "
    f"FROM gufi.summary WHERE rectype = {schema.RECTYPE_OVERALL}"
)


def _contribution(
    index: GUFIIndex, conn: sqlite3.Connection, source_path: str
) -> DirContribution | None:
    """Read one directory's contribution (``None``: no database)
    through ``conn`` — the pass's one connection, the database attached
    read-only for the two statements — and memoise it, under the
    cache's usual race rule — publish only if the file provably did
    not change across the read."""
    db_path = f"{index.index_path(source_path)}/{layout.DB_NAME}"
    bracket = StampBracket(db_path)
    if bracket.missing:
        return None
    connect.attach_ro(conn, db_path, "gufi")
    try:
        dirs = conn.execute(_DIRS_SQL).fetchall()
        own = next((d for d in dirs if d[5] == 1), None)
        if own is None:
            raise IndexError_("index database has no directory summary record")
        contrib = DirContribution(
            inode=own[4],
            rolledup=bool(own[6]),
            dirs=tuple(d[:5] for d in dirs),
            groups=tuple(conn.execute(_GROUPS_SQL)),
        )
    finally:
        connect.detach(conn, "gufi")
    if bracket.unchanged():
        index.cache.put_contribution(source_path, bracket.stamp, db_path, contrib)
    return contrib


@dataclass
class TSummaryResult:
    seconds: float
    dirs_scanned: int
    rows_written: int
    #: databases actually opened; the rest of ``dirs_scanned`` were
    #: folded from contributions memoised on the index handle
    dbs_opened: int = 0


def build_tsummary(
    index: GUFIIndex,
    start: str = "/",
    per_user_group: bool = True,
) -> TSummaryResult:
    """Build (replacing any previous) tsummary rows at ``start``.

    The subtree walk prunes beneath rolled-up directories: their
    ``summary`` tables already contain one row per merged directory
    and their ``pentries`` tables every merged entry, so one database
    read covers the whole rolled sub-tree.

    On a warm index handle the walk costs one ``stat`` per directory
    plus one database read per directory that changed since the last
    build (any start); a fresh handle reads every database once.
    """
    t0 = time.monotonic()
    overall = _Agg()
    by_uid: defaultdict[int, _Agg] = defaultdict(_Agg)
    by_gid: defaultdict[int, _Agg] = defaultdict(_Agg)
    dirs_scanned = dbs_opened = 0
    cache = index.cache

    start = "/" + "/".join(p for p in start.split("/") if p)
    stack = [start]
    # one connection for the pass; each database the cache cannot
    # answer for is attached to it for its two statements
    reader = sqlite3.connect(":memory:", isolation_level=None)
    try:
        while stack:
            sp = stack.pop()
            contrib = cache.get_contribution(sp)
            if contrib is None:
                contrib = _contribution(index, reader, sp)
                if contrib is None:
                    continue
                dbs_opened += 1
            dirs_scanned += 1
            # Every summary row (original + rolled-in) is one directory;
            # the start directory's own row contributes size but is not
            # counted as a sub-directory of itself.
            for size, depth, uid, gid, inode in contrib.dirs:
                count_dir = not (sp == start and inode == contrib.inode)
                overall.add_dir(size, depth, uid, gid, count_dir)
                if per_user_group:
                    by_uid[uid].add_dir(size, depth, uid, gid, count_dir)
                    by_gid[gid].add_dir(size, depth, uid, gid, count_dir)
            for group in contrib.groups:
                overall.add_group(group)
                if per_user_group:
                    by_uid[group[1]].add_group(group)
                    by_gid[group[2]].add_group(group)
            if contrib.rolledup:
                continue
            prefix = "" if sp == "/" else sp
            stack.extend(
                f"{prefix}/{n}" for n in index.cached_subdir_names(sp)
            )
    finally:
        reader.close()

    rows = [overall.row(schema.RECTYPE_OVERALL, 0, 0)]
    if per_user_group:
        for uid in sorted(by_uid):
            rows.append(by_uid[uid].row(schema.RECTYPE_USER, uid, 0))
        for gid in sorted(by_gid):
            rows.append(by_gid[gid].row(schema.RECTYPE_GROUP, 0, gid))

    # §III-B: the table is created here, where bfti was asked, in the
    # transaction that writes its rows — a database either has tree-
    # summary rows or no tsummary table
    conn = index.store(start).open_rw()
    try:
        conn.execute("BEGIN")
        conn.execute(schema.compact_ddl(schema.CREATE_TSUMMARY))
        conn.execute("DELETE FROM tsummary")
        conn.executemany(_TS_INSERT, rows)
        conn.execute("COMMIT")
    finally:
        conn.close()
    # DirMeta.tsummary steers the T stage: warm sessions must see it
    # now, not on the next stamp revalidation
    index.invalidate_cache(start)
    obs.metrics().counter("gufi_tsummary_dbs_opened_total", dbs_opened)
    return TSummaryResult(
        seconds=time.monotonic() - t0,
        dirs_scanned=dirs_scanned,
        rows_written=len(rows),
        dbs_opened=dbs_opened,
    )


def drop_tsummary(index: GUFIIndex, start: str = "/") -> None:
    """Remove the tree summary at ``start`` (admin operation)."""
    conn = index.store(start).open_rw()
    try:
        conn.execute("DROP TABLE IF EXISTS tsummary")
    finally:
        conn.close()
    index.invalidate_cache(start)
