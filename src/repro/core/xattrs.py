"""Secure extended-attribute indexing (paper §III-A2, §III-B1).

Xattr *names* are metadata (protected by ancestor search bits) and are
stored in the ``entries`` table. Xattr *values* are protected like
file data, so storing them all in the per-directory database would
leak: the database is protected like its directory, while the file a
value belongs to may be more private. GUFI's rules, reproduced here:

1. a directory's own xattr values go in its primary database;
2. a file whose ownership and (read) permissions match the parent
   directory stores its values in the primary database too —
   equivalent protection;
3. a file whose *ownership* differs gets a **per-user** side database
   (owned by that uid, group "none") holding all values its owner may
   see;
4. a file whose *group* differs gets **two per-group** side databases:
   one (group-readable) for values on group-readable files, one
   (group-unreadable) for the rest.

A tracking table (``xattrs_avail``) lists the side databases so query
time needs no directory glob. At query time the engine attaches only
the side databases the querying credentials can read and builds a
temporary union view — so different users see different xattr sets,
which is why these views are never persisted.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.scan.trace import TraceRecord
from repro.store import connect
from repro.store.attach import accessible_side_dbs
from repro.store.layout import side_db_name
from repro.store.schema import pack_xattrs

__all__ = [
    "GID_NONE",
    "MAIN",
    "UID_NONE",
    "XattrShards",
    "accessible_side_dbs",
    "shard_xattrs",
    "side_db_name",
    "side_db_protection",
    "write_xattr_shards",
]

#: the "none" uid/gid the paper assigns to side databases so that only
#: the intended principal (plus root) can open them.
UID_NONE = 65534
GID_NONE = 65534

MAIN = "main"


def side_db_protection(kind: str, ident: int) -> tuple[int, int, int]:
    """(uid, gid, mode) applied to a side database file — what gates
    who may attach it at query time."""
    if kind == "user":
        return ident, GID_NONE, 0o600
    if kind == "group_r":
        return UID_NONE, ident, 0o040
    if kind == "group_nr":
        return UID_NONE, ident, 0o000
    raise ValueError(f"unknown side db kind {kind!r}")


@dataclass
class XattrShards:
    """Destination buckets for one directory's xattr values."""

    main_rows: list[tuple[int, str]] = field(default_factory=list)
    per_user: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    per_group_r: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    per_group_nr: dict[int, list[tuple[int, str]]] = field(default_factory=dict)

    @property
    def num_side_dbs(self) -> int:
        return len(self.per_user) + len(self.per_group_r) + len(self.per_group_nr)


def _matches_parent(dir_rec: TraceRecord, entry: TraceRecord) -> bool:
    """Rule 2: equivalent protection — same owner, same group, same
    read exposure (we compare the read bits; write/execute bits do not
    change who can *see* a value)."""
    return (
        entry.uid == dir_rec.uid
        and entry.gid == dir_rec.gid
        and (entry.mode & 0o444) == (dir_rec.mode & 0o444)
    )


def shard_xattrs(dir_rec: TraceRecord, entries: list[TraceRecord]) -> XattrShards:
    """Apply the §III-A2 placement rules to one directory's entries."""
    shards = XattrShards()
    if dir_rec.xattrs:
        shards.main_rows.append((dir_rec.ino, pack_xattrs(dir_rec.xattrs)))
    for e in entries:
        if not e.xattrs:
            continue
        packed = pack_xattrs(e.xattrs)
        if _matches_parent(dir_rec, e):
            shards.main_rows.append((e.ino, packed))
            continue
        # Rule 3: owner always gets a per-user copy of their values —
        # including values on files they have currently chmod'ed
        # unreadable (the owner could trivially flip the bits back, so
        # hiding them buys no real security, §III-A2).
        shards.per_user.setdefault(e.uid, []).append((e.ino, packed))
        # Rule 4: group copies only when the group differs from the
        # parent directory's.
        if e.gid != dir_rec.gid:
            if e.mode & 0o040:  # group-readable file
                shards.per_group_r.setdefault(e.gid, []).append((e.ino, packed))
            else:
                shards.per_group_nr.setdefault(e.gid, []).append((e.ino, packed))
    return shards


def write_xattr_shards(
    index_dir: Path,
    conn_main: sqlite3.Connection,
    shards: XattrShards,
    suffix: str = "",
    faults=None,
) -> list[str]:
    """Write shard buckets: main rows into the open primary database,
    side buckets into newly created side database files, and the
    tracking rows into ``xattrs_avail``. Returns the side database
    *final* names created.

    ``suffix`` stages each side database at ``name + suffix`` while
    the tracking rows record the final ``name`` — the crash-safe build
    path writes every artifact under a temp suffix and renames only
    once the whole directory succeeded, so a failure mid-shard can
    never leave a published primary database whose tracking table
    names shards that were not written. ``faults`` is an optional
    :class:`~repro.scan.faults.FaultPlan` fired per bucket (site
    ``"xattr_shards"``, key = final name) so tests can fail the write
    mid-way deterministically.
    """
    if shards.main_rows:
        conn_main.executemany(
            "INSERT INTO xattrs (exinode, exattrs) VALUES (?, ?)",
            shards.main_rows,
        )
    created: list[str] = []
    buckets: list[tuple[str, int, list[tuple[int, str]]]] = []
    for uid, rows in shards.per_user.items():
        buckets.append(("user", uid, rows))
    for gid, rows in shards.per_group_r.items():
        buckets.append(("group_r", gid, rows))
    for gid, rows in shards.per_group_nr.items():
        buckets.append(("group_nr", gid, rows))
    for kind, ident, rows in buckets:
        name = side_db_name(kind, ident)
        if faults is not None:
            faults.fire("xattr_shards", name)
        side = connect.create_side_db(index_dir / (name + suffix), fresh=bool(suffix))
        try:
            side.execute("BEGIN")
            side.executemany(
                "INSERT INTO xattrs (exinode, exattrs) VALUES (?, ?)", rows
            )
            side.execute("COMMIT")
        finally:
            side.close()
        uid, gid, mode = side_db_protection(kind, ident)
        conn_main.execute(
            "INSERT INTO xattrs_avail (filename, uid, gid, mode, isroot) "
            "VALUES (?,?,?,?,1)",
            (name, uid, gid, mode),
        )
        created.append(name)
    return created
