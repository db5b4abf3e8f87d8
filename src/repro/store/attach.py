"""Attaching a directory's xattr shards (§III-B1).

The security theorem's load-bearing invariant — *only side databases
the querying credentials can read are ever attached* — lives here and
nowhere else. Every xattr shard that reaches a query connection goes
through :class:`AttachSession` (the per-query xattr views) or
:func:`attached` (rollup's read-only merge scopes), so the gate in
:func:`accessible_side_dbs` cannot be bypassed by an engine stage
growing its own attach code. The primary database is attached by the
walk unit itself (:func:`repro.store.connect.attach_ro`, after the
permission check on the directory's mirrored mode bits).
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fs.permissions import Credentials, can_read_entry

from . import connect
from .layout import DirStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.blktrace import IOTracer


#: SQLite's default ``SQLITE_MAX_ATTACHED`` (besides main and temp)
MAX_ATTACHED = 10


def accessible_side_dbs(
    conn_main: sqlite3.Connection, creds: Credentials
) -> list[str]:
    """Side databases these credentials may attach: the engine-side
    equivalent of the kernel refusing ``open(2)`` on files the user
    cannot read. Owner-uid match on per-user databases is what lets
    users see their own currently-unreadable values."""
    out = []
    for filename, uid, gid, mode in conn_main.execute(
        "SELECT filename, uid, gid, mode FROM xattrs_avail"
    ):
        if creds.is_root or can_read_entry(mode, uid, gid, creds) or creds.uid == uid:
            out.append(filename)
    return out


class AttachSession:
    """The xattr views of one directory on a query connection.

    The caller (the engine's stage runner) already holds the primary
    database attached as ``gufi``; ``xattr_views(creds)`` attaches the
    readable shards and creates the views around the ``E`` stage,
    ``drop_xattr_views()`` drops them and detaches in reverse attach
    order. The shards are filtered through :func:`accessible_side_dbs`
    *inside* this class; there is no way to attach one without passing
    the gate.
    """

    __slots__ = ("conn", "store", "tracer", "_aliases", "_temps")

    def __init__(
        self,
        conn: sqlite3.Connection,
        store: DirStore,
        tracer: "IOTracer | None" = None,
    ) -> None:
        self.conn = conn
        self.store = store
        self.tracer = tracer
        self._aliases: list[str] = []
        #: TEMP objects created, as ``(kind, name)``; dropped in reverse
        self._temps: list[tuple[str, str]] = []

    @property
    def attached(self) -> int:
        """Side databases attached right now."""
        return len(self._aliases)

    # -- xattr views (§III-B1) -----------------------------------------
    def xattr_views(self, creds: Credentials) -> None:
        """Create the per-query temporary xattr views.

        Attaches every side database ``creds`` may read, then creates:

        * ``vxattrs(exinode, exattrs)`` — union of the directory's
          xattrs table with the accessible side databases (attached
          side by side, or spilled into a TEMP table through one slot
          when they outnumber the connection's free attach slots);
        * ``xpentries`` — ``pentries`` joined with ``vxattrs`` (the
          paper's Fig 9 ``myxatv``-joined-with-pentries convenience).

        Views are TEMP: different users get different views, so none
        are persisted; ``drop_xattr_views`` undoes all of it."""
        conn = self.conn
        paths = [
            path
            for name in accessible_side_dbs(conn, creds)
            # a tracking row may be newer than an interrupted build
            if (path := self.store.artifact_path(name)).exists()
        ]
        selects = ["SELECT exinode, exattrs FROM gufi.xattrs"]
        used = sum(
            row[1] not in ("main", "temp")
            for row in conn.execute("PRAGMA database_list")
        )
        if len(paths) <= MAX_ATTACHED - used:
            for i, path in enumerate(paths):
                alias = f"xa{i}"
                connect.attach_ro(conn, path, alias, self.tracer)
                self._aliases.append(alias)
                selects.append(f"SELECT exinode, exattrs FROM {alias}.xattrs")
        else:
            # More readable shards than attach slots (a rolled-up
            # directory gathers its subtree's per-user shards): copy
            # them through one slot into a TEMP table, one at a time.
            conn.execute("DROP TABLE IF EXISTS temp.xattr_spill")
            conn.execute("CREATE TEMP TABLE xattr_spill (exinode, exattrs)")
            self._temps.append(("TABLE", "xattr_spill"))
            for path in paths:
                with attached(conn, path, "xa0", tracer=self.tracer):
                    conn.execute(
                        "INSERT INTO temp.xattr_spill "
                        "SELECT exinode, exattrs FROM xa0.xattrs"
                    )
            selects.append("SELECT exinode, exattrs FROM temp.xattr_spill")
        # UNION (not UNION ALL): an entry's values may legitimately live
        # in several accessible stores at once (its owner's per-user
        # database plus a per-group database); the paper builds "a view
        # of all *unique* accessible XAttrs".
        union = " UNION ".join(selects)
        conn.execute("DROP VIEW IF EXISTS temp.vxattrs")
        conn.execute(f"CREATE TEMP VIEW vxattrs AS {union}")
        conn.execute("DROP VIEW IF EXISTS temp.xpentries")
        conn.execute(
            "CREATE TEMP VIEW xpentries AS "
            "SELECT p.*, x.exattrs FROM gufi.vrpentries p "
            "INNER JOIN vxattrs x ON p.inode = x.exinode"
        )
        self._temps += [("VIEW", "vxattrs"), ("VIEW", "xpentries")]

    def drop_xattr_views(self) -> None:
        for kind, name in reversed(self._temps):
            self.conn.execute(f"DROP {kind} IF EXISTS temp.{name}")
        self._temps = []
        for alias in reversed(self._aliases):
            connect.detach(self.conn, alias)
        self._aliases = []


@contextmanager
def attached(
    conn: sqlite3.Connection,
    path: Path | str,
    alias: str,
    tracer: "IOTracer | None" = None,
) -> Iterator[None]:
    """Attach scope (rollup's child merges, the xattr spill):
    read-only ATTACH for the duration of the block, DETACH on the way
    out."""
    connect.attach_ro(conn, path, alias, tracer)
    try:
        yield
    finally:
        connect.detach(conn, alias)
