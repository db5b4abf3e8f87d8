"""Attach lifecycle for one directory's artifact set (§III-B1).

The security theorem's load-bearing invariant — *only side databases
the querying credentials can read are ever attached* — lives here and
nowhere else. Everything that ATTACHes an index artifact to a query
connection goes through :class:`AttachSession` (per-directory query
lifecycle) or :func:`attached` (administrative merge scopes), so the
gate in :func:`accessible_side_dbs` cannot be bypassed by an engine
stage growing its own attach code.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Optional

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
    """Ordered attach/detach of one directory's artifacts on a query
    connection.

    Lifecycle: ``attach_main()`` (or ``adopt_main()`` when the caller
    already holds the main attach), optionally ``xattr_views(creds)``
    and ``attach_sidecar(...)``, then ``close()`` — which drops views
    and detaches in reverse attach order. The xattr side databases are
    filtered through :func:`accessible_side_dbs` *inside* this class;
    there is no way to attach a shard without passing the gate.

    Optional sidecars (e.g. the FTS5 name index) carry only metadata
    already protected by the directory's own permissions, so they are
    gated exactly like the primary database: attachable only once the
    main attach succeeded for these credentials.
    """

    __slots__ = ("conn", "store", "main_alias", "tracer", "_aliases", "_temps", "_main")

    def __init__(
        self,
        conn: sqlite3.Connection,
        store: DirStore,
        main_alias: str = "gufi",
        tracer: "IOTracer | None" = None,
    ) -> None:
        self.conn = conn
        self.store = store
        self.main_alias = main_alias
        self.tracer = tracer
        self._aliases: list[str] = []
        #: TEMP objects created, as ``(kind, name)``; dropped in reverse
        self._temps: list[tuple[str, str]] = []
        self._main = False

    # -- main database -------------------------------------------------
    def attach_main(self) -> None:
        connect.attach_ro(self.conn, self.store.db_path, self.main_alias, self.tracer)
        self._main = True

    def adopt_main(self) -> None:
        """Record that the caller already attached the primary database
        under ``main_alias`` (the engine's stage runner attaches it at
        unit start, long before the xattr stages run). The session then
        manages views and side attaches but leaves the main attach to
        its owner."""
        self._main = False  # not ours to detach

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
        are persisted; ``drop_xattr_views``/``close`` undo all of it."""
        conn = self.conn
        paths = [
            path
            for name in accessible_side_dbs(conn, creds)
            # a tracking row may be newer than an interrupted build
            if (path := self.store.artifact_path(name)).exists()
        ]
        selects = [f"SELECT exinode, exattrs FROM {self.main_alias}.xattrs"]
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
            f"SELECT p.*, x.exattrs FROM {self.main_alias}.vrpentries p "
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

    # -- optional sidecars ---------------------------------------------
    def attach_sidecar(
        self, kind_key: str, alias: str, ident: Optional[int] = None
    ) -> bool:
        """Attach an optional sidecar artifact read-only under
        ``alias``. Returns False (no attach) when the sidecar was never
        built for this directory. Permission gate: same as the primary
        database — the caller reached this directory through a readable
        path, and sidecars carry no data more private than the primary
        (that is a registration-time obligation on the kind)."""
        from .layout import artifact_kind

        name = artifact_kind(kind_key).name_for(ident)
        path = self.store.artifact_path(name)
        if not path.exists():
            return False
        connect.attach_ro(self.conn, path, alias, self.tracer)
        self._aliases.append(alias)
        return True

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Drop views and detach everything this session attached, in
        reverse attach order (views before their backing attaches)."""
        self.drop_xattr_views()
        if self._main:
            try:
                self.conn.commit()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
            connect.detach(self.conn, self.main_alias)
            self._main = False


@contextmanager
def attached(
    conn: sqlite3.Connection,
    path: Path | str,
    alias: str,
    ro: bool = True,
    tracer: "IOTracer | None" = None,
) -> Iterator[None]:
    """Administrative attach scope (rollup's child merges): ATTACH for
    the duration of the block, DETACH on the way out. ``ro=False`` is
    for administrator-only writers merging into an attached database —
    never reachable from query credentials."""
    if ro:
        connect.attach_ro(conn, path, alias, tracer)
    else:
        conn.execute(f"ATTACH DATABASE ? AS {alias}", (str(path),))
    try:
        yield
    finally:
        connect.detach(conn, alias)
