"""SQL helper functions registered on query connections.

``gufi_query`` exposes helpers the paper's appendix queries use —
``path('')`` to print the directory a row came from, uid/gid name
translation, and level/depth helpers. Functions that depend on *which
directory the thread is currently processing* read a per-thread
holder the engine updates before each per-directory query.

The tools' own SQL builds row paths with :data:`RPATH_SQL`, not with
``rpath()``: a Python callback per row costs about a third of a
fetched row, while ``gufi_dirprefix()`` — the one value that changes
between directories — is a deterministic zero-argument function, which
SQLite evaluates once per execution of the statement. ``rpath`` and
``spath`` stay registered for caller SQL (the paper's appendix uses
them).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field


@dataclass
class QueryContext:
    """Mutable per-connection state the SQL helpers read."""

    current_path: str = "/"
    current_depth: int = 0
    #: uid -> username map for uidtouser()
    users: dict[int, str] = field(default_factory=dict)


#: ``rpath(dname, d_isroot, name)`` in SQL, over ``vrpentries``-shaped
#: rows: the directory prefix (``''`` at the root), then ``/dname``
#: where the row was rolled in from a sub-directory, then ``/name``.
#: Equal to ``rpath`` on every row an index can hold: any ``dname`` of
#: a directory's own row (``NULL`` and ``''`` included, unused), the
#: non-empty relative path of a rolled-in one, and any name (an empty
#: or ``NULL`` one gives the directory's path, ``/`` at the root).
#: ``dname`` is named once: in an un-rolled database it is a scalar
#: sub-select of the view, and each mention compiles its own copy.
RPATH_SQL = (
    "gufi_dirprefix() || CASE WHEN d_isroot THEN '' ELSE '/' || dname END"
    " || CASE WHEN name <> '' THEN '/' || name"
    " WHEN d_isroot AND gufi_dirprefix() = '' THEN '/' ELSE '' END"
)


def register(conn: sqlite3.Connection, ctx: QueryContext) -> None:
    """Attach the helper functions to ``conn``, bound to ``ctx``."""

    def path(*args: str) -> str:
        # path() / path('') -> current directory; path(suffix) joins.
        suffix = args[0] if args and args[0] else ""
        if not suffix:
            return ctx.current_path
        if ctx.current_path == "/":
            return "/" + suffix
        return f"{ctx.current_path}/{suffix}"

    def epath(name: str) -> str:
        """Full path of an entry row given its name column."""
        return path(name)

    def level() -> int:
        return ctx.current_depth

    def uidtouser(uid: int) -> str:
        return ctx.users.get(uid, str(uid))

    def gidtogroup(gid: int) -> str:
        return str(gid)

    def basename(p: str) -> str:
        return p.rstrip("/").rsplit("/", 1)[-1] or "/"

    def spath(sname: str, isroot: int) -> str:
        """Full path of a summary row's directory: the current
        directory for the original record, current/name for rows
        rolled in from sub-directories."""
        if isroot:
            return ctx.current_path
        if ctx.current_path == "/":
            return "/" + sname
        return f"{ctx.current_path}/{sname}"

    def rpath(dname: str, d_isroot: int, name: str) -> str:
        """Full path of a vrpentries row: its parent directory's path
        (rollup-aware, via the joined summary record) plus its name."""
        parent = spath(dname, d_isroot)
        if not name:
            return parent
        return ("" if parent == "/" else parent) + "/" + name

    def gufi_dirprefix() -> str:
        """The current directory as a prefix: ``''`` at the root."""
        current = ctx.current_path
        return "" if current == "/" else current

    conn.create_function("path", -1, path, deterministic=False)
    conn.create_function("epath", 1, epath, deterministic=False)
    conn.create_function("spath", 2, spath, deterministic=False)
    conn.create_function("rpath", 3, rpath, deterministic=False)
    # deterministic: evaluated once per execution of a statement, and
    # re-evaluated when the statement runs again for another directory
    conn.create_function("gufi_dirprefix", 0, gufi_dirprefix, deterministic=True)
    conn.create_function("level", 0, level, deterministic=False)
    conn.create_function("uidtouser", 1, uidtouser, deterministic=False)
    conn.create_function("gidtogroup", 1, gidtogroup, deterministic=False)
    conn.create_function("basename", 1, basename, deterministic=True)
