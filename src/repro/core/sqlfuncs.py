"""SQL helper functions registered on query connections.

``gufi_query`` exposes helpers the paper's appendix queries use —
``path('')`` to print the directory a row came from, uid/gid name
translation, and level/depth helpers. Functions that depend on *which
directory the thread is currently processing* read a per-thread
holder the engine updates before each per-directory query.
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

    conn.create_function("path", -1, path, deterministic=False)
    conn.create_function("epath", 1, epath, deterministic=False)
    conn.create_function("spath", 2, spath, deterministic=False)
    conn.create_function("rpath", 3, rpath, deterministic=False)
    conn.create_function("level", 0, level, deterministic=False)
    conn.create_function("uidtouser", 1, uidtouser, deterministic=False)
    conn.create_function("gidtogroup", 1, gidtogroup, deterministic=False)
    conn.create_function("basename", 1, basename, deterministic=True)
