"""GUFI per-directory database schema (paper §III-B, Fig 5), plus the
schema-version stamp and migration registry.

Every directory in the index holds one SQLite database with three
record-holding tables plus views:

* ``entries`` — one row per non-directory entry (file/symlink) with
  the standard inode attributes; xattr *names* are packed into a
  column here (names are metadata-protected, values are not).
* ``summary`` — the directory's own attributes plus aggregates over
  its entries (min/max/total sizes, counts, time ranges). Can hold
  *overall* (rectype 0), *per-user* (rectype 1), and *per-group*
  (rectype 2) records. After a rollup, sub-directory summary rows are
  copied in with ``isroot=0`` and the relative path in ``name``.
* ``tsummary`` — whole-subtree aggregates; also rectype-typed. The
  table exists only in the databases ``bfti`` was asked about
  (:mod:`repro.core.tsummary` creates it with its rows; §III-B:
  "``tsummary`` tables are not created during index construction").
* ``pentries`` — a view of ``entries`` augmented with the parent
  inode. Rollup materialises it into a real table so sub-directory
  rows can be merged in without touching ``entries``.
* ``vrpentries`` — ``pentries`` plus the parent directory's relative
  path, so full paths survive rollup. :func:`view_ddl` holds the text
  of both views, for an un-rolled and for a rolled-up database.
* ``xattrs`` — xattr values for entries whose protection matches the
  directory database itself; ``xattrs_avail`` tracks the per-user /
  per-group side databases holding the rest (§III-A2, §III-B1).

Versioning
----------

Every database written by the store layer carries ``PRAGMA
user_version = SCHEMA_VERSION`` (side databases included):

* **v0** — the pre-store, unversioned layout;
* **v1** — the same DDL, stamped: 1 024-byte pages, the DDL text
  stored with ``INTEGER``, an empty ``tsummary`` table in every
  database. An empty database is 8 KiB — two file-system blocks;
* **v2** — :data:`PAGE_SIZE`-byte (512) pages, the DDL text stored
  with ``INT`` (same affinity, a third fewer characters for SQLite to
  keep and re-parse), no ``tsummary`` until ``bfti`` creates one. An
  empty database is 4 KiB — one block;
* **v3** — the views of an *un-rolled* database describe one
  directory (scalar sub-selects over ``entries``, no join with
  ``summary``): same columns, rows and order, but SQLite re-compiles
  the user's ``E`` in every directory and planning the join cost more
  than the ATTACH. A rolled-up database keeps the join
  (:func:`view_ddl`).

Every reader reads all four side by side (a changefeed apply on an
older index leaves a mixed one) and none asks which it has: the views
live in the file, and the one difference a reader can observe —
whether ``tsummary`` exists — the per-directory metadata statement
learns from ``sqlite_master`` (:func:`has_tsummary_sql`).
:mod:`repro.store.migrate` upgrades a database through the
:data:`MIGRATIONS` registry, one step per version, per directory, and
resumably. New steps append to the registry; a reader that encounters
a version *newer* than :data:`SCHEMA_VERSION` should refuse rather
than guess (``gufi index doctor`` reports such databases).
"""

from __future__ import annotations

import re
import sqlite3
from collections.abc import Callable

#: the schema epoch stamped into ``PRAGMA user_version`` of every
#: database this layer writes; bump when a migration step is added
SCHEMA_VERSION = 3

#: page size of every database this layer creates or migrates. Most
#: directories hold a handful of rows per table, so a table is its
#: root page and the smallest page SQLite has is the densest: the
#: empty primary database is eight pages, one 4 KiB block.
PAGE_SIZE = 512

ENTRIES_COLUMNS = (
    "name",
    "type",
    "inode",
    "mode",
    "nlink",
    "uid",
    "gid",
    "size",
    "blksize",
    "blocks",
    "atime",
    "mtime",
    "ctime",
    "linkname",
    "xattr_names",
)

CREATE_ENTRIES = """
CREATE TABLE IF NOT EXISTS entries (
    name        TEXT,
    type        TEXT,
    inode       INTEGER,
    mode        INTEGER,
    nlink       INTEGER,
    uid         INTEGER,
    gid         INTEGER,
    size        INTEGER,
    blksize     INTEGER,
    blocks      INTEGER,
    atime       INTEGER,
    mtime       INTEGER,
    ctime       INTEGER,
    linkname    TEXT,
    xattr_names TEXT
);
"""

SUMMARY_COLUMNS = (
    "name",
    "rectype",
    "isroot",
    "inode",
    "mode",
    "nlink",
    "uid",
    "gid",
    "size",
    "blksize",
    "blocks",
    "atime",
    "mtime",
    "ctime",
    "totfiles",
    "totlinks",
    "totsubdirs",
    "minuid",
    "maxuid",
    "mingid",
    "maxgid",
    "minsize",
    "maxsize",
    "totsize",
    "minmtime",
    "maxmtime",
    "minatime",
    "maxatime",
    "totxattr",
    "rolledup",
    "rollup_entries",
    "depth",
)

CREATE_SUMMARY = """
CREATE TABLE IF NOT EXISTS summary (
    name           TEXT,
    rectype        INTEGER,  -- 0 overall, 1 per-user, 2 per-group
    isroot         INTEGER,  -- 1 original record, 0 copied in by rollup
    inode          INTEGER,
    mode           INTEGER,
    nlink          INTEGER,
    uid            INTEGER,
    gid            INTEGER,
    size           INTEGER,
    blksize        INTEGER,
    blocks         INTEGER,
    atime          INTEGER,
    mtime          INTEGER,
    ctime          INTEGER,
    totfiles       INTEGER,
    totlinks       INTEGER,
    totsubdirs     INTEGER,
    minuid         INTEGER,
    maxuid         INTEGER,
    mingid         INTEGER,
    maxgid         INTEGER,
    minsize        INTEGER,
    maxsize        INTEGER,
    totsize        INTEGER,
    minmtime       INTEGER,
    maxmtime       INTEGER,
    minatime       INTEGER,
    maxatime       INTEGER,
    totxattr       INTEGER,
    rolledup       INTEGER DEFAULT 0,
    rollup_entries INTEGER DEFAULT 0,
    depth          INTEGER DEFAULT 0
);
"""

TSUMMARY_COLUMNS = (
    "rectype",
    "uid",
    "gid",
    "totfiles",
    "totlinks",
    "totsubdirs",
    "totsize",
    "minsize",
    "maxsize",
    "minmtime",
    "maxmtime",
    "maxdepth",
    "totxattr",
    "totusers",
    "totgroups",
)

CREATE_TSUMMARY = """
CREATE TABLE IF NOT EXISTS tsummary (
    rectype    INTEGER,  -- 0 overall, 1 per-user, 2 per-group
    uid        INTEGER,
    gid        INTEGER,
    totfiles   INTEGER,
    totlinks   INTEGER,
    totsubdirs INTEGER,
    totsize    INTEGER,
    minsize    INTEGER,
    maxsize    INTEGER,
    minmtime   INTEGER,
    maxmtime   INTEGER,
    maxdepth   INTEGER,
    totxattr   INTEGER,
    totusers   INTEGER,
    totgroups  INTEGER
);
"""

PENTRIES_COLUMNS = ENTRIES_COLUMNS + ("pinode",)

# What rollup materialises ``pentries`` into (the view's shape).
CREATE_PENTRIES_TABLE = """
CREATE TABLE IF NOT EXISTS pentries (
    name        TEXT,
    type        TEXT,
    inode       INTEGER,
    mode        INTEGER,
    nlink       INTEGER,
    uid         INTEGER,
    gid         INTEGER,
    size        INTEGER,
    blksize     INTEGER,
    blocks      INTEGER,
    atime       INTEGER,
    mtime       INTEGER,
    ctime       INTEGER,
    linkname    TEXT,
    xattr_names TEXT,
    pinode      INTEGER
);
"""

# Xattr value store (§III-B1): two payload columns — the entry's inode
# and a packed name=value list — plus the rollup-provenance marker.
# The same DDL is used in the main db and in every per-user/per-group
# side database.
CREATE_XATTRS = """
CREATE TABLE IF NOT EXISTS xattrs (
    exinode INTEGER,
    exattrs TEXT,
    isroot  INTEGER DEFAULT 1
);
"""

# Tracking table (§III-B1 'an additional table ... keeps track of the
# per-user and per-group XAttr database files that were generated'):
# avoids globbing the directory for side databases at query time.
CREATE_XATTRS_AVAIL = """
CREATE TABLE IF NOT EXISTS xattrs_avail (
    filename TEXT,    -- side database file name within this directory
    uid      INTEGER, -- owner uid of the side database file
    gid      INTEGER, -- owner gid
    mode     INTEGER, -- file mode bits gating who may read it
    isroot   INTEGER DEFAULT 1  -- 0 if the side db was created by rollup
);
"""

def view_ddl(rolled: bool) -> tuple[str, ...]:
    """The ``CREATE VIEW`` statements of a database, as stored — the
    only home of view text: the template, rollup, unrollup and the
    migrations all create views from here.

    ``pentries`` is ``entries`` plus ``pinode``, the parent directory's
    inode (the paper's Fig 5). ``vrpentries`` adds ``dname`` — the
    parent directory's path relative to this database's directory: its
    plain name for the directory's own rows, a multi-segment path for
    rolled-in ones — and ``d_isroot``, which tells the ``rpath()`` SQL
    function whether a prefix is needed (the moral equivalent of
    GUFI's vrpentries/rpath machinery).

    An **un-rolled** database is one directory, and its views say so:
    every row's parent is the one original summary record, read by
    scalar sub-selects that SQLite evaluates once. ``vrpentries``
    stands on ``entries`` directly, not on ``pentries``: every
    directory of every query re-compiles the user's ``E`` (ATTACH
    expires prepared statements), and a view on a view, or a join with
    a one-row table, costs more to plan than the ATTACH itself.

    A **rolled-up** database holds many directories: ``pentries`` is a
    table (:data:`CREATE_PENTRIES_TABLE`, rows of the whole sub-tree)
    and ``vrpentries`` finds each row's directory by joining it to
    ``summary`` on the parent inode.
    """
    if rolled:
        return (
            "CREATE VIEW vrpentries AS SELECT pentries.*, "
            "summary.name AS dname, summary.isroot AS d_isroot "
            "FROM pentries JOIN summary "
            "ON pentries.pinode = summary.inode AND summary.rectype = 0",
        )
    # the directory's own overall summary record, as a scalar sub-select
    own = "(SELECT {} FROM summary WHERE isroot=1 AND rectype=0)"
    pinode = own.format("inode") + " AS pinode"
    dname = own.format("name") + " AS dname"
    return (
        f"CREATE VIEW pentries AS SELECT *, {pinode} FROM entries",
        f"CREATE VIEW vrpentries AS SELECT *, {pinode}, {dname}, "
        "1 AS d_isroot FROM entries",
    )


def is_rolled(conn: sqlite3.Connection) -> bool:
    """Is this a rolled-up database — is ``pentries`` a table?"""
    return conn.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'pentries'"
    ).fetchone() is not None


def create_views(conn: sqlite3.Connection, rolled: bool) -> None:
    """Replace whatever views the database carries with
    :func:`view_ddl`'s. (A ``pentries`` *table* is the caller's: rollup
    creates it before, unrollup drops it before.)"""
    conn.execute("DROP VIEW IF EXISTS vrpentries")
    if not rolled:
        conn.execute("DROP VIEW IF EXISTS pentries")
    for statement in view_ddl(rolled):
        conn.execute(statement)


#: what every new primary database holds (``tsummary`` is not here:
#: ``build_tsummary`` creates it where it is asked to)
ALL_DDL = (
    CREATE_ENTRIES,
    CREATE_SUMMARY,
    *view_ddl(rolled=False),
    CREATE_XATTRS,
    CREATE_XATTRS_AVAIL,
)


def compact_ddl(sql: str) -> str:
    """One DDL statement as it should be *stored* (SQLite re-parses
    the stored text on every open): comments and runs of whitespace
    removed, ``INTEGER`` written ``INT`` (the same column affinity; no
    column here is an ``INTEGER PRIMARY KEY``). The commented source
    above is documentation."""
    sql = " ".join(re.sub(r"--[^\n]*", "", sql).split())
    return re.sub(r"\bINTEGER\b", "INT", sql)


def has_tsummary_sql(alias: str = "main") -> str:
    """Scalar sub-select: 1 when the ``alias`` database has a
    ``tsummary`` table, else 0. Readers embed it in the statement that
    already reads the directory's ``summary`` record, so learning that
    a database has no tree summary (all but the few ``bfti`` was asked
    about) costs no statement of its own and no failed compile."""
    return (
        f"(SELECT COUNT(*) FROM {alias}.sqlite_master "
        "WHERE type = 'table' AND name = 'tsummary')"
    )


# rectype values, named for readability at call sites
RECTYPE_OVERALL = 0
RECTYPE_USER = 1
RECTYPE_GROUP = 2


def pack_xattrs(xattrs: dict[str, bytes]) -> str:
    """Pack name→value pairs into the single-column list format the
    paper's queries match with LIKE (e.g. ``exattrs LIKE '%needle%'``).
    Values that decode as UTF-8 are stored readably; binary values are
    hex-encoded."""
    parts = []
    for name in sorted(xattrs):
        value = xattrs[name]
        try:
            text = value.decode("utf-8")
            if "\x1f" in text or "=" in text:
                raise UnicodeDecodeError("utf-8", value, 0, 1, "reserved char")
        except UnicodeDecodeError:
            text = "0x" + value.hex()
        parts.append(f"{name}={text}")
    return "\x1f".join(parts)


def unpack_xattrs(packed: str) -> dict[str, str]:
    """Inverse of :func:`pack_xattrs` (values stay textual)."""
    out: dict[str, str] = {}
    if not packed:
        return out
    for pair in packed.split("\x1f"):
        name, _, value = pair.partition("=")
        out[name] = value
    return out


def pack_xattr_names(xattrs: dict[str, bytes]) -> str:
    """Xattr *names* column for ``entries`` (names are metadata)."""
    return "\x1f".join(sorted(xattrs))


# ----------------------------------------------------------------------
# Schema versioning / migrations
# ----------------------------------------------------------------------

def db_schema_version(conn: sqlite3.Connection) -> int:
    """The ``PRAGMA user_version`` stamp of an open database. 0 means
    a pre-store, unversioned index (or an empty scratch file)."""
    (v,) = conn.execute("PRAGMA user_version").fetchone()
    return int(v)


def stamp_schema_version(
    conn: sqlite3.Connection, version: int = SCHEMA_VERSION
) -> None:
    """Write the version stamp (template construction and the final
    step of each migration)."""
    conn.execute(f"PRAGMA user_version = {int(version)}")


def _upgrade_0_to_1(conn: sqlite3.Connection) -> None:
    """v0 → v1: the unversioned layout *is* the v1 layout — this step
    exists to stamp the epoch so later migrations have a floor. It
    also creates the views of a primary database that predates
    ``vrpentries`` — those of what the database *is*: a rolled-up one
    given the single-directory view would answer every rolled-in row
    with its own directory's name. Side databases (only an ``xattrs``
    table) take the stamp alone."""
    tables = {
        name
        for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type IN ('table', 'view')"
        )
    }
    if "entries" in tables and "vrpentries" not in tables:
        create_views(conn, is_rolled(conn))


def _upgrade_1_to_2(conn: sqlite3.Connection) -> None:
    """v1 → v2: drop the ``tsummary`` table v1 created in every
    database where it is *empty*; one with rows (``bfti`` was asked
    here) stays, as v2 would have it. The other half of v2 — the page
    size — is not a statement on an open database:
    :mod:`repro.store.migrate` runs these steps on a copy it staged at
    :data:`PAGE_SIZE` and publishes the copy by rename. The stored DDL
    text stays as v1 wrote it (``INTEGER``)."""
    (present,) = conn.execute("SELECT " + has_tsummary_sql()).fetchone()
    if present and conn.execute("SELECT 1 FROM tsummary LIMIT 1").fetchone() is None:
        conn.execute("DROP TABLE tsummary")


def _upgrade_2_to_3(conn: sqlite3.Connection) -> None:
    """v2 → v3: the views become those :func:`view_ddl` gives a
    database of this kind — single-directory ones unless ``pentries``
    is a table. Side databases have none."""
    if conn.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'entries'"
    ).fetchone():
        create_views(conn, is_rolled(conn))


#: migration registry: ``MIGRATIONS[v]`` upgrades a database *from*
#: version ``v`` to ``v + 1``; :func:`migrate_conn` walks it and
#: stamps after each step
MIGRATIONS: dict[int, Callable[[sqlite3.Connection], None]] = {
    0: _upgrade_0_to_1,
    1: _upgrade_1_to_2,
    2: _upgrade_2_to_3,
}


class SchemaVersionError(Exception):
    """A database stamped newer than this code understands."""


def _supported_version(conn: sqlite3.Connection) -> int:
    version = db_schema_version(conn)
    if version > SCHEMA_VERSION:
        raise SchemaVersionError(
            f"database is schema v{version}, newer than supported "
            f"v{SCHEMA_VERSION}"
        )
    return version


def is_outdated(conn: sqlite3.Connection) -> bool:
    """Does this database want migrating? (Raises
    :class:`SchemaVersionError` for one newer than this code.)"""
    return _supported_version(conn) < SCHEMA_VERSION


def migrate_conn(conn: sqlite3.Connection) -> int:
    """Apply every outstanding :data:`MIGRATIONS` step to one open
    database — :mod:`repro.store.migrate` hands it the staged copy,
    never the published file. Returns the number of steps applied (0:
    already current); each step commits with its version stamp."""
    version = _supported_version(conn)
    applied = 0
    while version < SCHEMA_VERSION:
        step = MIGRATIONS[version]
        step(conn)
        version += 1
        stamp_schema_version(conn, version)
        conn.commit()
        applied += 1
    return applied
