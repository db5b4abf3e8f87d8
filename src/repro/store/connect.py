"""SQLite connection policy for index databases.

Centralises the paper's database-access rules:

* user-facing tools open databases **read-only** (§III-A5) via SQLite
  URI ``mode=ro`` — schema modification is an administrator privilege;
* every database open is reported to an optional
  :class:`~repro.sim.blktrace.IOTracer` with the bytes the query will
  pull from it (Fig 7's accounting);
* connections run with WAL off and synchronous=OFF during bulk builds
  (the index is rebuilt from scratch on corruption, like the paper's
  periodic re-pull, so durability is not bought with fsyncs);
* every database this layer creates is stamped with ``PRAGMA
  user_version = SCHEMA_VERSION`` (see :mod:`repro.store.schema`);
* the templates are built at ``schema.PAGE_SIZE`` and store their DDL
  compacted (``schema.compact_ddl``): SQLite re-parses the stored
  ``CREATE`` text on every open and ATTACH — a cost every cold
  directory of every query pays — and the text is most of an empty
  database: short enough, the empty primary database is eight
  512-byte pages, one file-system block.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from pathlib import Path

from repro.sim.blktrace import IOTracer

from . import schema
from .layout import artifact_bytes


# ----------------------------------------------------------------------
# Template databases. Creating a per-directory database by running the
# full DDL costs milliseconds per directory; GUFI's builders instead
# copy a pre-built template file into place (one file copy) and only
# then insert rows. We do the same, with one template for the primary
# schema and one for xattr side databases, built lazily per process.
# The version stamp rides in the template, so stamping costs nothing
# per directory.
# ----------------------------------------------------------------------

_template_lock = threading.Lock()
_templates: dict[str, bytes] = {}


def _template(kind: str) -> bytes:
    """The raw bytes of an empty schema-initialised, version-stamped
    database file, built once per process. Materialising a new
    directory database is then a single open+write+close."""
    with _template_lock:
        blob = _templates.get(kind)
        if blob is None:
            fd, path = tempfile.mkstemp(prefix=f"gufi_template_{kind}_", suffix=".db")
            os.close(fd)
            os.unlink(path)  # sqlite must create it fresh
            conn = sqlite3.connect(path, isolation_level=None)
            try:
                conn.execute(f"PRAGMA page_size = {schema.PAGE_SIZE}")
                conn.execute("PRAGMA journal_mode = MEMORY")
                conn.execute("PRAGMA synchronous = OFF")
                ddl = schema.ALL_DDL if kind == "full" else (schema.CREATE_XATTRS,)
                for statement in ddl:
                    conn.execute(schema.compact_ddl(statement))
                schema.stamp_schema_version(conn)
            finally:
                conn.close()
            with open(path, "rb") as fh:
                blob = fh.read()
            os.unlink(path)
            _templates[kind] = blob
        return blob


def _connect_rw(path: str) -> sqlite3.Connection:
    conn = sqlite3.connect(path, isolation_level=None)
    conn.execute("PRAGMA journal_mode = MEMORY")
    conn.execute("PRAGMA synchronous = OFF")
    return conn


def _create(path: Path | str, kind: str, fresh: bool) -> sqlite3.Connection:
    p = str(path)
    if fresh or not os.path.exists(p):
        with open(p, "wb") as fh:
            fh.write(_template(kind))
    return _connect_rw(p)


def create_db(path: Path | str, fresh: bool = False) -> sqlite3.Connection:
    """Create an index database (template copy) and open it.

    ``fresh=True`` skips the existence probe when the caller knows the
    file cannot exist yet (bulk builds), saving a stat per directory.

    Connections run in autocommit (``isolation_level=None``): callers
    wrap bulk work in explicit BEGIN/COMMIT, and ATTACH/DETACH (which
    SQLite forbids inside transactions) always work.
    """
    return _create(path, "full", fresh)


def create_side_db(path: Path | str, fresh: bool = False) -> sqlite3.Connection:
    """Create a per-user/per-group xattr side database (only the
    ``xattrs`` table lives in side databases).

    ``fresh=True`` overwrites whatever is at ``path`` — the staged
    writes of the crash-safe build path must not append to a leftover
    from an interrupted earlier attempt."""
    return _create(path, "side", fresh)


def open_ro(
    path: Path | str, tracer: IOTracer | None = None
) -> sqlite3.Connection:
    """Open an index database read-only (the only mode user query
    tools are allowed — §III-A5), recording the read volume."""
    p = str(path)
    if tracer is not None:
        tracer.record(p, artifact_bytes(p))
    uri = f"file:{p}?mode=ro&immutable=1"
    return sqlite3.connect(uri, uri=True, isolation_level=None)


def open_rw(path: Path | str) -> sqlite3.Connection:
    """Administrator open: schema changes and rollups allowed."""
    return _connect_rw(str(path))


def attach_ro(
    conn: sqlite3.Connection,
    path: Path | str,
    alias: str,
    tracer: IOTracer | None = None,
) -> None:
    """ATTACH another index database read-only under ``alias``."""
    p = str(path)
    if tracer is not None:
        tracer.record(p, artifact_bytes(p))
    conn.execute(f"ATTACH DATABASE ? AS {alias}", (f"file:{p}?mode=ro&immutable=1",))


def detach(conn: sqlite3.Connection, alias: str) -> None:
    conn.execute(f"DETACH DATABASE {alias}")


def _alias_path(conn: sqlite3.Connection, alias: str) -> str:
    for row in conn.execute("PRAGMA database_list"):
        if row[1] == alias:
            return str(row[2])
    return ""


def table_bytes(
    conn: sqlite3.Connection, alias: str, tables: set[str]
) -> int:
    """Bytes occupied by ``tables`` in the ``alias`` schema, via the
    DBSTAT virtual table — the pages a table-restricted query actually
    pulls (the paper: 'many queries do not need to access more than
    the pre-computed summary tables'). Falls back to the whole file
    when DBSTAT is unavailable.

    Missing-file handling matches :func:`~repro.store.layout.
    artifact_bytes`: if the alias's backing file is gone (or the alias
    is unknown) the accounting reports 0 instead of the fixed
    schema-page constant — an absent database pulls no pages."""
    backing = _alias_path(conn, alias)
    if not backing or artifact_bytes(backing) == 0:
        return 0
    try:
        placeholders = ",".join("?" * len(tables))
        (n,) = conn.execute(
            f"SELECT COALESCE(SUM(pgsize), 0) FROM {alias}.dbstat "
            f"WHERE name IN ({placeholders})",
            tuple(tables),
        ).fetchone()
        # one page of schema/metadata is always read
        return int(n) + 4096
    except sqlite3.Error:
        return artifact_bytes(backing)


def is_readonly_error(exc: sqlite3.Error) -> bool:
    """Did this operation fail because the connection is read-only?"""
    return "readonly" in str(exc).lower() or "attempt to write" in str(exc).lower()
