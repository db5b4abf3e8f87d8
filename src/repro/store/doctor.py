"""Read-only index health report (``gufi index doctor``).

Walks the index and reports, without modifying anything:

* **missing primaries**: index directories with no ``db.db`` (every
  walk skips the whole subtree below one — its permissions cannot be
  read);
* the schema-version histogram of the primary databases (spotting
  v0/v1 databases that want ``gufi index migrate`` — a whole older
  index, or the older part of a mixed one — and databases newer than
  this code supports);
* **missing shards**: xattr side databases named by a primary's
  ``xattrs_avail`` tracking table whose file is absent (the query path
  tolerates these by skipping them, but they signal an interrupted
  build that resume never finished);
* **view-form mismatches**: a database whose views are not those of
  what it is (:func:`~repro.store.schema.view_ddl`) — a database
  flagged rolled up whose ``pentries`` is not a table or whose
  ``vrpentries`` is the single-directory view (every rolled-in row
  would answer with this directory's name), or the reverse;
* **stale staging files**: crash-leftover ``*.partial`` artifacts
  (``DirStore.open`` sweeps these before a rebuild; doctor only
  reports them — reporting must be runnable by anyone, including
  operators who do not want a tool that deletes).
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import connect, schema
from .layout import DB_NAME, DirStore


@dataclass
class DoctorReport:
    """Findings of one read-only index sweep."""

    dirs_seen: int = 0
    #: primary-database schema versions → directory count
    versions: dict[int, int] = field(default_factory=dict)
    #: directories whose primary database is older than
    #: :data:`~repro.store.schema.SCHEMA_VERSION`
    dirs_outdated: int = 0
    #: directories whose primary database is *newer* than this code
    #: supports (reading them risks misinterpretation)
    dirs_newer: int = 0
    side_dbs: int = 0
    #: source paths of index directories with no primary database
    missing_primary: list[str] = field(default_factory=list)
    #: (source path, shard file name) tracked by ``xattrs_avail`` but
    #: absent on disk
    missing_shards: list[tuple[str, str]] = field(default_factory=list)
    #: (source path, what is wrong) for databases whose ``pentries`` /
    #: ``vrpentries`` are not those of their rollup state
    view_mismatches: list[tuple[str, str]] = field(default_factory=list)
    #: (source path, file name) of leftover ``*.partial`` staging files
    stale_partials: list[tuple[str, str]] = field(default_factory=list)
    #: (source path, message) for unreadable/corrupt databases
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No findings that need an operator: every directory has its
        database, every database current and carrying its own views,
        every tracked shard present, no staging residue, no errors."""
        return not (
            self.missing_primary
            or self.dirs_outdated
            or self.dirs_newer
            or self.missing_shards
            or self.view_mismatches
            or self.stale_partials
            or self.errors
        )


def _view_mismatch(conn: sqlite3.Connection, version: int) -> str | None:
    """What is wrong with the database's views, if anything. Formats
    before v3 carried the join-form ``vrpentries`` in every database
    (slower, not wrong), so an un-rolled one is held to the
    single-directory form only from v3 on."""
    row = conn.execute(
        "SELECT rolledup, "
        "(SELECT type FROM sqlite_master WHERE name = 'pentries'), "
        "(SELECT sql FROM sqlite_master WHERE name = 'vrpentries') "
        "FROM summary WHERE isroot = 1 AND rectype = 0"
    ).fetchone()
    if row is None:
        return None  # no directory record: not this check's finding
    rolled, kind, stored = bool(row[0]), row[1], row[2]
    if (kind == "table") != rolled:
        return f"rolledup = {int(rolled)} but pentries is a {kind}"
    single = schema.view_ddl(rolled=False)[-1]
    if stored != schema.view_ddl(rolled)[-1] and (
        version >= 3 or stored == single
    ):
        return (
            f"{'rolled-up' if rolled else 'un-rolled'} database carries the "
            f"{'single-directory' if stored == single else 'join-form'} vrpentries"
        )
    return None


def _check_dir(store: DirStore, source_path: str, report: DoctorReport) -> None:
    for name in store.list_partials():
        report.stale_partials.append((source_path, name))
    report.side_dbs += len(store.side_artifacts())
    try:
        conn = connect.open_ro(store.db_path)
    except sqlite3.Error as exc:
        report.errors.append((source_path, f"cannot open: {exc}"))
        return
    try:
        version = schema.db_schema_version(conn)
        report.versions[version] = report.versions.get(version, 0) + 1
        if version < schema.SCHEMA_VERSION:
            report.dirs_outdated += 1
        elif version > schema.SCHEMA_VERSION:
            report.dirs_newer += 1
        mismatch = _view_mismatch(conn, version)
        if mismatch:
            report.view_mismatches.append((source_path, mismatch))
        for (filename,) in conn.execute("SELECT filename FROM xattrs_avail"):
            if not store.artifact_path(filename).exists():
                report.missing_shards.append((source_path, filename))
    except sqlite3.Error as exc:
        report.errors.append((source_path, f"cannot inspect: {exc}"))
    finally:
        conn.close()


def doctor(index: Any) -> DoctorReport:
    """Sweep an index read-only and report its health. ``index`` is a
    ``GUFIIndex`` handle or an index-root path."""
    if not hasattr(index, "iter_index_dirs"):
        from repro.core.index import GUFIIndex

        index = GUFIIndex.open(Path(index))
    report = DoctorReport()
    root = str(index.root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        source_path = dirpath[len(root):] or "/"
        if DB_NAME not in filenames:
            report.missing_primary.append(source_path)
            continue
        report.dirs_seen += 1
        _check_dir(DirStore(Path(dirpath)), source_path, report)
    return report
