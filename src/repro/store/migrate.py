"""Resumable schema migration (``gufi index migrate``).

Indexes written by earlier versions of the store layer carry an older
``PRAGMA user_version`` (0: before the store layer existed; 1: the
1 024-byte-page format with an empty ``tsummary`` in every database).
They stay *read-compatible* — every query path works against them
unchanged, side by side with current databases — and migration brings
them to :data:`~repro.store.schema.SCHEMA_VERSION`. Migration is:

* **staged, then published**: an outdated database is never rewritten
  where it lies (the connection policy is ``journal_mode = MEMORY``: a
  kill inside an in-place rewrite would leave neither the old database
  nor the new one). ``VACUUM INTO`` writes a copy at
  :data:`~repro.store.schema.PAGE_SIZE` under the ``.partial`` name,
  the :data:`~repro.store.schema.MIGRATIONS` steps run on that copy,
  and :meth:`~repro.store.layout.DirStore.publish` renames it over
  the old one — the builders' own commit protocol, so a reader finds
  the old directory or the new one and a kill leaves only staging
  files the next attempt sweeps;
* **per-directory**: each primary database and its xattr side
  databases upgrade together, independently of every other directory,
  so a crash can only lose the single in-flight directory;
* **resumable**: completed directories are journaled through the same
  :class:`~repro.core.checkpoint.BuildJournal` machinery the builders
  use, under ``gufi_migrate.journal``, and ``resume=True`` skips every
  directory whose journal stamp still matches the on-disk database;
* **idempotent**: a database already at
  :data:`~repro.store.schema.SCHEMA_VERSION` is a no-op, so rerunning
  a finished migration (or racing one) is harmless.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import connect, schema
from .layout import DB_NAME, PARTIAL_SUFFIX, DirStore, file_stamp

#: journal file for resumable migrations (lives in the index root,
#: next to — never colliding with — the build journal)
MIGRATE_JOURNAL = "gufi_migrate.journal"

#: fault-injection site fired once per directory before it migrates
#: (key = source path), for kill-and-resume tests
FAULT_SITE = "migrate_dir"


@dataclass
class MigrateResult:
    """Outcome of one :func:`migrate_index` sweep."""

    dirs_seen: int = 0
    #: directories where at least one migration step ran
    dirs_migrated: int = 0
    #: directories skipped — already at the current version, or proven
    #: done by the resume journal
    dirs_skipped: int = 0
    #: total migration steps applied across all databases
    steps_applied: int = 0
    side_dbs_migrated: int = 0
    #: directories that failed: (source path, exception). Non-empty
    #: means the journal was kept for a future ``resume=True`` run.
    errors: list[tuple[str, Exception]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _outdated(path: Path | str) -> bool:
    conn = connect.open_ro(path)
    try:
        return schema.is_outdated(conn)
    finally:
        conn.close()


def _stage_upgraded(src: Path | str, staged: Path | str) -> int:
    """Write an upgraded copy of ``src`` at ``staged``; ``src`` is only
    read. Returns the number of migration steps applied to the copy."""
    try:
        os.unlink(staged)  # VACUUM INTO refuses an existing file
    except FileNotFoundError:
        pass
    # not ``immutable``: SQLite ignores a page-size request on an
    # immutable connection
    conn = sqlite3.connect(f"file:{src}?mode=ro", uri=True, isolation_level=None)
    try:
        conn.execute(f"PRAGMA page_size = {schema.PAGE_SIZE}")
        conn.execute("VACUUM INTO ?", (str(staged),))
    finally:
        conn.close()
    conn = connect.open_rw(staged)
    try:
        steps = schema.migrate_conn(conn)
        if conn.execute("PRAGMA freelist_count").fetchone()[0]:
            # a step dropped something: give its pages back (in place
            # is safe here — nobody reads a staging file)
            conn.execute("VACUUM")
        return steps
    finally:
        conn.close()


def migrate_db(path: Path | str) -> int:
    """Upgrade one database file: stage the upgraded copy beside it,
    rename it over the original. Returns the number of migration steps
    applied (0: already current, nothing written)."""
    if not _outdated(path):
        return 0
    staged = str(path) + PARTIAL_SUFFIX
    steps = _stage_upgraded(path, staged)
    os.replace(staged, path)
    return steps


def _migrate_dir(store: DirStore) -> tuple[int, int]:
    """(steps applied to the primary, side databases upgraded) for one
    directory. Every artifact is staged, then the set is published at
    once — side databases first, the primary last — so the directory
    is its old self or its new self at every instant."""
    # every side artifact is an xattr shard, schema-stamped like the
    # primary
    sides = store.side_artifacts()
    if not any(_outdated(store.artifact_path(n)) for n in (DB_NAME, *sides)):
        return 0, 0
    steps = {
        name: _stage_upgraded(store.artifact_path(name), store.partial_path(name))
        for name in (DB_NAME, *sides)
    }
    store.publish(sides)
    return steps[DB_NAME], sum(1 for name in sides if steps[name])


def migrate_index(
    index: Any,
    resume: bool = False,
    faults: Optional[Any] = None,
) -> MigrateResult:
    """Migrate every directory of an index to the current schema
    version. ``index`` is a ``GUFIIndex`` handle or an index-root
    path. ``faults`` is an optional
    :class:`~repro.scan.faults.FaultPlan` (site :data:`FAULT_SITE`).

    Per-directory failures are recorded and the sweep continues; a
    simulated process death (``kind="crash"``) propagates after the
    journal is flushed, and ``resume=True`` picks up from the journal.
    """
    # Imported lazily: repro.core modules import their layout facts
    # from this package, so a module-level import here would cycle.
    from repro.core.checkpoint import BuildJournal
    from repro.scan.walker import FatalWalkError

    if not hasattr(index, "iter_index_dirs"):
        from repro.core.index import GUFIIndex

        index = GUFIIndex.open(Path(index))

    journal = BuildJournal.open(
        index.root, resume=resume, source="migrate", name=MIGRATE_JOURNAL
    )
    result = MigrateResult()
    try:
        for d in index.iter_index_dirs():
            source_path = index.source_path(d)
            result.dirs_seen += 1
            store = DirStore(d)
            if resume and journal.is_complete(source_path, store.db_path):
                result.dirs_skipped += 1
                continue
            if faults is not None:
                faults.fire(FAULT_SITE, source_path)
            try:
                steps, side_touched = _migrate_dir(store)
            except FatalWalkError:
                raise
            except Exception as exc:  # noqa: BLE001 - per-dir report
                result.errors.append((source_path, exc))
                continue
            result.steps_applied += steps
            result.side_dbs_migrated += side_touched
            if steps or side_touched:
                result.dirs_migrated += 1
                index.cache.invalidate(source_path)
            else:
                result.dirs_skipped += 1
            journal.record(
                source_path, file_stamp(store.db_path), steps, side_touched
            )
    except FatalWalkError:
        journal.close()
        raise
    if result.ok:
        journal.finalize()
    else:
        journal.close()
    return result
