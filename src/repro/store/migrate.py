"""In-place, resumable schema migration (``gufi index migrate``).

Indexes written before the store layer existed carry ``PRAGMA
user_version = 0``. They stay *read-compatible* — every query path
works against them unchanged — but new schema objects (and the version
stamp itself) arrive only through migration. Migration is:

* **per-directory**: each primary database (and its xattr side
  databases) upgrades independently through
  :data:`repro.store.schema.MIGRATIONS`, committing after every step,
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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import connect, schema
from .layout import DirStore, file_stamp

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


def migrate_db(path: Path | str) -> int:
    """Upgrade one database file in place. Returns the number of
    migration steps applied (0: already current). Each step commits
    with its version stamp before the next begins, so a kill between
    steps resumes exactly where it stopped."""
    conn = connect.open_rw(path)
    try:
        return schema.migrate_conn(conn)
    finally:
        conn.close()


def _migrate_dir(store: DirStore) -> tuple[int, int]:
    """(steps applied, side databases touched) for one directory."""
    steps = migrate_db(store.db_path)
    side_touched = 0
    # every side artifact is an xattr shard, schema-stamped like the
    # primary
    for name in store.side_artifacts():
        if migrate_db(store.artifact_path(name)):
            side_touched += 1
    return steps, side_touched


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
