"""The per-directory store layer — the sole authority for how a GUFI
index directory is laid out on disk.

Everything that knows an artifact's *file name*, the ``.partial``
staging/commit protocol, the stat-derived validity stamps, or the
schema version lives under this package:

* :mod:`repro.store.layout` — the closed set of artifact kinds a
  directory can hold (``db.db`` and the xattr shards), the
  :class:`~repro.store.layout.DirStore` handle (staging, publish,
  orphan-partial GC), and the stamp helpers every cache validates
  with;
* :mod:`repro.store.schema` — the DDL, the ``PRAGMA user_version``
  schema stamp, and the migration registry;
* :mod:`repro.store.connect` — SQLite connection policy (template
  databases, read-only opens, traced attaches, byte accounting);
* :mod:`repro.store.attach` — the :class:`~repro.store.attach.
  AttachSession` that builds and drops a query's xattr views and owns
  the "only readable shards attach" invariant;
* :mod:`repro.store.migrate` / :mod:`repro.store.doctor` — in-place
  schema upgrades (resumable) and the read-only health report.

``repro.core`` modules import their layout knowledge from here; the
encapsulation lint (``tests/test_store_layout.py``) fails the build if
a layout literal reappears outside this package.
"""

from .attach import AttachSession, accessible_side_dbs, attached
from .doctor import DoctorReport, doctor
from .layout import (
    DB_NAME,
    PARTIAL_SUFFIX,
    DirStore,
    StampBracket,
    classify_artifact,
    dir_stamp,
    file_stamp,
    is_side_artifact,
    side_db_name,
    stamp_matches,
)
from .migrate import MigrateResult, migrate_db, migrate_index
from .schema import SCHEMA_VERSION, db_schema_version

__all__ = [
    "AttachSession",
    "DB_NAME",
    "DirStore",
    "DoctorReport",
    "MigrateResult",
    "PARTIAL_SUFFIX",
    "SCHEMA_VERSION",
    "StampBracket",
    "accessible_side_dbs",
    "attached",
    "classify_artifact",
    "db_schema_version",
    "dir_stamp",
    "doctor",
    "file_stamp",
    "is_side_artifact",
    "migrate_db",
    "migrate_index",
    "side_db_name",
    "stamp_matches",
]
