"""Build journal: crash-safe checkpointing for index construction.

A full index build walks billions of entries (§III-A3, §III-C1) and
can die mid-scan — node failure, timeout, disk full. Losing hours of
per-directory database writes to one failure is unacceptable at that
scale, so the builders journal their progress: every directory whose
database has been *published* (atomically renamed into place, see
:func:`repro.core.build.build_dir_db`) gets one appended, flushed
record. A rerun with ``BuildOptions(resume=True)`` loads the journal
and skips every directory whose record still matches the on-disk
database, rebuilding only what is missing, partial, or stale.

Journal format (``gufi_build.journal`` in the index root): one JSON
object per line. The first line is a header::

    {"format": "gufi-journal-1", "source": "..."}

followed by completion records::

    {"path": "/a/b", "stamp": [inode, mtime_ns, size],
     "entries": 12, "side_dbs": 2}

``stamp`` is the published ``db.db``'s (inode, mtime_ns, size) — the
same validation triple the :class:`~repro.core.index.DirMetaCache`
uses — taken *after* the rename, so a record can only exist for a
fully published database. On load, records are re-validated against a
fresh stat: if the database was deleted or rewritten out-of-band the
stamp mismatches and the directory is rebuilt. Truncated trailing
lines (the crash landed mid-append) are skipped, not fatal.

The journal is removed when a build finishes with zero errors — a
journal file's presence is itself the signal that the index may be
incomplete.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.store import layout

JOURNAL_NAME = "gufi_build.journal"
JOURNAL_FORMAT = "gufi-journal-1"
CURSOR_NAME = "gufi_changefeed.cursor"
CURSOR_FORMAT = "gufi-changefeed-cursor-1"


@dataclass(frozen=True)
class JournalEntry:
    """One completed directory: published database + its stamp."""

    path: str
    stamp: tuple[int, int, int]
    entries: int
    side_dbs: int


class BuildJournal:
    """Append-only completion log for one index build.

    Thread-safe: builder workers record completions concurrently; each
    record is one ``write`` + ``flush`` under a lock, so a crash
    between directories never interleaves or loses whole records
    (at worst the final line is truncated, which the loader skips).
    """

    def __init__(self, index_root: Path | str, name: str = JOURNAL_NAME):
        self.root = Path(index_root)
        self.name = name
        self.completed: dict[str, JournalEntry] = {}
        self._fh = None
        self._lock = threading.Lock()

    @property
    def journal_path(self) -> Path:
        return self.root / self.name

    # ------------------------------------------------------------------
    # Open / load
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        index_root: Path | str,
        resume: bool = False,
        source: str = "",
        name: str = JOURNAL_NAME,
    ) -> "BuildJournal":
        """Open the journal for a build.

        ``resume=True`` loads prior completion records and appends to
        the existing file; otherwise any stale journal is truncated
        (a fresh build owes nothing to a previous attempt).

        ``name`` selects the journal file — other resumable
        per-directory sweeps (``gufi index migrate``) reuse this
        machinery under their own file so a migration checkpoint never
        collides with a build checkpoint."""
        j = cls(index_root, name=name)
        if resume:
            j.completed = cls.load(index_root, name=name)
        mode = "a" if resume and j.journal_path.exists() else "w"
        j._fh = open(j.journal_path, mode, encoding="utf-8")
        if mode == "w":
            j._fh.write(
                json.dumps({"format": JOURNAL_FORMAT, "source": source}) + "\n"
            )
            j._fh.flush()
        return j

    @staticmethod
    def load(
        index_root: Path | str, name: str = JOURNAL_NAME
    ) -> dict[str, JournalEntry]:
        """Parse completion records from an existing journal (empty
        dict when absent). Later records for the same path win;
        malformed lines — e.g. truncated by the crash being resumed
        from — are skipped."""
        path = Path(index_root) / name
        completed: dict[str, JournalEntry] = {}
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return completed
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # truncated mid-append by the crash
            if not isinstance(obj, dict) or "path" not in obj:
                continue  # header or foreign line
            try:
                entry = JournalEntry(
                    path=obj["path"],
                    stamp=tuple(obj["stamp"]),
                    entries=int(obj["entries"]),
                    side_dbs=int(obj["side_dbs"]),
                )
            except (KeyError, TypeError, ValueError):
                continue
            completed[entry.path] = entry
        return completed

    # ------------------------------------------------------------------
    # Recording / checking
    # ------------------------------------------------------------------
    def record(
        self,
        source_path: str,
        stamp: tuple[int, int, int] | None,
        entries: int,
        side_dbs: int,
    ) -> None:
        """Journal one published directory database. Callers pass the
        stamp taken *after* the rename; a ``None`` stamp (the database
        vanished between rename and stat) is not journaled — the
        directory will simply be rebuilt on resume."""
        if stamp is None or self._fh is None:
            return
        entry = JournalEntry(source_path, tuple(stamp), entries, side_dbs)
        line = json.dumps(
            {
                "path": entry.path,
                "stamp": list(entry.stamp),
                "entries": entry.entries,
                "side_dbs": entry.side_dbs,
            }
        )
        with self._lock:
            self.completed[source_path] = entry
            self._fh.write(line + "\n")
            self._fh.flush()

    def is_complete(self, source_path: str, db_path: Path | str) -> bool:
        """Was this directory published by a previous attempt and is
        its database still exactly the one we published?"""
        entry = self.completed.get(source_path)
        if entry is None:
            return False
        return layout.stamp_matches(db_path, entry.stamp)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close, *keeping* the journal file (the build did
        not finish cleanly; a future resume needs the records)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def finalize(self) -> None:
        """Close and remove the journal: the build completed with no
        errors, so the index is whole and needs no resume marker."""
        self.close()
        try:
            self.journal_path.unlink()
        except OSError:
            pass


class ChangefeedCheckpoint:
    """Durable cursor for the incremental-indexing consumer.

    The changefeed consumer (:func:`repro.core.changefeed.
    changefeed2index`) applies a drained event batch to the index and
    then — only then — commits the batch's final sequence number here.
    A consumer killed mid-apply restarts from the last committed
    cursor and re-drains the same events; because every per-directory
    apply rescans the live source and republishes through the atomic
    ``.partial``+rename path, replaying is idempotent, so commit-after-
    apply gives exactly-once *effects* without two-phase machinery.

    The cursor file (``gufi_changefeed.cursor`` in the index root) is
    a single JSON object rewritten atomically (tmp +
    :func:`~repro.store.layout.publish`, like the databases) — a crash
    during commit leaves the previous cursor intact, never a torn one.
    """

    def __init__(self, index_root: Path | str):
        self.root = Path(index_root)

    @property
    def cursor_path(self) -> Path:
        return self.root / CURSOR_NAME

    def load(self) -> int:
        """Last committed cursor; 0 when no checkpoint exists yet (a
        consumer starting from scratch has applied nothing). Corrupt
        files read as 0 — the journal overflow check then decides
        whether replay-from-0 is possible or a rebuild is needed."""
        return self.load_state()[0]

    def load_state(self) -> tuple[int, list[str]]:
        """(cursor, pending tsummary roots). The pending list names
        tsummary roots whose rows a crashed apply may have destroyed
        (a per-directory rebuild publishes a database with no tsummary
        table); the resumed apply must re-derive them, because the
        destroyed rows are no longer there to detect."""
        try:
            obj = json.loads(self.cursor_path.read_text(encoding="utf-8"))
            cursor = int(obj["cursor"])
            pending = [str(p) for p in obj.get("pending_tsummary", [])]
            return cursor, pending
        except (OSError, ValueError, KeyError, TypeError):
            return 0, []

    def commit(
        self, cursor: int, pending_tsummary: Sequence[str] = (), faults=None
    ) -> None:
        """Atomically persist ``cursor`` (and any tsummary roots still
        owed a refresh): a tmp file, published under ``faults``."""
        payload = json.dumps(
            {
                "format": CURSOR_FORMAT,
                "cursor": int(cursor),
                "pending_tsummary": sorted(pending_tsummary),
            }
        )
        tmp = self.cursor_path.with_suffix(".cursor.tmp")
        tmp.write_text(payload, encoding="utf-8")
        layout.publish(tmp, self.cursor_path, faults)

    def clear(self) -> None:
        """Remove the checkpoint (e.g. after a full rebuild resets the
        incremental state)."""
        try:
            self.cursor_path.unlink()
        except OSError:
            pass
