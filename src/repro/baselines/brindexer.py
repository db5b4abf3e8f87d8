"""Brindexer baseline (Paul et al., CCGRID'20), built from the paper's
description in §IV/§V.

Brindexer is the state-of-the-art comparator in Figs 8 and 10. Its
design differs from GUFI in exactly the ways the experiments probe:

* **hash partitioning** — each entry is routed to one of (typically
  256) SQLite databases by a hash of its *parent directory*, so large
  directories produce outlier shards (Fig 8c's imbalance);
* **flattened schema** — every row stores its full parent path,
  because the hierarchy is not preserved on disk (Fig 8b's per-entry
  space overhead);
* **no summary/tsummary tables** — aggregate queries scan every row;
* **no permission enforcement** — the paper is explicit that
  Brindexer "currently cannot enforce standard user-oriented
  permission access control": a per-user query is just a ``WHERE
  uid = ?`` filter that still reads the entire index (Fig 10b);
* **thread-per-database queries** with a parent merge, which we
  reproduce with the same thread pool the GUFI engine uses so the two
  systems' measurements are comparable.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.scan.trace import DirStanza
from repro.scan.walker import ParallelTreeWalker, WalkStats
from repro.sim.blktrace import IOTracer

# Schema parity with GUFI's entries table (an index answering the same
# queries must hold the same attributes) plus the flattened layout's
# defining cost: every row carries its full parent path.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    parent      TEXT,
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


def _shard_of(parent: str, n_shards: int) -> int:
    """Stable hash of the parent directory path → shard id."""
    digest = hashlib.md5(parent.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % n_shards


def _row(rec) -> tuple:
    from repro.store.schema import pack_xattr_names

    return (
        rec.parent, rec.name, rec.ftype, rec.ino, rec.mode, rec.nlink,
        rec.uid, rec.gid, rec.size, rec.blksize, rec.blocks, rec.atime,
        rec.mtime, rec.ctime, rec.linkname, pack_xattr_names(rec.xattrs),
    )


@dataclass
class BrindexerQueryResult:
    rows: list[tuple]
    elapsed: float
    shards_read: int
    walk_stats: WalkStats | None = None


@dataclass
class BrindexerBuildResult:
    seconds: float
    rows_inserted: int


class BrindexerIndex:
    """A flat, hash-partitioned metadata index."""

    def __init__(self, root: Path | str, n_shards: int = 256):
        self.root = Path(root)
        self.n_shards = n_shards

    def shard_path(self, i: int) -> Path:
        return self.root / f"shard_{i:04d}.db"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        stanzas: list[DirStanza],
        root: Path | str,
        n_shards: int = 256,
    ) -> tuple["BrindexerIndex", BrindexerBuildResult]:
        """Route every record (directories included, so directory-size
        queries are answerable) to its parent-hash shard."""
        t0 = time.monotonic()
        idx = cls(root, n_shards)
        idx.root.mkdir(parents=True, exist_ok=True)
        buckets: list[list[tuple]] = [[] for _ in range(n_shards)]
        n = 0
        for stanza in stanzas:
            d = stanza.directory
            buckets[_shard_of(d.parent, n_shards)].append(_row(d))
            n += 1
            shard = _shard_of(d.path, n_shards)
            for e in stanza.entries:
                buckets[shard].append(_row(e))
                n += 1
        for i, rows in enumerate(buckets):
            conn = sqlite3.connect(idx.shard_path(i), isolation_level=None)
            try:
                conn.execute("PRAGMA page_size = 4096")
                conn.execute("PRAGMA journal_mode = MEMORY")
                conn.execute("PRAGMA synchronous = OFF")
                conn.execute(_SCHEMA)
                conn.execute("BEGIN")
                conn.executemany(
                    "INSERT INTO entries VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    rows,
                )
                conn.execute("COMMIT")
            finally:
                conn.close()
        return idx, BrindexerBuildResult(
            seconds=time.monotonic() - t0, rows_inserted=n
        )

    # ------------------------------------------------------------------
    # Statistics (Fig 8b)
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(
            self.shard_path(i).stat().st_size
            for i in range(self.n_shards)
            if self.shard_path(i).exists()
        )

    def shard_sizes(self) -> list[int]:
        return sorted(
            self.shard_path(i).stat().st_size
            for i in range(self.n_shards)
            if self.shard_path(i).exists()
        )

    def total_rows(self) -> int:
        total = 0
        for i in range(self.n_shards):
            conn = sqlite3.connect(self.shard_path(i))
            try:
                (n,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
                total += n
            finally:
                conn.close()
        return total

    # ------------------------------------------------------------------
    # Queries: thread per shard, parent merges (the Brindexer model).
    # ------------------------------------------------------------------
    def query(
        self,
        shard_sql: str,
        params: tuple = (),
        nthreads: int | None = None,
        tracer: IOTracer | None = None,
    ) -> BrindexerQueryResult:
        """Run ``shard_sql`` against every shard concurrently and
        concatenate the results. There is no permission gating: every
        shard is always read in full (the paper's Fig 10b point)."""
        nthreads = nthreads or self.n_shards
        rows: list[tuple] = []
        lock = threading.Lock()

        def expand(i: int) -> list:
            path = self.shard_path(i)
            if tracer is not None:
                tracer.record(str(path), path.stat().st_size)
            conn = sqlite3.connect(
                f"file:{path}?mode=ro&immutable=1", uri=True
            )
            try:
                got = conn.execute(shard_sql, params).fetchall()
            finally:
                conn.close()
            if got:
                with lock:
                    rows.extend(got)
            return []

        t0 = time.monotonic()
        walker = ParallelTreeWalker(min(nthreads, self.n_shards))
        stats = walker.walk(range(self.n_shards), expand)
        elapsed = time.monotonic() - t0
        if stats.errors:
            _, exc = stats.errors[0]
            raise RuntimeError(f"brindexer query failed: {exc}") from exc
        return BrindexerQueryResult(
            rows=rows,
            elapsed=elapsed,
            shards_read=self.n_shards,
            walk_stats=stats,
        )

    # ------------------------------------------------------------------
    # The paper's four macro-benchmark queries (root or uid-filtered).
    # ------------------------------------------------------------------
    def list_names(self, uid: int | None = None, **kw) -> BrindexerQueryResult:
        sql = "SELECT name FROM entries WHERE type != 'd'"
        if uid is not None:
            sql += f" AND uid = {int(uid)}"
        return self.query(sql, **kw)

    def dir_sizes(self, uid: int | None = None, **kw) -> BrindexerQueryResult:
        """Directory name+size. Without summary tables this needs a
        per-directory aggregate over all entries — a GROUP BY across
        the full index (why GUFI wins 8.2× on query 2)."""
        sql = (
            "SELECT parent, TOTAL(size) FROM entries"
            + (f" WHERE uid = {int(uid)}" if uid is not None else "")
            + " GROUP BY parent"
        )
        return self.query(sql, **kw)

    def du(self, uid: int | None = None, **kw) -> BrindexerQueryResult:
        """Space used: a full scan — Brindexer has no summary or
        tree-summary shortcut, so queries 3 and 4 cost the same."""
        sql = "SELECT TOTAL(size) FROM entries"
        if uid is not None:
            sql += f" WHERE uid = {int(uid)}"
        result = self.query(sql, **kw)
        total = sum(r[0] or 0 for r in result.rows)
        result.rows = [(total,)]
        return result
